"""Simulation tests: closed-form trajectories, superposition, convergence,
the residual certificate, and CSV round trips."""

import io

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fracctrl import (
    FracSystem,
    GridFunction,
    InvalidParams,
    SampledControl,
    TimeGrid,
    caputo_residual,
    frac_integral_left,
    simulate,
    state_transition,
    trajectory_from_csv,
    trajectory_to_csv,
)


def constant_control(grid, value):
    value = np.atleast_1d(np.asarray(value, float))
    return SampledControl(GridFunction(grid, np.tile(value, (grid.steps + 1, 1))))


class TestSystemType:
    def test_dimension_checks(self):
        with pytest.raises(InvalidParams):
            FracSystem(np.zeros((2, 3)), np.zeros((2, 1)), alpha=0.5)
        with pytest.raises(InvalidParams):
            FracSystem(np.zeros((2, 2)), np.zeros((3, 1)), alpha=0.5)
        with pytest.raises(InvalidParams):
            FracSystem(np.zeros((2, 2)), np.zeros((2, 1)), alpha=1.2)
        with pytest.raises(InvalidParams):
            FracSystem(np.zeros((2, 2)), np.zeros((2, 1)),
                       C=np.zeros((1, 3)), alpha=0.5)

    def test_vector_b_promoted(self):
        sys = FracSystem(np.zeros((2, 2)), np.array([0.0, 1.0]), alpha=0.5)
        assert sys.B.shape == (2, 1)


class TestSimulate:
    def test_chain_system_constant_control(self, example1_system):
        grid = TimeGrid(0.0, 1.0, 1024)
        traj = simulate(example1_system, np.array([1.0, 0.0]),
                        constant_control(grid, 1.0), grid)
        t = grid.nodes
        want = np.stack([1.0 + t, 2.0 * np.sqrt(t) / np.sqrt(np.pi)], axis=1)
        assert np.abs(traj.states - want).max() <= 1e-5

    def test_zero_control_is_free_response(self, example2_system):
        grid = TimeGrid(0.0, 2.0, 256)
        a = np.array([0.3, -0.7])
        traj = simulate(example2_system, a, constant_control(grid, 0.0), grid)
        for i in (0, 64, 199, 256):
            want = state_transition(example2_system.A, 0.5, grid.nodes[i]) @ a
            assert np.abs(traj.states[i] - want).max() <= 1e-12

    def test_classical_double_integrator(self):
        sys = FracSystem(np.array([[0.0, 1.0], [0.0, 0.0]]),
                         np.array([[0.0], [1.0]]), alpha=1.0)
        grid = TimeGrid(0.0, 2.0, 512)
        traj = simulate(sys, np.zeros(2), constant_control(grid, 1.0), grid)
        t = grid.nodes
        want = np.stack([t**2 / 2.0, t], axis=1)
        assert np.abs(traj.states - want).max() <= 1e-12

    def test_initial_state_exact(self, example2_system):
        grid = TimeGrid(0.0, 1.0, 64)
        a = np.array([0.123456789, -0.987654321])
        traj = simulate(example2_system, a, constant_control(grid, 0.5), grid)
        assert np.array_equal(traj.states[0], a)

    def test_superposition(self, example2_system):
        grid = TimeGrid(0.0, 1.0, 256)
        t = grid.nodes
        a1, a2 = np.array([1.0, 0.0]), np.array([0.0, -0.5])
        u1 = SampledControl(GridFunction(grid, np.sin(t)[:, None]))
        u2 = SampledControl(GridFunction(grid, (t**2)[:, None]))
        u12 = SampledControl(GridFunction(grid, (np.sin(t) + t**2)[:, None]))
        s = example2_system
        t1 = simulate(s, a1, u1, grid).states
        t2 = simulate(s, a2, u2, grid).states
        t12 = simulate(s, a1 + a2, u12, grid).states
        t0 = simulate(s, np.zeros(2), constant_control(grid, 0.0), grid).states
        scale = np.abs(t12).max()
        assert np.abs(t12 - (t1 + t2 - t0)).max() <= 1e-10 * scale

    def test_refinement_convergence_order(self, example2_system):
        a = np.array([1.0, 0.0])
        diffs = []
        for steps in (128, 256, 512):
            g = TimeGrid(0.0, 1.0, steps)
            u = SampledControl(GridFunction(g, np.cos(g.nodes)[:, None]))
            x = simulate(example2_system, a, u, g).states
            g2 = TimeGrid(0.0, 1.0, 2 * steps)
            u2 = SampledControl(GridFunction(g2, np.cos(g2.nodes)[:, None]))
            x2 = simulate(example2_system, a, u2, g2).states
            diffs.append(np.abs(x - x2[::2]).max())
        order = np.log2(diffs[0] / diffs[1])
        assert order >= 1.0

    def test_order_one_matches_classical_integrator(self, example1_system):
        sys = FracSystem(example1_system.A, example1_system.B, alpha=1.0)
        grid = TimeGrid(0.0, 1.0, 512)
        a = np.array([1.0, 0.0])

        def uf(t):
            return np.sin(2.0 * t)

        u = SampledControl(GridFunction(TimeGrid(0.0, 1.0, 8192),
                                        uf(TimeGrid(0.0, 1.0, 8192).nodes)[:, None]))
        traj = simulate(sys, a, u, grid)
        sol = solve_ivp(lambda t, x: sys.A @ x + sys.B[:, 0] * uf(t),
                        [0.0, 1.0], a, rtol=1e-11, atol=1e-13,
                        t_eval=grid.nodes)
        assert np.abs(traj.states - sol.y.T).max() <= 1e-6

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_matches_series_of_fractional_integrals(self, alpha):
        # x(t) = E_{alpha,1}(A t^alpha) a + sum_k A^k B I^{(k+1) alpha} u,
        # assembled from public functions for a non-nilpotent system
        A = np.array([[-0.4, 0.9, 0.1], [-0.7, 0.2, 0.5], [0.3, -0.6, -0.1]])
        B = np.array([[1.0, 0.0], [0.5, -0.3], [-0.2, 0.8]])
        sys = FracSystem(A, B, alpha=alpha)
        a = np.array([0.6, -0.2, 0.9])
        grid = TimeGrid(0.0, 2.0, 256)
        t = grid.nodes
        u = GridFunction(grid, np.stack([np.cos(3.0 * t), t * np.exp(-t)], axis=1))
        traj = simulate(sys, a, SampledControl(u), grid)
        want = np.stack([state_transition(A, alpha, tv) @ a for tv in t])
        M = B.copy()
        for k in range(120):
            term = frac_integral_left(u, (k + 1) * alpha).values @ M.T
            want += term
            if np.abs(term).max() < 1e-18 * np.abs(want).max():
                break
            M = A @ M
        assert np.abs(traj.states - want).max() <= 1e-10 * np.abs(want).max()

    def test_output_trajectory(self, example1_system):
        sys = FracSystem(example1_system.A, example1_system.B,
                         C=np.array([[1.0, 0.0]]), alpha=0.5)
        grid = TimeGrid(0.0, 1.0, 128)
        traj = simulate(sys, np.array([1.0, 0.0]), constant_control(grid, 1.0), grid)
        assert traj.outputs.shape == (129, 1)
        assert np.abs(traj.outputs[:, 0] - traj.states[:, 0]).max() == 0.0


class TestResidual:
    def test_chain_system_constant_control(self, example1_system):
        grid = TimeGrid(0.0, 1.0, 2048)
        u = constant_control(grid, 1.0)
        traj = simulate(example1_system, np.array([1.0, 0.0]), u, grid)
        assert caputo_residual(example1_system, traj, u) <= 5e-3

    def test_zero_trajectory(self, example1_system):
        grid = TimeGrid(0.0, 1.0, 256)
        u = constant_control(grid, 0.0)
        traj = simulate(example1_system, np.zeros(2), u, grid)
        assert caputo_residual(example1_system, traj, u) <= 1e-14

    def test_classical_case(self):
        sys = FracSystem(np.array([[0.0, 1.0], [0.0, 0.0]]),
                         np.array([[0.0], [1.0]]), alpha=1.0)
        grid = TimeGrid(0.0, 1.0, 2048)
        u = constant_control(grid, 1.0)
        traj = simulate(sys, np.zeros(2), u, grid)
        assert caputo_residual(sys, traj, u) <= 1e-6


class TestCsv:
    def test_roundtrip_and_determinism(self, example1_system, tmp_path):
        grid = TimeGrid(0.0, 1.0, 64)
        sys = FracSystem(example1_system.A, example1_system.B,
                         C=np.array([[0.0, 1.0]]), alpha=0.5)
        traj = simulate(sys, np.array([1.0, 0.0]), constant_control(grid, 1.0), grid)
        buf1, buf2 = io.StringIO(), io.StringIO()
        trajectory_to_csv(traj, buf1)
        trajectory_to_csv(traj, buf2)
        assert buf1.getvalue() == buf2.getvalue()
        assert buf1.getvalue().splitlines()[0] == "t,x1,x2,y1"
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, str(path))
        t, x = trajectory_from_csv(str(path))
        assert np.array_equal(t, grid.nodes)
        assert np.array_equal(x, traj.states)
