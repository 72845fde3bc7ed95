"""Simulation tests: closed-form trajectories, superposition, convergence,
the residual certificate, and CSV round trips."""

import io

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import gamma

from fracctrl import (
    DEFAULT_POLICY,
    CuspControl,
    DomainError,
    FracSystem,
    GridFunction,
    InvalidParams,
    MinEnergyControl,
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
        # B and C must be 2-D: a scalar B and 3-D B or C are refused too
        with pytest.raises(InvalidParams):
            FracSystem(np.zeros((2, 2)), 1.0, alpha=0.5)
        with pytest.raises(InvalidParams):
            FracSystem(np.zeros((2, 2)), np.zeros((2, 1, 1)), alpha=0.5)
        with pytest.raises(InvalidParams):
            FracSystem(np.zeros((2, 2)), np.zeros((2, 1)),
                       C=np.zeros((1, 2, 1)), alpha=0.5)

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

    @pytest.mark.parametrize("refine", [-1, 0])
    def test_refine_below_one_refused(self, example1_system, refine):
        # a negative refine would run the convolution backwards, 0 has no grid
        grid = TimeGrid(0.0, 1.0, 64)
        with pytest.raises(InvalidParams):
            simulate(example1_system, np.array([1.0, 0.0]),
                     constant_control(grid, 1.0), grid, refine=refine)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_state_refused(self, example1_system, bad):
        # bad input, not reported as overflowing states
        grid = TimeGrid(0.0, 1.0, 64)
        with pytest.raises(InvalidParams, match="entries must be finite"):
            simulate(example1_system, np.array([bad, 0.0]), constant_control(grid, 1.0), grid)

    def test_sampled_control_must_span_horizon(self, example1_system):
        # samples on [0, 0.5] would be held constant over (0.5, 1]
        grid = TimeGrid(0.0, 1.0, 64)
        with pytest.raises(DomainError, match="must span"):
            simulate(example1_system, np.zeros(2),
                     constant_control(TimeGrid(0.0, 0.5, 32), 1.0), grid)

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


class QuadraticInY(CuspControl):
    """u(T-s) = s^(1-alpha) w(s) with w = c0 + c1 y + c2 y^2, y = s^alpha."""

    def __init__(self, alpha, T, c):
        super().__init__(np.zeros((1, 1)), alpha, T, DEFAULT_POLICY)
        self.c = c
        self.m = 1

    def kernel_weight(self, s):
        y = np.asarray(s, float) ** self.alpha
        return (self.c[0] + self.c[1] * y + self.c[2] * y * y)[:, None]


class TestCuspTerminal:
    @pytest.mark.parametrize("steps", [2048, 2047])
    def test_exact_for_quadratic_in_y(self, steps):
        # with A = 0 the terminal state is (1/Gamma(alpha)) integral of w,
        # which the y-quadratic rule integrates to rounding (about 1e-14 at
        # 2048 and at 8192 steps)
        c = (0.7, -1.3, 0.45)
        for alpha in (0.3, 0.5, 0.9, 1.0):
            sys = FracSystem(np.zeros((1, 1)), np.ones((1, 1)), alpha=alpha)
            for T in (1.0, 5.0):
                x = simulate(sys, np.zeros(1), QuadraticInY(alpha, T, c),
                             TimeGrid(0.0, T, steps)).states[-1, 0]
                want = (c[0] * T + c[1] * T ** (alpha + 1.0) / (alpha + 1.0)
                        + c[2] * T ** (2.0 * alpha + 1.0) / (2.0 * alpha + 1.0)) / gamma(alpha)
                assert abs(x / want - 1.0) <= 1e-12

    def test_control_horizon_beyond_grid(self):
        # a cusp control run up to half its horizon has no cusp at the grid's end
        A, B = np.array([[-0.4, 0.9], [-0.7, 0.2]]), np.array([[1.0], [0.5]])
        sys = FracSystem(A, B, alpha=0.5)
        u = MinEnergyControl(A, B, 0.5, 2.0, np.array([0.3, -0.2]))
        a = np.array([1.0, 0.0])
        half = simulate(sys, a, u, TimeGrid(0.0, 1.0, 512)).states[-1]
        full = simulate(sys, a, u, TimeGrid(0.0, 2.0, 1024), refine=8).states[512]
        assert np.abs(half - full).max() <= 1e-6 * np.abs(full).max()


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
