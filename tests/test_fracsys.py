"""Simulation tests: closed-form trajectories, superposition, convergence
and the residual certificate."""

from concurrent.futures import ThreadPoolExecutor
from sys import getswitchinterval, setswitchinterval

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
    NonConvergence,
    PinvControl,
    SampledControl,
    SteeringProblem,
    TimeGrid,
    Trajectory,
    caputo_residual,
    simulate,
    state_transition,
    synthesize_min_energy,
    synthesize_pinv,
    verify_steering,
)
from fracctrl import fracsys
from fracctrl.fraccalc import _frac_integral_values
from fracctrl.fracsys import _moment_coefs
from fracctrl.mlkernel import _ml_series, _rgamma


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

    def test_span_check_is_the_samplers(self, example1_system):
        # accepted exactly where the sampler reads every node: a control grid
        # starting at 1e-12 T passed the old check, then the sampler refused t = 0
        grid = TimeGrid(0.0, 10.0, 64)
        late = constant_control(TimeGrid(1e-11, 10.0, 64), 1.0)
        with pytest.raises(DomainError, match="must span"):
            simulate(example1_system, np.zeros(2), late, grid)
        within = constant_control(TimeGrid(0.99e-11, 10.0, 64), 1.0)
        assert simulate(example1_system, np.zeros(2), within, grid).states.shape == (65, 2)

    @pytest.mark.parametrize("a, grid, width, exc", [
        (np.zeros(3), TimeGrid(0.0, 1.0, 64), 1, InvalidParams),
        (np.zeros(2), TimeGrid(0.5, 1.0, 64), 1, DomainError),
        (np.zeros(2), TimeGrid(0.0, 1.0, 64), 2, InvalidParams),
    ])
    def test_malformed_inputs_refused(self, example1_system, a, grid, width, exc):
        # an initial state of the wrong shape, a grid not starting at 0, a control of width != m
        u = constant_control(TimeGrid(0.0, 1.0, 64), np.ones(width))
        with pytest.raises(exc):
            simulate(example1_system, a, u, grid)

    def test_sampled_control_read_only_on_its_grid(self):
        # past its grid a sampled control once held its end value silently
        u = constant_control(TimeGrid(0.0, 1.0, 8), 1.0)
        assert np.array_equal(u.sample(np.array([0.0, 1.0 + 1e-13])), np.ones((2, 1)))
        for times in ([0.5, 1.0 + 1e-9], [-1e-9]):
            with pytest.raises(DomainError, match="outside grid"):
                u.sample(np.array(times))
        with pytest.raises(DomainError, match="outside grid"):
            u.evaluate(2.0)

    def test_one_dimensional_samples_are_one_column(self, example1_system):
        grid = TimeGrid(0.0, 1.0, 64)
        vals = np.sin(grid.nodes)
        flat = SampledControl(GridFunction(grid, vals))
        column = SampledControl(GridFunction(grid, vals[:, None]))
        assert flat.m == 1 and np.array_equal(flat.data.values, column.data.values)
        a = np.array([1.0, 0.0])
        got = simulate(example1_system, a, flat, grid)
        want = simulate(example1_system, a, column, grid)
        assert np.array_equal(got.states, want.states)

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
            term = _frac_integral_values(u.values, (k + 1) * alpha, grid.h) @ M.T
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


class TestClosedFormControlInputs:
    def test_order_checked(self):
        # unchecked, alpha = 1.5 gave an inf sample at t = T
        with pytest.raises(InvalidParams):
            PinvControl(np.zeros((2, 2)), np.eye(2), 1.5, 1.0, np.ones(2))
        with pytest.raises(InvalidParams):
            QuadraticInY(0.0, 1.0, (1.0, 0.0, 0.0))

    def test_a_must_be_square_and_finite(self):
        for A in (np.zeros((2, 3)), np.array([[np.nan]])):
            with pytest.raises(InvalidParams):
                PinvControl(A, np.eye(2), 0.5, 1.0, np.ones(2))

    def test_pinv_shapes_checked(self):
        A = np.zeros((2, 2))
        for B_pinv, v in ((np.eye(2), np.ones(3)), (np.eye(2), np.ones((2, 1))),
                          (np.ones((2, 3)), np.ones(2)), (np.ones(2), np.ones(2))):
            with pytest.raises(InvalidParams):
                PinvControl(A, B_pinv, 0.5, 1.0, v)
        assert PinvControl(A, np.ones((3, 2)), 0.5, 1.0, np.ones(2)).m == 3

    def test_sampled_only_up_to_its_horizon(self):
        u = PinvControl(np.zeros((1, 1)), np.eye(1), 0.5, 2.0, np.ones(1))
        assert u.sample(np.array([2.0 + 1e-13])).shape == (1, 1)  # T up to rounding
        with pytest.raises(DomainError, match="beyond its horizon"):
            u.sample(np.array([0.0, 2.0 + 1e-9]))


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
        full = simulate(sys, a, u, TimeGrid(0.0, 2.0, 8192)).states[4096]
        assert np.abs(half - full).max() <= 1e-6 * np.abs(full).max()


    @pytest.mark.parametrize("steps", [2047, 2048])
    def test_non_normal_system(self, steps):
        # A = 0 keeps every moment a single term; a non-normal A mixes them
        A, B = np.array([[-0.6, 2.5], [0.0, 0.4]]), np.array([[0.3, 0.0], [1.0, -0.8]])
        sys = FracSystem(A, B, alpha=0.6)
        a, b, T = np.array([1.0, -0.5]), np.array([-0.2, 0.4]), 2.0
        fine = SteeringProblem(sys, a, b, T, TimeGrid(0.0, T, 16384))
        prob = SteeringProblem(sys, a, b, T, TimeGrid(0.0, T, steps))
        for synth in (synthesize_min_energy, synthesize_pinv):
            u = synth(fine).control
            ref = simulate(sys, a, u, fine.grid).states[-1]
            traj = simulate(sys, a, u, prob.grid)
            assert np.abs(traj.states[-1] - ref).max() <= 1e-3 * max(1.0, np.abs(ref).max())
            assert np.array_equal(traj.controls, u.sample(prob.grid.nodes))
            res = synth(prob)
            traj = simulate(sys, a, res.control, prob.grid)
            want = caputo_residual(sys, traj)
            assert verify_steering(prob, res).caputo_residual == want

    def test_verify_samples_the_control_once(self, monkeypatch):
        A, B = np.array([[-0.6, 2.5], [0.0, 0.4]]), np.array([[0.3], [1.0]])
        sys = FracSystem(A, B, alpha=0.6)
        prob = SteeringProblem(sys, np.array([1.0, -0.5]), np.zeros(2), 2.0,
                               TimeGrid(0.0, 2.0, 512))
        res = synthesize_min_energy(prob)
        calls = []
        sample = MinEnergyControl.sample
        monkeypatch.setattr(MinEnergyControl, "sample",
                            lambda self, t: calls.append(len(t)) or sample(self, t))
        verify_steering(prob, res)
        assert calls == [513]

    def test_control_of_another_order_is_sampled(self):
        # the y = s^alpha rule holds only when the control's alpha is the
        # system's; any other cusp control goes through the sampled path
        A, B = np.array([[0.0, 1.0], [-0.5, -0.2]]), np.array([[0.0], [1.0]])
        sys = FracSystem(A, B, alpha=0.5)
        u = MinEnergyControl(A, B, 0.7, 1.0, np.array([1.0, -0.5]))
        grid = TimeGrid(0.0, 1.0, 2048)
        x = simulate(sys, np.zeros(2), u, grid).states[-1]
        sampled = SampledControl(GridFunction(grid, u.sample(grid.nodes)))
        want = simulate(sys, np.zeros(2), sampled, grid).states[-1]
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()

    def test_moment_coefficients_bitwise(self):
        # cached reciprocal-gamma rows over (k alpha + p alpha + 1) equal the
        # elementwise reciprocal gamma they replaced, and so do the series
        A, B = np.array([[-0.6, 2.5], [0.0, 0.4]]), np.array([[0.3], [1.0]])
        for alpha in (0.3, 0.5, 0.7, 0.9, 1.0):
            old = [lambda k, p=p: _rgamma(k * alpha + alpha) / (k * alpha + p * alpha + 1.0)
                   for p in range(3)]
            new = _moment_coefs(alpha)
            for j in range(32):
                k = np.arange(16 * j, 16 * j + 16)
                for c_new, c_old in zip(new, old):
                    assert np.array_equal(c_new(k), c_old(k))
            lags = np.arange(2049) * (5.0 / 2048)
            got = _ml_series(A.T, alpha, new, lags, B.T, DEFAULT_POLICY)
            want = _ml_series(A.T, alpha, old, lags, B.T, DEFAULT_POLICY)
            assert np.array_equal(got, want)


def _steering_case(alpha=0.6, steps=512):
    """A rank-B = n problem with its min-energy, pinv and sampled controls."""
    A, B = np.array([[-0.6, 2.5], [0.0, 0.4]]), np.array([[0.3, 0.0], [1.0, -0.8]])
    sys = FracSystem(A, B, C=np.array([[1.0, -1.0]]), alpha=alpha)
    grid = TimeGrid(0.0, 2.0, steps)
    prob = SteeringProblem(sys, np.array([1.0, -0.5]), np.array([-0.2, 0.4]), 2.0, grid)
    me, pi = synthesize_min_energy(prob), synthesize_pinv(prob)
    sampled = SampledControl(GridFunction(grid, me.control.sample(grid.nodes) * 0.5))
    return prob, {"min-energy": me.control, "pinv": pi.control, "sampled": sampled}


def _same_trajectory(t1, t2):
    return all(np.array_equal(getattr(t1, f), getattr(t2, f))
               for f in ("states", "outputs", "controls"))


class TestKernelTable:
    def cold(self, prob, u, sys=None, a=None):
        fracsys._TABLES.clear()
        return simulate(sys or prob.sys, prob.a if a is None else a, u, prob.grid)

    @pytest.mark.parametrize("order", [("min-energy", "pinv", "sampled"),
                                       ("sampled", "pinv", "min-energy"),
                                       ("sampled", "min-energy", "sampled", "pinv")])
    def test_warm_equals_cold(self, order):
        prob, controls = _steering_case()
        want = {name: self.cold(prob, u) for name, u in controls.items()}
        fracsys._TABLES.clear()
        for name in order:
            got = simulate(prob.sys, prob.a, controls[name], prob.grid)
            assert _same_trajectory(got, want[name])

    def test_warm_verify_equals_cold(self):
        prob, _ = _steering_case()
        results = [synthesize_min_energy(prob), synthesize_pinv(prob)]
        want = []
        for res in results:
            fracsys._TABLES.clear()
            want.append(verify_steering(prob, res))
        fracsys._TABLES.clear()
        assert [verify_steering(prob, res) for res in results] == want
        assert [verify_steering(prob, res) for res in results[::-1]] == want[::-1]

    def test_moments_added_once_and_kernel_reused(self, monkeypatch):
        prob, controls = _steering_case()
        fracsys._TABLES.clear()
        simulate(prob.sys, prob.a, controls["sampled"], prob.grid)
        kinds = []
        series = fracsys._ml_series

        def counted(A, alpha, beta, *args):
            kinds.append("moments" if isinstance(beta, list) and callable(beta[0])
                         else "kernel" if isinstance(beta, list) else "single")
            return series(A, alpha, beta, *args)

        monkeypatch.setattr(fracsys, "_ml_series", counted)
        simulate(prob.sys, prob.a, controls["min-energy"], prob.grid)
        # the control's samples and w(0); the moments once; no D/G1 kernel
        assert sorted(kinds) == ["moments", "single", "single"]
        kinds.clear()
        simulate(prob.sys, prob.a, controls["pinv"], prob.grid)
        simulate(prob.sys, prob.a, controls["sampled"], prob.grid)
        assert kinds == []

    def test_in_place_mutation_misses(self):
        # the key holds the values, not the arrays: a caller mutating a or A
        # in place between calls gets a fresh table, never a stale one
        prob, controls = _steering_case()
        u = controls["sampled"]
        sys = FracSystem(prob.sys.A.copy(), prob.sys.B, alpha=prob.sys.alpha)
        a = prob.a.copy()
        before = simulate(sys, a, u, prob.grid)
        a[0] += 0.25
        got = simulate(sys, a, u, prob.grid)
        assert not np.array_equal(got.states, before.states)
        assert _same_trajectory(got, self.cold(prob, u, sys, a))
        sys.A[0, 1] -= 0.5
        prev, got = got, simulate(sys, a, u, prob.grid)
        assert not np.array_equal(got.states[1:], prev.states[1:])
        assert _same_trajectory(got, self.cold(prob, u, sys, a))

    def test_states_are_not_the_table(self):
        prob, controls = _steering_case()
        for u in controls.values():
            want = self.cold(prob, u)
            simulate(prob.sys, prob.a, u, prob.grid).states[:] = 7.0
            assert _same_trajectory(simulate(prob.sys, prob.a, u, prob.grid), want)
        for arr in next(iter(fracsys._TABLES.values())).values():
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.filterwarnings("error")
    def test_failed_table_is_not_kept(self):
        sys = FracSystem(50.0 * np.eye(2), np.eye(2), alpha=0.5)
        grid = TimeGrid(0.0, 1.0, 64)
        u = constant_control(grid, [1.0, 0.0])
        for _ in range(2):
            with pytest.raises(NonConvergence):
                simulate(sys, np.ones(2), u, grid)
            assert fracsys._TABLES == {}

    def test_threads_match_serial(self):
        cases = [_steering_case(alpha, steps) for alpha, steps in
                 ((0.6, 512), (0.6, 256), (0.35, 512), (0.9, 384))]

        def run(case):
            prob, controls = case
            return [simulate(prob.sys, prob.a, controls[name], prob.grid)
                    for _ in range(4) for name in ("sampled", "min-energy", "pinv")]

        want = [run(case) for case in cases]
        interval = getswitchinterval()
        setswitchinterval(1e-6)  # switch threads between lookup, build and store
        try:
            with ThreadPoolExecutor(4) as pool:
                got = [f.result(timeout=120) for f in [pool.submit(run, c) for c in cases]]
        finally:
            setswitchinterval(interval)
        for g, w in zip(got, want):
            assert all(_same_trajectory(x, y) for x, y in zip(g, w))


class TestResidual:
    def test_reads_the_recorded_control_samples(self, example1_system):
        grid = TimeGrid(0.0, 1.0, 256)
        traj = simulate(example1_system, np.zeros(2), constant_control(grid, 1.0), grid)
        with pytest.raises(InvalidParams, match="no control samples"):
            caputo_residual(example1_system, Trajectory(grid, traj.states))
        res = caputo_residual(example1_system, traj)
        traj.controls = traj.controls + 1.0  # A x + B u moves by B = e2
        assert caputo_residual(example1_system, traj) != res

    def test_chain_system_constant_control(self, example1_system):
        grid = TimeGrid(0.0, 1.0, 2048)
        u = constant_control(grid, 1.0)
        traj = simulate(example1_system, np.array([1.0, 0.0]), u, grid)
        assert caputo_residual(example1_system, traj) <= 5e-3

    def test_zero_trajectory(self, example1_system):
        grid = TimeGrid(0.0, 1.0, 256)
        u = constant_control(grid, 0.0)
        traj = simulate(example1_system, np.zeros(2), u, grid)
        assert caputo_residual(example1_system, traj) <= 1e-14

    def test_classical_case(self):
        sys = FracSystem(np.array([[0.0, 1.0], [0.0, 0.0]]),
                         np.array([[0.0], [1.0]]), alpha=1.0)
        grid = TimeGrid(0.0, 1.0, 2048)
        u = constant_control(grid, 1.0)
        traj = simulate(sys, np.zeros(2), u, grid)
        assert caputo_residual(sys, traj) <= 1e-6

    @pytest.mark.parametrize("steps", [2, 3, 64])
    def test_fixed_interior_keeps_a_node_and_drops_the_last(self, example1_system, steps):
        grid = TimeGrid(0.0, 1.0, steps)
        u = constant_control(grid, 1.0)
        traj = simulate(example1_system, np.zeros(2), u, grid)
        res = caputo_residual(example1_system, traj)
        # the L1 derivative at a node reads no later node (up to FFT rounding)
        traj.states[-1] += 1e3
        assert caputo_residual(example1_system, traj) == pytest.approx(res, rel=1e-9)

