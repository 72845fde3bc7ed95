"""Synthesis tests: Gramian closed forms, rank analysis, the three steering
laws, energy identities, minimality, and export round trips."""

import json
import re
from concurrent.futures import ThreadPoolExecutor
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gamma

from fracctrl import (
    ControlSignal,
    DomainError,
    FracSystem,
    GridFunction,
    InvalidOrder,
    InvalidParams,
    NonConvergence,
    PinvControl,
    RankDeficient,
    RankDeficientB,
    SampledControl,
    SingularGramian,
    SingularKernel,
    SteeringProblem,
    TimeGrid,
    gramian,
    kalman_rank,
    modified_energy,
    simulate,
    state_transition,
    synthesize_min_energy,
    synthesize_pinv,
    synthesize_rank_based,
    verify_steering,
)
import fracctrl.controlsyn as controlsyn
import fracctrl.fracsys as fracsys
from fracctrl import cli
import fracctrl.mlkernel as mlkernel
from fracctrl.controlsyn import _adaptive_graded, _graded_gauss_rule, _solve_spd


def problem(sys, a, b, T, steps=1024):
    return SteeringProblem(sys, np.asarray(a, float), np.asarray(b, float),
                           T, TimeGrid(0.0, T, steps))


def example1_gramian(T):
    return np.array([
        [T**2 / 2.0, 2.0 * T**1.5 / (3.0 * np.sqrt(np.pi))],
        [2.0 * T**1.5 / (3.0 * np.sqrt(np.pi)), T / np.pi],
    ])


class Ramp(ControlSignal):
    """u(t) = t: a control that is neither a cusp nor a sampled one."""

    m = 1

    def sample(self, times):
        return np.asarray(times, float)[:, None]


def panel_loop_rule(T, levels):
    """Reference for ``_graded_gauss_rule``: the panel list and per-panel loop
    it replaced, kept verbatim but for the two-ended grading now gone and the
    order, now always 16."""
    def graded_panels(T, levels):
        edges = [T * 0.5**j for j in range(levels)] + [0.0]
        return [(edges[j + 1], edges[j]) for j in range(levels)][::-1]

    xg, wg = leggauss(16)
    nodes, weights = [], []
    for lo, hi in graded_panels(T, levels):
        mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + rad * xg)
        weights.append(rad * wg)
    return np.concatenate(nodes), np.concatenate(weights)


class TestGradedRule:
    def test_bitwise_equal_to_panel_loop(self):
        for T in (0.3, 1.0, 2.0, 5.0, 7.77, 10.0):
            for levels in (1, 12, 16, 24, 48):
                got = _graded_gauss_rule(T, levels)
                want = panel_loop_rule(T, levels)
                assert all(g.shape == w.shape and np.array_equal(g, w)
                           for g, w in zip(got, want))

    @pytest.mark.parametrize("T", [-1.0, 0.0, np.inf, np.nan])
    def test_bad_horizon_refused(self, T):
        with pytest.raises(InvalidParams):
            _graded_gauss_rule(T, 12)

    def test_legendre_constant_is_leggauss_read_only(self):
        for got, want in zip((controlsyn._XG, controlsyn._WG), leggauss(16)):
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0] = 0.0

    def test_legendre_rule_exact_to_degree(self):
        for order in range(1, 65):
            x, w = leggauss(order)
            k = np.arange(2 * order)[:, None]
            want = np.where(k[:, 0] % 2, 0.0, 2.0 / (k[:, 0] + 1.0))
            assert np.abs((x**k) @ w - want).max() <= 1e-13

    def test_deepening_keeps_outer_panels_bitwise(self):
        # 4 more levels split only the innermost panel into 5; every other
        # panel's nodes and weights stay bitwise the same
        for T in (0.3, 1.0, 2.0, 5.0, 7.77, 10.0):
            for levels in range(1, 45):
                s0, w0 = _graded_gauss_rule(T, levels)
                s1, w1 = _graded_gauss_rule(T, levels + 4)
                assert np.array_equal(s1[5 * 16:], s0[16:])
                assert np.array_equal(w1[5 * 16:], w0[16:])


def counting(fn, sizes, nodes=None, at=0):
    """``fn`` with the size (and, given ``nodes``, a copy) of the lag array
    in its positional argument ``at`` recorded at each call."""
    def wrapped(*args):
        sizes.append(np.size(args[at]))
        if nodes is not None:
            nodes.append(np.array(args[at], copy=True))
        return fn(*args)
    return wrapped


# the look-ahead schedule of the graded driver: the new nodes of the gradings
# of 12 and 16 levels in one call, then those of 20 to 28, then the rest
LOOKAHEAD = [controlsyn._LEVELS * 16 + 5 * 16, 3 * 5 * 16, 5 * 5 * 16]
# a kernel for integrands that do not read it
SCALAR_KERNEL = (np.zeros((1, 1)), 0.5)


class TestAdaptiveGraded:
    def test_each_node_evaluated_once(self):
        T, sizes, nodes = 3.0, [], []
        value, _ = _adaptive_graded(counting(lambda s, E: np.sqrt(s), sizes, nodes), T, "test",
                                    SCALAR_KERNEL)
        assert 1 <= len(sizes) and sizes == LOOKAHEAD[:len(sizes)]
        seen = np.concatenate(nodes)
        assert np.unique(seen).size == seen.size
        final = _graded_gauss_rule(T, controlsyn._GROUPS[len(sizes) - 1][-1])[0]
        assert np.isin(final, seen).all()
        assert value == pytest.approx(2.0 * T**1.5 / 3.0, rel=1e-10)

    def test_nonconvergence_past_44_levels(self):
        # the integral of 1/s diverges: each deepening adds about 4 log 2
        sizes, nodes = [], []
        with pytest.raises(NonConvergence, match="rel_tol=1e-11 within 44 grading levels"):
            _adaptive_graded(counting(lambda s, E: 1.0 / s, sizes, nodes), 1.0, "test",
                             SCALAR_KERNEL)
        assert sizes == LOOKAHEAD
        seen = np.concatenate(nodes)
        assert np.unique(seen).size == seen.size
        assert np.isin(_graded_gauss_rule(1.0, 48)[0], seen).all()

    def test_gramian_and_cusp_energy_grade_one_end(self, monkeypatch, example2_system):
        # one graded end: the look-ahead schedule of nodes
        def one_end(sizes):
            return len(sizes) >= 1 and sizes == LOOKAHEAD[:len(sizes)]

        sizes = []
        controlsyn._KERNELS.clear()
        monkeypatch.setattr(controlsyn, "ml_matrix_batch",
                            counting(controlsyn.ml_matrix_batch, sizes, at=3))
        controlsyn.gramian(example2_system, 10.0)
        assert one_end(sizes)
        monkeypatch.undo()
        res = synthesize_min_energy(problem(example2_system, [0.0, 1.0], [0.0, 0.0], 10.0))
        sizes = []
        res.control._weight = counting(res.control._weight, sizes)
        assert modified_energy(res.control, 0.5, 10.0) == pytest.approx(res.energy, rel=1e-9)
        assert one_end(sizes)


class TestKernelMemo:
    """One memo of kernel values per (A, alpha, T): S0(T) and the graded
    E_{alpha,alpha}(A s^alpha) that the Gramian and both energies read."""

    @staticmethod
    def steer(prob):
        out = []
        for synth in (synthesize_min_energy, synthesize_pinv):
            res = synth(prob)
            Q = res.gramian.Q.tobytes() if res.gramian else None
            out.append((res.f_T.tobytes(), res.energy, Q, verify_steering(prob, res)))
        return out

    def test_call_budget_of_a_steering_op(self, monkeypatch):
        # without the memo the graded nodes were summed three times, 192 then
        # 80 per deepening, and S0(T) twice: 15 calls with nonzero lags here.
        # Now one call per look-ahead group the deepest quadrature reaches (two
        # here: the Gramian stops at 20 levels), one for S0(T), and four for
        # simulate's table (the hat weights and the free response in one
        # pass), its moments and the two controls' samples
        sys = FracSystem(np.array([[-0.4, 0.9], [-0.7, 0.2]]), np.eye(2), alpha=0.7)
        prob = problem(sys, [1.0, -0.5], [0.2, 0.4], 2.0, steps=2048)
        controlsyn._KERNELS.clear()
        fracsys._TABLES.clear()
        lags, series = [], mlkernel._ml_series

        def counted(A, alpha, beta, s, *args):
            lags.append(np.size(s) if np.any(s) else 0)
            return series(A, alpha, beta, s, *args)

        monkeypatch.setattr(mlkernel, "_ml_series", counted)
        monkeypatch.setattr(fracsys, "_ml_series", counted)
        self.steer(prob)
        nonzero = [n for n in lags if n]
        assert nonzero[:3] == [272, 240, 1] and len(nonzero) == 7
        assert 0 not in lags  # w(0) of each control is E(0) = I/Gamma(alpha), summed by no loop

    def test_threads_match_serial(self):
        probs = [problem(FracSystem(A, np.eye(2), alpha=alpha), [1.0, -0.5], [0.2, 0.4], T,
                         steps=256)
                 for A, alpha, T in ((np.array([[-0.4, 0.9], [-0.7, 0.2]]), 0.7, 2.0),
                                     (np.array([[0.3, -1.0], [0.5, -0.6]]), 0.4, 1.0))]
        want = []
        for prob in probs:
            controlsyn._KERNELS.clear()
            want.append(self.steer(prob))
        interval = getswitchinterval()
        setswitchinterval(1e-6)  # switch threads between lookup, build and store
        try:
            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(lambda p: [self.steer(p) for _ in range(3)], p)
                           for p in probs]
                got = [f.result(timeout=120) for f in futures]
        finally:
            setswitchinterval(interval)
        for g, w in zip(got, want):
            assert all(run == w for run in g)


class TestSolveSpd:
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    def test_matches_scipy_cholesky(self, cond):
        rng = np.random.default_rng(int(np.log10(cond)))
        for n in range(1, 13):
            for _ in range(10):
                V = np.linalg.qr(rng.standard_normal((n, n)))[0]
                Q = (V * np.geomspace(1.0, 1.0 / cond, n) * 10.0 ** rng.uniform(-3, 3)) @ V.T
                Q = 0.5 * (Q + Q.T)
                f = rng.standard_normal(n)
                want = cho_solve(cho_factor(Q), f)
                assert np.abs(_solve_spd(Q, f) - want).max() <= 1e-12 * np.abs(want).max()

    def test_cholesky_failure_raises_singular_gramian(self, monkeypatch):
        with pytest.raises(SingularGramian, match="not numerically positive definite"):
            _solve_spd(np.diag([2.0, 0.0]), np.array([4.0, 1.0]))
        # a singular Gramian let through the rcond gate is still refused
        monkeypatch.setattr(controlsyn, "SINGULAR_GRAMIAN_RCOND", 0.0)
        sys = FracSystem(np.zeros((2, 2)), np.array([[1.0], [0.0]]), alpha=0.5)
        with pytest.raises(SingularGramian, match="not numerically positive definite"):
            synthesize_min_energy(problem(sys, [1.0, 1.0], [0.0, 0.0], 1.0, steps=64))


class TestSteeringProblem:
    @pytest.mark.parametrize("a, b, T", [
        ([np.nan, 0.0], [0.0, 0.0], 1.0), ([1.0, 0.0], [0.0, np.inf], 1.0),
        ([1.0, 0.0], [0.0, 0.0], np.inf), ([1.0, 0.0], [0.0, 0.0], np.nan),
    ])
    def test_non_finite_refused(self, example1_system, a, b, T):
        with pytest.raises(InvalidParams):
            SteeringProblem(example1_system, a, b, T, TimeGrid(0.0, 1.0, 64))

    @pytest.mark.parametrize("t0, t1", [(0.0, 0.5), (0.1, 1.0), (0.0, 1.0 + 1e-9)])
    def test_grid_must_span_horizon(self, example1_system, t0, t1):
        with pytest.raises(InvalidParams, match="span exactly"):
            SteeringProblem(example1_system, np.zeros(2), np.zeros(2), 1.0, TimeGrid(t0, t1, 64))


class TestGramian:
    @pytest.mark.parametrize("T", [1.0, 2.0, 10.0])
    def test_chain_system_closed_form(self, example1_system, T):
        g = gramian(example1_system, T)
        assert np.abs(g.Q / example1_gramian(T) - 1.0).max() <= 1e-8

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_scalar_integrator(self, scalar_system, alpha):
        # neutralized integrand is the constant 1/Gamma(alpha)^2
        for T in (1.0, 5.0):
            g = gramian(scalar_system(alpha), T)
            assert g.Q[0, 0] == pytest.approx(T / gamma(alpha) ** 2, rel=1e-12)

    def test_zero_input_matrix(self):
        sys = FracSystem(np.eye(2), np.zeros((2, 1)), alpha=0.5)
        g = gramian(sys, 1.0)
        assert np.abs(g.Q).max() == 0.0
        assert g.rcond == 0.0

    def test_symmetry_and_psd_on_battery(self, battery):
        for sys, a, b, T in battery:
            g = gramian(sys, T)
            assert np.abs(g.Q - g.Q.T).max() <= 1e-12 * max(np.abs(g.Q).max(), 1e-300)
            ev = np.linalg.eigvalsh(g.Q)
            assert ev.min() >= -1e-10 * np.abs(ev).max()

    @pytest.mark.parametrize("T", [0.0, -1.0, np.nan])
    def test_nonpositive_horizon_refused(self, example1_system, T):
        with pytest.raises(InvalidParams, match="horizon must be positive and finite, got"):
            gramian(example1_system, T)


class TestKalmanRank:
    def test_chain_system(self, example1_system):
        rd = kalman_rank(example1_system)
        assert rd.rank == 2
        assert np.allclose(rd.kalman, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rotation_system(self, example2_system):
        assert kalman_rank(example2_system).rank == 2

    def test_zero_b(self):
        sys = FracSystem(np.eye(2), np.zeros((2, 1)), alpha=0.5)
        assert kalman_rank(sys).rank == 0

    def test_right_inverse_identity_on_battery(self, battery):
        for sys, a, b, T in battery:
            rd = kalman_rank(sys)
            assert rd.rank == sys.n
            acc = np.zeros((sys.n, sys.n))
            P = np.eye(sys.n)
            for K in rd.K_blocks:
                acc += P @ sys.B @ K
                P = sys.A @ P
            assert np.abs(acc - np.eye(sys.n)).max() <= 1e-10


class TestMinEnergy:
    def test_chain_system_control_and_energy(self, example1_system):
        for T in (1.0, 10.0):
            prob = problem(example1_system, [1.0, 0.0], [0.0, 0.0], T)
            res = synthesize_min_energy(prob)
            ts = np.linspace(0.0, T, 101)
            want = -18.0 * (T - ts) / T**2 + 12.0 * np.sqrt(T - ts) / T**1.5
            assert np.abs(res.control.sample(ts)[:, 0] - want).max() <= 1e-6
            assert res.energy == pytest.approx(18.0 / T**2, rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_scalar_closed_form(self, scalar_system, alpha):
        T, a, b = 2.0, 0.3, -1.2
        prob = problem(scalar_system(alpha), [a], [b], T)
        res = synthesize_min_energy(prob)
        ts = np.linspace(0.0, T, 64)
        want = gamma(alpha) * (b - a) * (T - ts) ** (1.0 - alpha) / T
        assert np.abs(res.control.sample(ts)[:, 0] - want).max() <= 1e-9
        assert res.energy == pytest.approx(gamma(alpha) ** 2 * (b - a) ** 2 / T, rel=1e-9)

    def test_terminal_value_zero_for_fractional_order(self, battery):
        for sys, a, b, T in battery[:6]:
            if sys.alpha == 1.0:
                continue
            res = synthesize_min_energy(problem(sys, a, b, T, steps=64))
            assert np.array_equal(res.control.evaluate(T), np.zeros(sys.m))

    def test_matched_states_zero_control(self):
        sys = FracSystem(np.zeros((2, 2)), np.eye(2), alpha=0.5)
        a = np.array([0.4, -0.2])
        prob = problem(sys, a, a, 1.0, steps=64)
        res = synthesize_min_energy(prob)
        assert res.energy == 0.0
        ts = np.linspace(0.0, 1.0, 11)
        assert np.abs(res.control.sample(ts)).max() == 0.0

    def test_singular_gramian_raises(self):
        sys = FracSystem(np.eye(2), np.zeros((2, 1)), alpha=0.5)
        with pytest.raises(SingularGramian):
            synthesize_min_energy(problem(sys, [1.0, 0.0], [0.0, 0.0], 1.0, steps=64))

    def test_energy_overflow_refused(self, example1_system):
        # <c, f_T> overflowed with a matmul warning and came back as inf
        prob = problem(example1_system, [1e300, 0.0], [0.0, 0.0], 10.0, steps=64)
        with pytest.raises(NonConvergence, match="energy <Q_T\\^-1 f_T, f_T> overflows"):
            synthesize_min_energy(prob)


class TestPinv:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_scalar_equals_min_energy(self, scalar_system, alpha):
        prob = problem(scalar_system(alpha), [0.0], [1.0], 1.0)
        rp = synthesize_pinv(prob)
        rme = synthesize_min_energy(prob)
        ts = np.linspace(0.0, 1.0, 101)
        assert np.abs(rp.control.sample(ts) - rme.control.sample(ts)).max() <= 1e-10
        assert rp.energy == pytest.approx(rme.energy, rel=1e-9)

    def test_scalar_dynamic_steering_end_to_end(self):
        sys = FracSystem(np.array([[0.8]]), np.array([[1.0]]), alpha=0.5)
        T = 1.0
        prob = problem(sys, [0.0], [1.0], T, steps=2048)
        res = synthesize_pinv(prob)
        traj = simulate(sys, np.zeros(1), res.control, prob.grid)
        assert abs(traj.states[-1, 0] - 1.0) <= 1e-4

    def test_terminal_error_full_rank_b(self):
        # w is smooth in y = s^alpha, so the terminal rule reaches 5e-9 at most
        A, B = np.array([[-0.4, 0.9], [-0.7, 0.2]]), np.array([[1.0, 0.5], [-0.3, 0.8]])
        for alpha in (0.3, 0.5, 0.7, 0.9):
            for T in (1.0, 5.0):
                prob = problem(FracSystem(A, B, alpha=alpha), [1.0, -0.5], [0.2, 0.4],
                               T, steps=2048)
                rep = verify_steering(prob, synthesize_pinv(prob))
                assert rep.terminal_error_rel <= 5e-8

    def test_matched_target_zero_control(self, example2_system):
        sys = FracSystem(example2_system.A, np.eye(2), alpha=0.5)
        T = 1.0
        a = np.array([0.5, -0.5])
        b = state_transition(sys.A, sys.alpha, T) @ a
        res = synthesize_pinv(problem(sys, a, b, T, steps=64))
        ts = np.linspace(0.0, T, 21)
        assert np.abs(res.control.sample(ts)).max() <= 1e-14

    def test_rank_deficient_b_rejected(self, example1_system):
        with pytest.raises(RankDeficientB):
            synthesize_pinv(problem(example1_system, [1.0, 0.0], [0.0, 0.0], 1.0, steps=64))

    def test_kernel_norm_overflow_left_to_svd(self):
        # the Frobenius norm of E overflowed with a warning; an infinite
        # certificate fails, and the SVD refuses the kernel
        sys = FracSystem([[0.0, 1e300], [0.0, 0.0]], np.eye(2), alpha=0.5)
        with pytest.raises(SingularKernel, match="ill-conditioned"):
            synthesize_pinv(problem(sys, [1.0, 0.0], [0.0, 0.0], 1.0, steps=64))

    def test_ill_conditioned_kernel_refused_by_energy(self, monkeypatch, example1_system):
        # E_{1/2,1/2}(A s^(1/2)) of the chain system has singular-value
        # ratio 0.20 at s = 1, below the threshold of 0.5
        monkeypatch.setattr(mlkernel, "SINGULAR_KERNEL_RCOND", 0.5)
        u = PinvControl(example1_system.A, np.eye(2), 0.5, 1.0, np.array([1.0, 0.0]))
        with pytest.raises(SingularKernel):
            u.sample(np.array([0.0]))
        with pytest.raises(SingularKernel):
            modified_energy(u, 0.5, 1.0)

    def test_energy_not_below_min_energy(self, battery):
        # the pinv control steers too, so its energy is never below the
        # minimum; with A != 0 it is in general strictly above
        square = [case for case in battery if case[0].m == case[0].n]
        assert square
        ratios = []
        for sys, a, b, T in square:
            prob = problem(sys, a, b, T, steps=64)
            e_min = synthesize_min_energy(prob).energy
            e_pinv = synthesize_pinv(prob).energy
            assert e_pinv >= e_min * (1.0 - 1e-9)
            ratios.append(e_pinv / e_min)
        assert max(ratios) > 1.1

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("T", [1.0, 5.0])
    def test_energy_equals_min_energy_for_zero_a(self, scalar_system, alpha, T):
        prob = problem(scalar_system(alpha), [0.0], [1.0], T, steps=64)
        e_min = synthesize_min_energy(prob).energy
        assert synthesize_pinv(prob).energy == pytest.approx(e_min, rel=1e-9)


class TestRankBased:
    def test_scalar_reduction_matches_pinv(self, scalar_system):
        # with the flat density phi = 1/T the n=1 construction is the
        # right-inverse control exactly
        sys = scalar_system(0.5)
        T = 1.0
        grid = TimeGrid(0.0, T, 512)
        prob = SteeringProblem(sys, np.zeros(1), np.ones(1), T, grid)
        phi = GridFunction(grid, np.full(grid.steps + 1, 1.0 / T))
        rr = synthesize_rank_based(prob, phi=phi)
        rp = synthesize_pinv(prob)
        got = rr.control.sample(grid.nodes)
        want = rp.control.sample(grid.nodes)
        assert np.abs(got - want).max() <= 1e-12

    def test_chain_system_steers(self, example1_system):
        T = 1.0
        prob = problem(example1_system, [1.0, 0.0], [0.0, 0.0], T, steps=2048)
        res = synthesize_rank_based(prob)
        traj = simulate(example1_system, np.array([1.0, 0.0]), res.control, prob.grid)
        assert np.abs(traj.states[-1]).max() <= 1e-2

    def test_matched_target_zero_control(self, example1_system):
        T = 1.0
        a = np.array([1.0, 0.0])
        b = state_transition(example1_system.A, 0.5, T) @ a
        res = synthesize_rank_based(problem(example1_system, a, b, T, steps=128))
        assert np.abs(res.control.sample(np.linspace(0, T, 17))).max() == 0.0

    def test_rank_deficient_rejected(self):
        sys = FracSystem(np.eye(2), np.zeros((2, 1)), alpha=0.5)
        with pytest.raises(RankDeficient):
            synthesize_rank_based(problem(sys, [1.0, 0.0], [0.0, 0.0], 1.0, steps=64))

    @pytest.mark.parametrize("T", [1e300, 1e80, 1e-78, 1e-300])
    def test_density_normalization_overflow_refused(self, example1_system, T):
        # c = 1 / (T^(2g+1) B(g+1, g+1)) raised OverflowError (1e300, 1e80),
        # ZeroDivisionError (1e-300), or overflowed to inf and gave NaN
        # densities (1e-78, where the product is a subnormal)
        with pytest.raises(NonConvergence, match="shaping density normalization overflows"):
            synthesize_rank_based(problem(example1_system, [1.0, 0.0], [0.0, 0.0], T, steps=64))

    @pytest.mark.parametrize("alpha", [0.7, 0.9])
    def test_energy_overflow_refused(self, alpha):
        # every moment is finite for alpha > 1/2: the sampled energy's sum
        # overflowed with a warning and came back as inf
        sys = FracSystem([[0.0, 1.0], [0.0, 0.0]], 1e-300 * np.eye(2), alpha=alpha)
        with pytest.raises(NonConvergence, match="energy quadrature overflows"):
            synthesize_rank_based(problem(sys, [1.0, 0.0], [0.0, 0.0], 1.0, steps=64))

    def test_order_one_refused(self, scalar_system):
        with pytest.raises(InvalidOrder, match="requires alpha in"):
            synthesize_rank_based(problem(scalar_system(1.0), [0.0], [1.0], 1.0, steps=64))

    @pytest.mark.parametrize("grid, values, match", [
        (TimeGrid(0.0, 1.0, 32), np.ones(33), "problem grid"),
        (TimeGrid(0.0, 1.0, 64), np.zeros(65), "nonzero integral"),
    ])
    def test_bad_density_refused(self, example1_system, grid, values, match):
        prob = problem(example1_system, [1.0, 0.0], [0.0, 0.0], 1.0, steps=64)
        with pytest.raises(InvalidParams, match=match):
            synthesize_rank_based(prob, phi=GridFunction(grid, values))


class TestModifiedEnergy:
    def test_chain_optimal_value(self, example1_system):
        T = 2.0
        res = synthesize_min_energy(problem(example1_system, [1.0, 0.0], [0.0, 0.0], T))
        got = modified_energy(res.control, 0.5, T)
        assert got == pytest.approx(18.0 / T**2, rel=1e-6)

    def test_zero_control(self):
        grid = TimeGrid(0.0, 1.0, 64)
        u = SampledControl(GridFunction(grid, np.zeros((65, 1))))
        assert modified_energy(u, 0.5, 1.0) == 0.0

    def test_scalar_equals_pi(self, scalar_system):
        res = synthesize_min_energy(problem(scalar_system(0.5), [0.0], [1.0], 1.0))
        got = modified_energy(res.control, 0.5, 1.0)
        assert got == pytest.approx(np.pi, rel=1e-6)

    def test_divergent_for_nonvanishing_terminal_value(self):
        grid = TimeGrid(0.0, 1.0, 64)
        u = SampledControl(GridFunction(grid, np.ones((65, 1))))
        assert modified_energy(u, 0.5, 1.0) == np.inf

    def test_divergence_not_overflow_gives_inf(self):
        # at alpha 1/2 the moment of u(T) diverges, whatever the size of u;
        # at 0.7 every moment is finite, and |u|^2 = 1e400 overflows
        u = SampledControl(GridFunction(TimeGrid(0.0, 1.0, 64), np.full((65, 1), 1e200)))
        assert modified_energy(u, 0.5, 1.0) == np.inf
        with pytest.raises(NonConvergence, match="energy quadrature overflows"):
            modified_energy(u, 0.7, 1.0)

    @pytest.mark.parametrize("t0, t1", [(0.0, 0.5), (0.5, 1.0), (0.0, 1.0 - 1e-9)])
    def test_sampled_control_must_span_horizon(self, t0, t1):
        u = SampledControl(GridFunction(TimeGrid(t0, t1, 64), np.zeros((65, 1))))
        with pytest.raises(DomainError, match="must span"):
            modified_energy(u, 0.5, 1.0)

    @pytest.mark.parametrize("t0, t1, steps", [
        (0.0, 20.0, 128), (-1.0, 10.0, 64), (0.0, 10.0 * (1.0 - 1e-13), 64), (1e-13, 10.0, 64),
    ])
    def test_sampled_control_on_any_grid_simulate_reads(self, t0, t1, steps):
        # T = 10: simulate reads these grids within [0, T]; the energy of the
        # constant control is int_0^10 s^(2 alpha - 2) ds = 10^0.4 / 0.4
        u = SampledControl(GridFunction(TimeGrid(t0, t1, steps), np.ones((steps + 1, 1))))
        assert modified_energy(u, 0.7, 10.0) == pytest.approx(10.0**0.4 / 0.4, rel=1e-14)

    def test_sampled_energy_reads_only_the_horizon(self):
        # the nodes in [0, T] of a grid to 2T are those of the grid to T: the
        # same panels, bit for bit
        v = np.random.default_rng(3).uniform(-1.0, 1.0, (129, 2))
        v[64] = 0.0
        wide = SampledControl(GridFunction(TimeGrid(0.0, 20.0, 128), v))
        exact = SampledControl(GridFunction(TimeGrid(0.0, 10.0, 64), v[:65]))
        for alpha in (0.3, 0.7, 1.0):
            assert modified_energy(wide, alpha, 10.0) == modified_energy(exact, alpha, 10.0)

    def test_other_control_types_refused(self):
        with pytest.raises(InvalidParams, match="Ramp"):
            modified_energy(Ramp(), 0.5, 1.0)

    @pytest.mark.parametrize("B, synth", [([[0.0], [1.0]], synthesize_min_energy),
                                          (np.eye(2), synthesize_pinv)])
    @pytest.mark.parametrize("alpha, T", [(0.9, 1.0), (0.5, 2.0), (0.5, 0.5), (0.9, 2.0),
                                          (0.3, 1.0), (0.5, 1.0 + 1e-9)])
    def test_cusp_control_refused_at_another_order_or_horizon(self, B, synth, alpha, T):
        # the chain system's minimum energy is 18; read at alpha 0.9 it gave
        # 18.00000000005 (a sampled copy gives 7.888), at T = 2 it gave 121.41
        sys = FracSystem([[0.0, 1.0], [0.0, 0.0]], B, alpha=0.5)
        res = synth(problem(sys, [1.0, 0.0], [0.0, 0.0], 1.0, steps=64))
        want = re.escape("(alpha, T) = (0.5, 1.0) has no energy rule at "
                         f"(alpha, T) = ({alpha}, {T})")
        with pytest.raises(DomainError, match=want):
            modified_energy(res.control, alpha, T)
        # a horizon within 1e-12 relative is the control's own
        assert modified_energy(res.control, 0.5, 1.0 + 1e-13) == pytest.approx(res.energy, rel=1e-9)


class TestVerifySteering:
    def test_chain_system_certificate(self, example1_system):
        T = 10.0
        prob = problem(example1_system, [1.0, 0.0], [0.0, 0.0], T, steps=2048)
        res = synthesize_min_energy(prob)
        rep = verify_steering(prob, res)
        assert rep.terminal_error_abs <= 1e-4
        assert rep.energy_mismatch_rel <= 1e-6

    def test_matched_states_zero_report(self):
        sys = FracSystem(np.zeros((2, 2)), np.eye(2), alpha=0.5)
        a = np.array([0.4, -0.2])
        prob = problem(sys, a, a, 1.0, steps=128)
        rep = verify_steering(prob, synthesize_min_energy(prob))
        assert rep.terminal_error_abs <= 1e-14
        assert rep.energy_quadrature == 0.0
        assert rep.caputo_residual <= 1e-12

    def test_battery_terminal_error(self, battery):
        # criterion 5's battery at N = 2048: 2.25e-5 worst
        worst = 0.0
        for sys, a, b, T in battery:
            prob = problem(sys, a, b, T, steps=2048)
            rep = verify_steering(prob, synthesize_min_energy(prob))
            worst = max(worst, rep.terminal_error_rel)
        assert worst <= 5e-5

    def test_rotation_system_certificate(self, example2_system):
        T = 10.0
        prob = problem(example2_system, [0.0, 1.0], [0.0, 0.0], T, steps=4096)
        res = synthesize_min_energy(prob)
        rep = verify_steering(prob, res)
        assert rep.terminal_error_abs <= 1e-3


class TestEnergyReuse:
    """verify_steering reuses the energy of pinv synthesis, which is
    ``modified_energy`` of its control, where alpha and T are the control's
    own, and recomputes any other; the report is bitwise that of
    recomputing."""

    @staticmethod
    def count_energy(monkeypatch):
        calls = []
        energy = controlsyn.modified_energy
        monkeypatch.setattr(controlsyn, "modified_energy",
                            lambda *args: calls.append(args) or energy(*args))
        return calls

    @pytest.mark.parametrize("synth, alpha", [(synthesize_pinv, 0.6), (synthesize_rank_based, 0.6),
                                              (synthesize_rank_based, 0.5)])
    def test_report_equals_recomputing_path(self, monkeypatch, synth, alpha):
        # alpha = 1/2: the rank-based control does not vanish at T, so its
        # energy is inf and the mismatch inf on both paths
        sys = FracSystem([[-0.6, 2.5], [0.0, 0.4]], [[0.3, 0.0], [1.0, -0.8]], alpha=alpha)
        prob = problem(sys, [1.0, -0.5], [-0.2, 0.4], 2.0, steps=512)
        res = synth(prob)
        want = modified_energy(res.control, alpha, 2.0)
        calls = self.count_energy(monkeypatch)
        got = verify_steering(prob, res)
        assert len(calls) == (synth is synthesize_rank_based)
        assert np.float64(got.energy_quadrature).tobytes() == np.float64(want).tobytes()
        assert type(res.energy) is float and type(got.energy_quadrature) is float
        if alpha == 0.5:
            assert np.isinf(got.energy_reported) and np.isinf(got.energy_mismatch_rel)
        else:
            assert got.energy_mismatch_rel == 0.0

    def test_min_energy_recomputes(self, monkeypatch, example1_system):
        prob = problem(example1_system, [1.0, 0.0], [0.0, 0.0], 2.0, steps=512)
        res = synthesize_min_energy(prob)
        calls = self.count_energy(monkeypatch)
        verify_steering(prob, res)
        assert len(calls) == 1

    def test_zero_defect_reuses(self, monkeypatch, scalar_system):
        prob = problem(scalar_system(0.5), [0.5], [0.5], 1.0, steps=64)
        res = synthesize_pinv(prob)
        assert res.energy == 0.0 == modified_energy(res.control, 0.5, 1.0)
        calls = self.count_energy(monkeypatch)
        assert verify_steering(prob, res).energy_quadrature == 0.0
        assert calls == []

    @pytest.mark.parametrize("alpha, T", [(0.6, 0.5), (0.7, 1.0)])
    def test_pinv_elsewhere_refused(self, alpha, T):
        # a pinv result for (0.6, 1) has no energy rule at another alpha or T
        A, B = [[-0.6, 2.5], [0.0, 0.4]], [[0.3, 0.0], [1.0, -0.8]]
        res = synthesize_pinv(problem(FracSystem(A, B, alpha=0.6), [1.0, -0.5], [-0.2, 0.4],
                                      1.0, steps=256))
        prob = problem(FracSystem(A, B, alpha=alpha), [1.0, -0.5], [-0.2, 0.4], T, steps=256)
        with pytest.raises(DomainError, match="no energy rule"):
            verify_steering(prob, res)

    def test_rank_based_elsewhere_recomputes(self):
        # a rank-based control for T = 1 verified on [0, 0.5]: the energy is
        # that of the control over [0, 0.5], not the synthesized one
        sys = FracSystem([[-0.6, 2.5], [0.0, 0.4]], [[0.3, 0.0], [1.0, -0.8]], alpha=0.6)
        res = synthesize_rank_based(problem(sys, [1.0, -0.5], [-0.2, 0.4], 1.0, steps=256))
        got = verify_steering(problem(sys, [1.0, -0.5], [-0.2, 0.4], 0.5, steps=128), res)
        assert got.energy_quadrature == modified_energy(res.control, 0.6, 0.5)
        assert got.energy_mismatch_rel > 1e-3


class TestMinimality:
    def test_orthogonal_perturbation_increases_energy(self, example1_system):
        # u = ubar + v with v in the numerical terminal-constraint null space:
        # energies must be additive and u can never beat ubar
        sys = example1_system
        T, steps = 1.0, 4096
        grid = TimeGrid(0.0, T, steps)
        a, b = np.array([1.0, 0.0]), np.zeros(2)
        prob = SteeringProblem(sys, a, b, T, grid)
        res = synthesize_min_energy(prob)
        t = grid.nodes
        shapes = [np.sin(r * np.pi * t / T) * (T - t) ** 0.5 for r in range(1, 7)]
        Phi = np.zeros((2, len(shapes)))
        for j, chi in enumerate(shapes):
            u = SampledControl(GridFunction(grid, chi[:, None]))
            Phi[:, j] = simulate(sys, np.zeros(2), u, grid).states[-1]
        _, _, Vt = np.linalg.svd(Phi)
        coef = Vt[2:].T @ np.random.default_rng(5).standard_normal(len(shapes) - 2)
        v_vals = sum(c * chi for c, chi in zip(coef, shapes))
        ubar_vals = res.control.sample(t)[:, 0]
        u_ctrl = SampledControl(GridFunction(grid, (ubar_vals + v_vals)[:, None]))
        v_ctrl = SampledControl(GridFunction(grid, v_vals[:, None]))
        ubar_ctrl = SampledControl(GridFunction(grid, ubar_vals[:, None]))
        # perturbed control still steers
        traj = simulate(sys, a, u_ctrl, grid)
        assert np.abs(traj.states[-1] - b).max() <= 1e-3
        Eu = modified_energy(u_ctrl, 0.5, T)
        Ev = modified_energy(v_ctrl, 0.5, T)
        Eo = modified_energy(ubar_ctrl, 0.5, T)
        assert abs(Eu - Eo - Ev) <= 1e-4 * Eu
        assert Eu >= Eo


class TestExport:
    """The synthesis document the CLI writes and reads back."""

    @staticmethod
    def export(res, prob):
        doc = cli._synthesis_to_dict(res, verify_steering(prob, res), prob.sys, prob.T)
        return json.loads(json.dumps(doc))

    def test_min_energy_roundtrip(self, example1_system):
        T = 2.0
        prob = problem(example1_system, [1.0, 0.0], [0.0, 0.0], T, steps=256)
        res = synthesize_min_energy(prob)
        doc = self.export(res, prob)
        assert doc["method"] == "min-energy"
        assert doc["gramian"] is not None and len(doc["gramian"]) == 4
        rebuilt = cli._control_from_dict(doc)
        ts = np.linspace(0.0, T, 57)
        assert np.array_equal(rebuilt.sample(ts), res.control.sample(ts))

    def test_rank_based_roundtrip(self, example1_system):
        T = 1.0
        prob = problem(example1_system, [1.0, 0.0], [0.0, 0.0], T, steps=256)
        res = synthesize_rank_based(prob)
        rebuilt = cli._control_from_dict(self.export(res, prob))
        ts = np.linspace(0.0, T, 33)
        assert np.array_equal(rebuilt.sample(ts), res.control.sample(ts))

    def test_pinv_roundtrip_through_json(self):
        sys = FracSystem([[-0.6, 2.5], [0.0, 0.4]], [[0.3, 0.0], [1.0, -0.8]], alpha=0.6)
        T = 2.0
        prob = problem(sys, [1.0, -0.5], [-0.2, 0.4], T, steps=256)
        res = synthesize_pinv(prob)
        doc = self.export(res, prob)
        assert doc["method"] == "pinv" and doc["control"]["type"] == "pinv"
        assert len(doc["control_samples"]["t"]) == 201
        rebuilt = cli._control_from_dict(doc)
        assert isinstance(rebuilt, PinvControl)
        ts = np.linspace(0.0, T, 57)
        assert np.array_equal(rebuilt.sample(ts), res.control.sample(ts))
        assert np.array_equal(np.array(doc["control_samples"]["u"]),
                              res.control.sample(np.linspace(0.0, T, 201)))

    def test_unknown_control_type_refused(self, example1_system):
        T = 1.0
        prob = problem(example1_system, [1.0, 0.0], [0.0, 0.0], T, steps=64)
        doc = self.export(synthesize_min_energy(prob), prob)
        doc["control"]["type"] = "bang-bang"
        with pytest.raises(InvalidParams, match="unknown control type 'bang-bang'"):
            cli._control_from_dict(doc)
