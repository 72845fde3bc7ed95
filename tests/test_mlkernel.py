"""Mittag-Leffler kernel tests: series identities, closed forms, and the
frozen high-precision oracle values."""

import decimal
import functools
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import erfcx, gamma
from scipy.special import rgamma as scipy_rgamma

from fracctrl import (
    DEFAULT_POLICY,
    DomainError,
    InvalidParams,
    MLParams,
    NonConvergence,
    PinvControl,
    SeriesPolicy,
    SingularKernel,
    alpha_exp,
    cl_truncation,
    frac_cos,
    frac_sin,
    inverse_kernel,
    ml_matrix,
    ml_matrix_batch,
    ml_scalar,
    state_transition,
)
from fracctrl import mlkernel
from fracctrl.mlkernel import _checked_inverse, _kernel_inverse_batch, _ml_series, _rgamma

# frozen 50-digit oracle values (independent fixed-precision summation of the
# defining series; see tests/oracles.py to regenerate)
E_HALF_HALF_AT_MINUS_1 = 0.13660600739194928254
E_HALF_ONE_SKEW_C = 0.36787944117144232160   # E_{1/2,1}(A), A=[[0,1],[-1,0]]: I-coefficient
E_HALF_ONE_SKEW_D = 0.60715770584139372912   # same: A-coefficient
C2_AT_HALF = -0.13298076013381089265         # cl_truncation(2, 0.5)


def lag_first_series(A, alpha, beta, s, L, policy):
    """Reference for ``_ml_series``: the lag-first loop it replaced, kept
    verbatim (two full-array reductions per term)."""
    if (s < 0).any():
        raise DomainError("Mittag-Leffler kernels need lags s >= 0")
    out = np.zeros(s.shape + L.shape)
    term = np.empty_like(out)
    P = L
    spow = np.ones_like(s)
    sa = s**alpha
    ref = 0.0
    for k in range(policy.max_terms + 1):
        np.multiply.outer(spow * _rgamma(k * alpha + beta), P, out=term)
        tnorm = max(term.max(), -term.min())
        if not math.isfinite(tnorm):
            raise NonConvergence("Mittag-Leffler matrix series terms overflow")
        if ref > 0.0 and tnorm < policy.rel_tol * ref:
            return out
        out += term
        ref = max(out.max(), -out.min())
        P = P @ A
        if not P.any():
            return out
        spow = spow * sa
    raise NonConvergence(
        f"Mittag-Leffler matrix series: no convergence in {policy.max_terms} terms"
    )


def svd_first_inverse(E, rcond_threshold):
    """Reference for ``_checked_inverse``: the SVD-first check it replaced,
    kept verbatim."""
    sv = np.linalg.svd(E, compute_uv=False)
    rc = float((sv.min(axis=-1) / sv.max(axis=-1)).min())
    if not rc >= rcond_threshold:
        raise SingularKernel(
            f"Mittag-Leffler matrix ill-conditioned inside [0, T] (rcond~{rc:.2e})"
        )
    try:
        return np.linalg.inv(E)
    except np.linalg.LinAlgError as exc:
        raise SingularKernel("Mittag-Leffler matrix singular inside [0, T]") from exc


def assert_same_inverse_outcome(E, rcond_threshold):
    """``_checked_inverse`` returns the reference's array bitwise, or raises
    the same exception type with the same message; returns whether it refused."""
    with np.errstate(invalid="ignore"):  # 0/0 singular-value ratio of a zero matrix
        try:
            want = svd_first_inverse(E, rcond_threshold)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                _checked_inverse(E, rcond_threshold)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return True
        got = _checked_inverse(E, rcond_threshold)
    assert got.shape == want.shape and np.array_equal(got, want)
    return False


def svd_batch(rng, n, lags, ratio):
    """U diag(sigma) V^T with sigma_min / sigma_max = ratio, random scale."""
    U = np.linalg.qr(rng.standard_normal((lags, n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((lags, n, n)))[0]
    sigma = np.geomspace(1.0, ratio, n) * 10.0 ** rng.uniform(-3.0, 3.0, (lags, 1))
    return U @ (sigma[..., None] * np.swapaxes(V, -1, -2))


class TestParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParams):
            MLParams(0.0, 1.0)
        with pytest.raises(InvalidParams):
            MLParams(0.5, -0.1)

    @pytest.mark.parametrize("alpha, beta", [(np.inf, 1.0), (0.5, np.inf), (np.nan, 1.0)])
    def test_rejects_non_finite(self, alpha, beta):
        with pytest.raises(InvalidParams):
            MLParams(alpha, beta)

    @pytest.mark.parametrize("alpha, beta", [(-1.0, 1.0), (0.0, 1.0), (0.5, -1.0),
                                             (0.5, 0.0), (np.inf, 1.0), (0.5, np.nan)])
    def test_batch_rejects_bad_orders(self, alpha, beta):
        with pytest.raises(InvalidParams):
            ml_matrix_batch(np.eye(1), alpha, beta, [1.0])

    def test_policy_validation(self):
        with pytest.raises(InvalidParams):
            SeriesPolicy(rel_tol=1.5)
        with pytest.raises(InvalidParams):
            SeriesPolicy(max_terms=0)


class TestScalar:
    def test_exponential_point(self):
        assert ml_scalar(MLParams(1.0, 1.0), 1.0) == pytest.approx(np.e, rel=1e-14)

    def test_zero_argument_single_term(self):
        assert ml_scalar(MLParams(0.7, 0.7), 0.0) == pytest.approx(1.0 / gamma(0.7), rel=1e-15)

    def test_frozen_oracle_value(self):
        got = ml_scalar(MLParams(0.5, 0.5), -1.0)
        assert got == pytest.approx(E_HALF_HALF_AT_MINUS_1, rel=1e-13)

    def test_exp_identity_on_range(self):
        z = np.linspace(-5.0, 5.0, 81)
        vals = np.array([ml_scalar(MLParams(1.0, 1.0), zv) for zv in z])
        assert np.max(np.abs(vals / np.exp(z) - 1.0)) <= 1e-12

    @given(st.floats(0.2, 2.5), st.floats(0.2, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_value_at_zero_is_reciprocal_gamma(self, alpha, beta):
        assert ml_scalar(MLParams(alpha, beta), 0.0) == pytest.approx(
            1.0 / gamma(beta), rel=1e-14
        )

    def test_nonconvergence_beyond_desk_scale(self):
        with pytest.raises(NonConvergence):
            ml_scalar(MLParams(0.5, 0.5), -40.0, SeriesPolicy(max_terms=200))

    def test_erfcx_at_strong_cancellation(self):
        # E_{1/2,1}(-x) = erfcx(x); at x = 6.5 the terms peak near 1e18
        got = ml_scalar(MLParams(0.5, 1.0), -6.5)
        assert abs(got / erfcx(6.5) - 1.0) <= 1e-12

    def test_independent_of_callers_decimal_context(self):
        cases = [(MLParams(0.5, 1.0), -6.5), (MLParams(0.37, 1.91), 3.2),
                 (MLParams(1.0, 1.0), -10.0)]
        want = [ml_scalar(p, z) for p, z in cases]
        with decimal.localcontext(prec=6, rounding=decimal.ROUND_DOWN, Emax=10, Emin=-10):
            got = [ml_scalar(p, z) for p, z in cases]
        assert got == want

    def test_independent_of_default_context_at_import(self):
        # a DefaultContext changed before the import must not reach the series
        code = ("import decimal\n"
                "decimal.DefaultContext.prec = 6\n"
                "decimal.DefaultContext.traps[decimal.Inexact] = True\n"
                "from fracctrl import MLParams, ml_scalar\n"
                "print(ml_scalar(MLParams(0.5, 1.0), -6.5).hex())\n")
        env = {**os.environ, "PYTHONPATH": str(Path(mlkernel.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120, env=env)
        assert float.fromhex(out.stdout.strip()) == ml_scalar(MLParams(0.5, 1.0), -6.5)

    def test_at_least_34_digits(self):
        # the benchmark explains a scalar miss as cancellation only within
        # 10 cond 2^-104, so the series must carry more than 31 digits
        assert mlkernel._CTX.prec >= 34

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_refused(self, z):
        with pytest.raises(NonConvergence, match="series terms overflow"):
            ml_scalar(MLParams(0.5, 1.0), z)

    def test_overflow_refusal_near_x_eight(self):
        # E_{1/2,1}(-x) needs |x|^k beyond 1.3e300 before it stops near
        # x = 7.25; below that it converges
        assert ml_scalar(MLParams(0.5, 1.0), -7.2) == pytest.approx(erfcx(7.2), rel=1e-8)
        with pytest.raises(NonConvergence, match=r"E_\{0.5,1.0\}\(-7.35\): series terms overflow"):
            ml_scalar(MLParams(0.5, 1.0), -7.35)


class TestMatrix:
    def test_diagonal_exponential(self):
        got = ml_matrix(MLParams(1.0, 1.0), np.diag([1.0, 2.0]))
        assert np.allclose(got, np.diag([np.e, np.e**2]), rtol=1e-13)

    def test_nilpotent_truncates_exactly(self):
        # E_{1/2,1/2}(A sqrt(t)) for the chain matrix: [[1/G(1/2), sqrt(t)], [0, 1/G(1/2)]]
        t = 0.7
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        got = ml_matrix(MLParams(0.5, 0.5), A * np.sqrt(t))
        want = np.array([[1.0 / gamma(0.5), np.sqrt(t)], [0.0, 1.0 / gamma(0.5)]])
        assert np.allclose(got, want, rtol=1e-15, atol=1e-15)

    def test_zero_matrix_gives_identity(self):
        got = ml_matrix(MLParams(0.4, 1.0), np.zeros((3, 3)))
        assert np.array_equal(got, np.eye(3))

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0)])
    def test_batch_over_no_lags(self, shape):
        got = ml_matrix_batch(np.eye(2), 0.5, 1.0, np.zeros(shape))
        assert got.shape == shape + (2, 2)

    def test_diagonal_consistency_with_scalar(self):
        d = np.array([0.8, -1.3, 2.0])
        for params in (MLParams(0.5, 0.5), MLParams(0.7, 1.0)):
            got = ml_matrix(params, np.diag(d))
            want = np.diag([ml_scalar(params, z) for z in d])
            assert np.allclose(got, want, rtol=1e-13)


class TestSeriesPrimitive:
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("lags", ["single", "long", "2d"])
    @pytest.mark.parametrize("left", ["vector", "matrix"])
    def test_bitwise_equal_to_lag_first_loop(self, alpha, lags, left):
        rng = np.random.default_rng(int(alpha * 10) + 100 * len(lags) + len(left))
        s = {"single": np.array([0.8]), "long": np.linspace(0.0, 5.0, 8193),
             "2d": rng.uniform(0.0, 3.0, (40, 7))}[lags]
        for scale, beta in [(0.5, alpha), (2.0, alpha + 1.0), (1.0, 1.0)]:
            A = scale * rng.uniform(-1.0, 1.0, (3, 3))
            L = rng.uniform(-1.0, 1.0, (2, 3) if left == "matrix" else 3)
            got = _ml_series(A, alpha, beta, s, L, DEFAULT_POLICY)
            want = lag_first_series(A, alpha, beta, s, L, DEFAULT_POLICY)
            assert got.flags.c_contiguous and got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_stacked_sequences_equal_single_calls(self, alpha):
        # one pass over a stack shares L A^k and s^(k alpha); each sequence
        # stops by its own rule, so it equals its own call
        rng = np.random.default_rng(int(alpha * 10) + 7)
        moment = lambda k: _rgamma(k * alpha + alpha) / (k * alpha + 2.0 * alpha + 1.0)
        betas = [alpha + 2.0, alpha + 1.0, moment, 1.0]
        for s in (np.linspace(0.0, 5.0, 2049), np.array([0.8]), rng.uniform(0.0, 3.0, (40, 7))):
            for A in (rng.uniform(-1.0, 1.0, (3, 3)), np.triu(rng.uniform(-1.0, 1.0, (3, 3)), 1)):
                L = rng.uniform(-1.0, 1.0, (2, 3))
                got = _ml_series(A, alpha, betas, s, L, DEFAULT_POLICY)
                assert got.shape == (4,) + s.shape + L.shape
                for g, beta in zip(got, betas):
                    assert np.array_equal(g, _ml_series(A, alpha, beta, s, L, DEFAULT_POLICY))

    def test_nilpotent_early_exit_bitwise(self):
        A = np.triu(np.random.default_rng(5).uniform(-1.0, 1.0, (4, 4)), 1)
        s = np.linspace(0.0, 10.0, 1025)
        for L in (np.eye(4), np.ones(4)):
            assert np.array_equal(_ml_series(A, 0.5, 1.5, s, L, DEFAULT_POLICY),
                                  lag_first_series(A, 0.5, 1.5, s, L, DEFAULT_POLICY))

    @pytest.mark.parametrize("A, policy", [
        (50.0 * np.eye(2), DEFAULT_POLICY),
        (3.0 * np.eye(2), SeriesPolicy(max_terms=20)),
    ])
    def test_failures_match_lag_first_loop(self, A, policy):
        s = np.linspace(0.0, 10.0, 101)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonConvergence) as want:
                lag_first_series(A, 0.5, 1.0, s, np.eye(2), policy)
            with pytest.raises(NonConvergence) as got:
                _ml_series(A, 0.5, 1.0, s, np.eye(2), policy)
        assert str(got.value) == str(want.value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("A, s", [([[-10.0]], [1.0]), ([[1.0]], [1e200])])
    def test_overflowing_step_refused_without_warning(self, A, s):
        # the step ahead (L A^k, then s^(k alpha)) overflows before the terms
        # fall; the next term's norm refuses it, and numpy stays silent
        with pytest.raises(NonConvergence) as got:
            _ml_series(np.array(A), 0.5, 1.0, np.array(s), np.eye(1), DEFAULT_POLICY)
        assert str(got.value) == "Mittag-Leffler matrix series terms overflow"


class TestRgammaFloat:
    def test_matches_scipy(self):
        x = np.concatenate([np.geomspace(1e-300, 1.0, 2001), np.linspace(1e-3, 171.6, 20001)])
        got, want = _rgamma(x), scipy_rgamma(x)
        assert (np.abs(got - want) <= 2e-15 * np.abs(want)).all()

    def test_zero_where_gamma_overflows(self):
        x = np.array([171.62, 171.624, 171.6243769563027, 171.625, 180.0, 1e300, np.inf])
        assert np.array_equal(_rgamma(x) == 0.0, scipy_rgamma(x) == 0.0)


class TestRgammaTable:
    def test_concurrent_growth_matches_single_thread(self, monkeypatch):
        key = (0.613, 1.287)
        z = -3.0
        raw = mlkernel._rgamma_chunk.__wrapped__

        def fresh_cache():
            cache = functools.lru_cache(maxsize=4096)(raw)
            monkeypatch.setattr(mlkernel, "_rgamma_chunk", cache)
            return cache

        fresh_cache()
        want = ml_scalar(MLParams(*key), z)
        cache = fresh_cache()
        results = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            results.append(ml_scalar(MLParams(*key), z))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert results == [want] * 4
        chunks = cache.cache_info().currsize
        assert chunks >= 2
        assert all(cache(*key, j) == raw(*key, j) for j in range(chunks))

    def test_key_count_bounded_and_rebuilt_bitwise(self, monkeypatch):
        assert mlkernel._rgamma_chunk.cache_info().maxsize == 4096
        # a smaller cache of the same function, so 300 keys overflow it
        cache = functools.lru_cache(maxsize=256)(mlkernel._rgamma_chunk.__wrapped__)
        monkeypatch.setattr(mlkernel, "_rgamma_chunk", cache)
        key = (0.371, 1.229)
        want = ml_scalar(MLParams(*key), -2.0)
        chunk = cache(*key, 0)
        for k in range(300):
            cache(0.5, 1.0 + k / 1024.0, 0)
        info = cache.cache_info()
        assert info.currsize <= info.maxsize == 256
        assert ml_scalar(MLParams(*key), -2.0) == want
        assert cache.cache_info().misses > info.misses  # evicted and recomputed
        assert cache(*key, 0) == chunk

    def test_concurrent_eviction_mid_series(self, monkeypatch):
        # one chunk kept for three keys: every chunk a series reads may have
        # been evicted by another thread and is computed again
        keys = [(0.611, 1.0 + j / 7.0) for j in range(3)]
        want = {key: ml_scalar(MLParams(*key), -2.5) for key in keys}
        monkeypatch.setattr(mlkernel, "_rgamma_chunk",
                            functools.lru_cache(maxsize=1)(mlkernel._rgamma_chunk.__wrapped__))
        results, errors = [], []
        barrier = threading.Barrier(4)

        def worker(i):
            barrier.wait()
            try:
                for r in range(6):
                    key = keys[(i + r) % 3]
                    results.append((key, ml_scalar(MLParams(*key), -2.5)))
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert errors == [] and len(results) == 24
        assert all(val == want[key] for key, val in results)
        assert mlkernel._rgamma_chunk.cache_info().currsize <= 1


class TestCheckedInverse:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_well_conditioned_batches_bitwise(self, n):
        rng = np.random.default_rng(40 + n)
        for lags in (1, 7, 16385):
            E = np.eye(n) + 0.3 * rng.standard_normal((lags, n, n))
            assert not assert_same_inverse_outcome(E, 1e-12)
        for alpha in (0.3, 0.7, 1.0):
            A = rng.uniform(-1.0, 1.0, (n, n))
            E = mlkernel.ml_matrix_batch(A, alpha, alpha, np.linspace(0.0, 2.0, 16385))
            assert not assert_same_inverse_outcome(E, 1e-12)

    @pytest.mark.parametrize("thr, factor", [
        (thr, factor) for thr in (1e-12, 1e-6, 0.5)
        for factor in (0.5, 0.99, 1.01, 1.9, 2.1, 4.0)
        if thr * factor <= 1.0  # a singular-value ratio cannot exceed 1
    ])
    def test_singular_value_ratio_near_threshold(self, thr, factor):
        rng = np.random.default_rng(int(factor * 100) + int(-np.log10(thr)))
        for n in (2, 3, 4):
            E = svd_batch(rng, n, 64, thr * factor)
            mixed = np.concatenate([svd_batch(rng, n, 63, min(1.0, 4.0 * thr)), E[:1]])
            refused = assert_same_inverse_outcome(E, thr)
            assert assert_same_inverse_outcome(mixed, thr) == refused
            if factor <= 0.5 or factor >= 1.9:  # well clear of rounding in the ratio
                assert refused == (factor < 1.0)

    @pytest.mark.parametrize("thr", [1e-12, 0.0])
    def test_singular_and_zero_matrices_in_batch(self, thr):
        rng = np.random.default_rng(7)
        good = np.eye(2) + 0.1 * rng.standard_normal((9, 2, 2))
        for bad in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((2, 2))):
            E = np.concatenate([good[:4], bad[None], good[4:]])
            assert assert_same_inverse_outcome(E, thr)

    def test_tiny_threshold(self):
        rng = np.random.default_rng(17)
        for ratio in (1e-3, 1e-10, 1e-14, 1e-16):
            for n in (2, 4):
                assert_same_inverse_outcome(svd_batch(rng, n, 32, ratio), 1e-17)

    def test_well_conditioned_kernel_needs_no_svd(self, monkeypatch):
        A = np.array([[0.3, -0.2, 0.1], [0.4, 0.1, -0.5], [0.0, 0.2, -0.3]])
        s = np.linspace(0.0, 3.0, 16385)
        want = np.linalg.inv(mlkernel.ml_matrix_batch(A, 0.6, 0.6, s))

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD computed for a certified batch")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        got = _kernel_inverse_batch(A, 0.6, s, DEFAULT_POLICY, 1e-12)
        assert np.array_equal(got, want)


class TestAlphaExp:
    def test_chain_matrix_closed_form(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        got = alpha_exp(A, 0.5, 4.0)
        want = np.array([[1.0 / np.sqrt(4.0 * np.pi), 1.0],
                         [0.0, 1.0 / np.sqrt(4.0 * np.pi)]])
        assert np.allclose(got, want, rtol=1e-14)

    def test_scalar_zero_matrix(self):
        got = alpha_exp(np.zeros((1, 1)), 0.5, 1.0)
        assert got[0, 0] == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-14)

    def test_order_one_is_matrix_exponential(self):
        A = np.array([[0.1, -0.6], [0.7, 0.2]])
        assert np.allclose(alpha_exp(A, 1.0, 2.0), expm(2.0 * A), rtol=1e-12)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            alpha_exp(np.eye(2), 0.5, 0.0)
        assert np.array_equal(alpha_exp(np.eye(2), 1.0, 0.0), np.eye(2))

    def test_semigroup_property_fails_for_fractional_order(self):
        # classical exp identities must NOT carry over at alpha = 1/2
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0, 0.0], [1.0, 0.0]])
        t = 1.0
        lhs = alpha_exp(A, 0.5, t) @ alpha_exp(B, 0.5, t)
        rhs = alpha_exp(A + B, 0.5, t)
        assert np.abs(lhs - rhs).max() > 1e-6


class TestStateTransition:
    def test_chain_matrix_closed_form(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        for t in (0.3, 1.0, 4.0):
            got = state_transition(A, 0.5, t)
            want = np.array([[1.0, 2.0 * np.sqrt(t) / np.sqrt(np.pi)], [0.0, 1.0]])
            assert np.allclose(got, want, rtol=1e-14)

    def test_identity_at_zero(self):
        A = np.array([[0.3, -0.2], [0.4, 0.1]])
        assert np.array_equal(state_transition(A, 0.7, 0.0), np.eye(2))

    def test_skew_matrix_frozen_oracle(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        got = state_transition(A, 0.5, 1.0)
        want = np.array([[E_HALF_ONE_SKEW_C, E_HALF_ONE_SKEW_D],
                         [-E_HALF_ONE_SKEW_D, E_HALF_ONE_SKEW_C]])
        assert np.allclose(got, want, rtol=1e-13)


class TestFracTrig:
    def test_sin_half_is_decaying_exponential(self):
        for t in np.geomspace(0.1, 10.0, 25):
            assert frac_sin(0.5, t) == pytest.approx(np.exp(-t), rel=1e-10)

    def test_cos_half_small_t_expansion(self):
        # cos_{1/2}(t) * sqrt(pi t) = 1 - 2t + O(t^2)
        for t in (1e-3, 1e-4):
            lead = frac_cos(0.5, t) * np.sqrt(np.pi * t)
            assert abs(lead - (1.0 - 2.0 * t)) < 4.0 * t**2

    def test_order_one_reduces_to_trig(self):
        for t in (0.5, 1.0, 2.0):
            assert frac_sin(1.0, t) == pytest.approx(np.sin(t), rel=1e-12)
            assert frac_cos(1.0, t) == pytest.approx(np.cos(t), rel=1e-12)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            frac_sin(0.5, 0.0)
        with pytest.raises(DomainError):
            frac_cos(0.5, -1.0)


class TestClTruncation:
    def test_first_truncation(self):
        for t in (0.1, 0.5, 2.0):
            want = (1.0 - 2.0 * t) / np.sqrt(np.pi * t)
            assert cl_truncation(1, t) == pytest.approx(want, rel=1e-14)

    def test_frozen_oracle_L2(self):
        assert cl_truncation(2, 0.5) == pytest.approx(C2_AT_HALF, rel=1e-14)

    def test_small_t_divergence(self):
        t = 1e-10
        assert cl_truncation(1, t) == pytest.approx(1.0 / np.sqrt(np.pi * t), rel=1e-6)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            cl_truncation(1, 0.0)
        with pytest.raises(DomainError):
            cl_truncation(0, 1.0)


class TestInverseKernel:
    def test_scalar_closed_form(self):
        for alpha in (0.3, 0.5, 0.9):
            for t in (0.5, 2.0):
                got = inverse_kernel(np.zeros((1, 1)), alpha, t)
                assert got[0, 0] == pytest.approx(t ** (1 - alpha) * gamma(alpha), rel=1e-13)

    def test_order_one_is_negative_exponential(self):
        A = np.array([[0.2, -0.5], [0.3, 0.1]])
        assert np.allclose(inverse_kernel(A, 1.0, 1.5), expm(-1.5 * A), rtol=1e-12)

    def test_chain_matrix_closed_form(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        t = 1.0
        E = np.array([[1.0 / gamma(0.5), np.sqrt(t)], [0.0, 1.0 / gamma(0.5)]])
        want = t**0.5 * np.linalg.inv(E)
        assert np.allclose(inverse_kernel(A, 0.5, t), want, rtol=1e-13)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_left_inverse_identity(self, alpha):
        mats = [
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[0.0, 1.0], [-1.0, 0.0]]),
            np.array([[0.3, -0.2, 0.1], [0.4, 0.1, -0.5], [0.0, 0.2, -0.3]]),
        ]
        for A in mats:
            for t in (0.5, 1.0, 3.0):
                g = inverse_kernel(A, alpha, t)
                err = np.abs(alpha_exp(A, alpha, t) @ g - np.eye(A.shape[0])).max()
                assert err <= 1e-10

    def test_threshold_raises(self):
        # the chain matrix's E_{1/2,1/2}(A) has singular-value ratio 0.2025
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SingularKernel):
            inverse_kernel(A, 0.5, 1.0, rcond_threshold=0.5)
        assert np.isfinite(inverse_kernel(A, 0.5, 1.0, rcond_threshold=0.1)).all()

    def test_same_rule_as_pinv_control(self):
        # the rotation's kernel is a scaled rotation, ratio 1: the one-lag
        # inverse and the pinv control both accept it at threshold 0.9
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        g = inverse_kernel(A, 0.5, 1.0, rcond_threshold=0.9)
        u = PinvControl(A, np.eye(2), 0.5, 1.0, np.array([1.0, 0.0]), rcond_threshold=0.9)
        assert np.allclose(u.sample(np.array([0.0]))[0], g[:, 0], rtol=1e-14)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            inverse_kernel(np.eye(2), 0.5, 0.0)
