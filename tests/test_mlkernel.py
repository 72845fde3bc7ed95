"""Mittag-Leffler kernel tests: series identities, closed forms, and the
frozen high-precision oracle values."""

import collections
import decimal
import functools
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import mpmath as mp
import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import erfcx, gamma
from scipy.special import rgamma as scipy_rgamma

from fracctrl import (
    DEFAULT_POLICY,
    DomainError,
    FracSystem,
    InvalidParams,
    MLParams,
    NonConvergence,
    PinvControl,
    SeriesPolicy,
    SingularKernel,
    SteeringProblem,
    TimeGrid,
    alpha_exp,
    cl_truncation,
    frac_cos,
    frac_sin,
    ml_matrix,
    ml_matrix_batch,
    ml_scalar,
    state_transition,
)
from fracctrl import mlkernel
from fracctrl.cli import _ML_PRINT_POLICY
from fracctrl.mlkernel import _checked_inverse, _ml_series, _rgamma

from conftest import inverse_kernel

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


def abs_term_sum(A, alpha, beta, s, L, K):
    """sum_{k <= K} |term_k| entrywise, the terms formed as ``lag_first_series``
    forms them."""
    total = np.zeros(s.shape + L.shape)
    P, spow, sa = L, np.ones_like(s), s**alpha
    for k in range(K + 1):
        total += np.abs(np.multiply.outer(spow * _rgamma(k * alpha + beta), P))
        P, spow = P @ A, spow * sa
    return total


def assert_same_series_outcome(A, alpha, beta, s, L, policy):
    """``_ml_series`` raises ``lag_first_series``'s exception type with the
    same message, or stops at the same step K, with every entry within
    (K + 2) 2^-53 sum_{k <= K} |term_k| of the reference: the bound of
    recursive summation in any order (Higham, *Accuracy and Stability of
    Numerical Algorithms*, section 4.2), since the series sums in blocks.
    Returns the refusal's type or None.  Only the reference runs with
    numpy's overflow warnings off: the series itself must stay silent."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            want = lag_first_series(A, alpha, beta, s, L, policy)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            _ml_series(A, alpha, beta, s, L, policy)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return type(exc)
    got = _ml_series(A, alpha, beta, s, L, policy)
    assert got.shape == want.shape and got.flags.c_contiguous
    # K is the least max_terms that each loop needs
    K = stop_step(A, alpha, beta, s, L, policy.rel_tol)
    with np.errstate(over="ignore", invalid="ignore"):
        lag_first_series(A, alpha, beta, s, L, SeriesPolicy(policy.rel_tol, K))
        if K > 1:
            with pytest.raises(NonConvergence):
                lag_first_series(A, alpha, beta, s, L, SeriesPolicy(policy.rel_tol, K - 1))
    bound = (K + 2) * 2.0**-53 * abs_term_sum(A, alpha, beta, s, L, K)
    assert (np.abs(got - want) <= bound).all()
    return None


def stop_step(A, alpha, beta, s, L, rel_tol):
    """The step at which ``_ml_series`` stops: the least ``max_terms`` it
    needs, by bisection (a call that stops within m terms stops within m + 1)."""
    lo, hi = 0, 500
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _ml_series(A, alpha, beta, s, L, SeriesPolicy(rel_tol, mid))
        except NonConvergence:
            lo = mid
        else:
            hi = mid
    return hi


def pointwise_stop_scalar(params, z, policy):
    """Reference for ``ml_scalar``: the loop it replaced, kept verbatim (a
    cached-row lookup and two float conversions per term)."""
    z = float(z)
    alpha, beta = params.alpha, params.beta
    if not math.isfinite(z):
        raise NonConvergence(f"E_{{{alpha},{beta}}}({z}): series terms overflow")
    c = mlkernel._CTX
    zd = mlkernel._D(z)
    total = mlkernel._rgamma_chunk(alpha, beta, 0)[0]
    zk = mlkernel._D(1)
    for k in range(1, policy.max_terms + 1):
        zk = c.multiply(zk, zd)
        if zk.copy_abs() > mlkernel._ZK_MAX:
            raise NonConvergence(f"E_{{{alpha},{beta}}}({z}): series terms overflow")
        term = c.multiply(zk, mlkernel._rgamma_chunk(alpha, beta, k // 16)[k % 16])
        ref = abs(float(total))
        mag = abs(float(term))
        if (ref > 0.0 and mag < policy.rel_tol * ref) or (ref == 0.0 and mag < policy.rel_tol):
            return float(total)
        total = c.add(total, term)
    raise NonConvergence(
        f"E_{{{alpha},{beta}}}({z}): no convergence in {policy.max_terms} terms")


def stirling_rgamma_reference(x):
    """Reference for ``_rgamma_dec``: the routine before its 44-digit
    logarithm, kept verbatim (``_CTX.ln`` and a method lookup per step)."""
    c = mlkernel._CTX
    _D = mlkernel._D
    shift = _D(1)
    while x < 30:
        shift = c.multiply(shift, x)
        x = c.add(x, 1)
    lg = c.add(c.subtract(c.multiply(c.subtract(x, _D("0.5")), c.ln(x)), x), mlkernel._HALF_LN_2PI)
    x2 = c.multiply(x, x)
    xp = x
    for coef in mlkernel._STIRLING:
        lg = c.add(lg, c.divide(coef, xp))
        xp = c.multiply(xp, x2)
    return c.multiply(shift, c.exp(c.minus(lg)))


def assert_same_scalar_outcome(params, z, policy):
    """``ml_scalar`` returns the reference's float bitwise, or raises the
    same exception type with the same message; returns the refusal's type
    or None."""
    try:
        want = pointwise_stop_scalar(params, z, policy)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            ml_scalar(params, z, policy)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return type(exc)
    got = ml_scalar(params, z, policy)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (params, z, policy)
    return None


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

    @pytest.mark.parametrize("call", [
        lambda: FracSystem(np.array([[1j]]), [1.0]),
        lambda: FracSystem(np.eye(1), np.array([[1.0 + 0j]])),
        lambda: ml_matrix(MLParams(0.5, 1.0), [[1j]]),
        lambda: ml_matrix_batch(np.eye(1), 0.5, 1.0, np.array([1 + 0j])),
        lambda: SteeringProblem(FracSystem(np.eye(1), [[1.0]]), np.array([1j]), [0.0], 1.0,
                                TimeGrid(0.0, 1.0, 8)),
    ], ids=["system-A", "system-B", "matrix", "batch-lags", "steering-a"])
    def test_complex_input_refused(self, call):
        # a cast to float would keep only the real part, with a ComplexWarning
        with pytest.raises(InvalidParams, match="must be real"):
            call()

    def test_policy_validation(self):
        with pytest.raises(InvalidParams):
            SeriesPolicy(rel_tol=1.5)
        with pytest.raises(InvalidParams):
            SeriesPolicy(max_terms=0)
        for bad in (40.5, 40.0, True, "40", None):
            with pytest.raises(InvalidParams, match="max_terms must be an integer"):
                SeriesPolicy(max_terms=bad)
        policy = SeriesPolicy(max_terms=np.int64(40))
        assert type(policy.max_terms) is int and policy == SeriesPolicy(max_terms=40)


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

    def test_nonconvergence_within_max_terms(self):
        # terms of E_{1/2,1}(-5) are still near 1e3 after 5 of them
        with pytest.raises(NonConvergence, match="no convergence in 5 terms"):
            ml_scalar(MLParams(0.5, 1.0), -5.0, SeriesPolicy(max_terms=5))

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

    def test_bitwise_equal_to_pointwise_stop_loop(self):
        # seeded battery over orders, arguments (with the edges: signed zeros,
        # +-1e-300, the overflow refusal at -7.35, the budget refusal at 5e3,
        # the exact zero sum of E_{1,1}(-1), and |z|^k reaching 1e300 below
        # the overflow bound, then passing it) and policies down to rel_tol =
        # 1e-300 and up to 0.75, with 2 rel_tol at decimal exponents -15 and -14
        policies = [DEFAULT_POLICY, _ML_PRINT_POLICY, SeriesPolicy(max_terms=5),
                    SeriesPolicy(rel_tol=1e-300), SeriesPolicy(rel_tol=0.5),
                    SeriesPolicy(rel_tol=4e-15), SeriesPolicy(rel_tol=6e-15),
                    SeriesPolicy(rel_tol=0.75)]
        edges = [0.0, -0.0, 1e-300, -1e-300, -1.0, -6.5, -7.2, -7.35, 5e3,
                 1.07e75, -1.08e75, 1.1e100, 1e150, -1.157e150, 1.158e150, -1.3e300, 1.34e300]
        rng = np.random.default_rng(2015)
        outcomes = []
        for alpha in (0.3, 0.5, 0.7, 0.9, 1.0, 1.7, 2.5):
            zmax = min(8.0, 20.0**alpha)
            for beta in rng.uniform(0.2, 3.0, 2).tolist():
                params = MLParams(alpha, beta)
                zs = edges + rng.uniform(-zmax, zmax, 22).tolist()
                outcomes += [assert_same_scalar_outcome(params, z, policy)
                             for policy in policies for z in zs]
            # beta = 1, and beta >= 171.6, where 1/Gamma(beta) is a subnormal
            # double (171.7) or rounds to 0.0 (180)
            for beta in (1.0, 171.7, 180.0):
                zs = edges + np.linspace(-zmax, zmax, 9).tolist()
                outcomes += [assert_same_scalar_outcome(MLParams(alpha, beta), z, policy)
                             for policy in policies for z in zs]
        assert len(outcomes) >= 2000
        assert outcomes.count(None) >= 1000 and outcomes.count(NonConvergence) >= 100

    @pytest.mark.parametrize("alpha, beta, z", [(0.3, 1.3, -2.5), (0.5, 1.0, -6.5),
                                                (0.9, 0.9, 5.0), (1.0, 1.0, -10.0)])
    def test_warm_term_costs_two_multiplies_and_one_add(self, alpha, beta, z, monkeypatch):
        # a term takes zk z, zk c_k and its add, also where the exponent
        # certificate fails and the float test decides.  The stopping term
        # is not added.
        params = MLParams(alpha, beta)
        want = ml_scalar(params, z)  # builds the key's rows outside the count
        counts = collections.Counter()
        monkeypatch.setattr(mlkernel, "_CTX", op_counting_context(counts))
        assert ml_scalar(params, z) == want
        terms = counts["add"] + 1
        assert terms >= 20 and set(counts) == {"multiply", "add"}
        assert counts["multiply"] == 2 * terms

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

    @pytest.mark.parametrize("s", [[-1e-300], [0.0, 1.0, -0.5]])
    def test_batch_negative_lag_refused(self, s):
        with pytest.raises(DomainError, match="lags s >= 0"):
            ml_matrix_batch(np.eye(2), 0.5, 1.0, np.array(s))

    @pytest.mark.parametrize("s", [[np.nan], [0.5, np.nan, 1.0], [[0.5], [np.nan]]])
    def test_batch_nan_lag_refused(self, s):
        # NaN is not >= 0: a domain error, not a series overflow
        with pytest.raises(DomainError, match="lags s >= 0"):
            ml_matrix_batch(np.eye(2) * 0.5, 0.5, 1.0, np.array(s))

    def test_batch_infinite_lag_overflows(self):
        with pytest.raises(NonConvergence, match="terms overflow"):
            ml_matrix_batch(np.eye(2) * 0.5, 0.5, 1.0, np.array([1.0, np.inf]))

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
            assert assert_same_series_outcome(A, alpha, beta, s, L, DEFAULT_POLICY) is None

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
            assert assert_same_series_outcome(A, 0.5, 1.5, s, L, DEFAULT_POLICY) is None

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

    # The series sums its terms in blocks of 16 steps, one BLAS product per
    # block and sequence; the cases below put every edge of that schedule
    # against the reference loop: wide lag sets, stops and refusals inside a
    # block, a nilpotent break after a block, stacked sequences and lag shapes.

    @pytest.mark.parametrize("n, left, lags", [
        (3, "vector", 1000),
        (4, "eye", 8192),
        (8, "eye", 8193),
        (3, "vector", 50001),
    ], ids=["J3-one", "J16-two", "J64-ragged", "J3-ragged"])
    def test_lag_chunks_bitwise(self, n, left, lags):
        rng = np.random.default_rng(lags + n)
        A = rng.uniform(-1.0, 1.0, (n, n)) / np.sqrt(n)
        L = np.eye(n) if left == "eye" else rng.uniform(-1.0, 1.0, n)
        s = np.linspace(0.0, 2.0, lags)
        assert assert_same_series_outcome(A, 0.7, 0.7, s, L, DEFAULT_POLICY) is None

    def test_stops_and_budget_refusals_inside_a_block(self):
        # every max_terms short of the stop refuses with the reference's
        # message, at each position in a block; the stops themselves fall
        # inside blocks
        rng = np.random.default_rng(16)
        A = rng.uniform(-1.0, 1.0, (3, 3))
        L = rng.uniform(-1.0, 1.0, (2, 3))
        s = np.linspace(0.0, 3.0, 300)
        stops = []
        for rel_tol in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15):
            stop = stop_step(A, 0.6, 1.0, s, L, rel_tol)
            stops.append(stop)
            for m in range(1, stop + 2):
                refusal = assert_same_series_outcome(A, 0.6, 1.0, s, L, SeriesPolicy(rel_tol, m))
                assert refusal is (NonConvergence if m < stop else None)
        assert len(set(stops)) == 5 and len({k % 16 for k in stops} - {0}) >= 3

    def test_stacked_sequences_stop_apart_over_chunks(self):
        # four sequences, numbers and coefficient functions, over 10929 lags;
        # each stops at its own step and equals its own call
        alpha = 0.6
        moment = lambda k: _rgamma(k * alpha + alpha) / (k * alpha + 2.0 * alpha + 1.0)
        betas = [alpha + 2.0, moment, 1.0, alpha]
        rng = np.random.default_rng(4)
        A = rng.uniform(-1.0, 1.0, (3, 3))
        L = rng.uniform(-1.0, 1.0, (2, 3))
        s = np.linspace(0.0, 2.5, 10929)
        got = _ml_series(A, alpha, betas, s, L, DEFAULT_POLICY)
        for g, beta in zip(got, betas):
            assert g.tobytes() == _ml_series(A, alpha, beta, s, L, DEFAULT_POLICY).tobytes()
            if not callable(beta):
                assert assert_same_series_outcome(A, alpha, beta, s, L, DEFAULT_POLICY) is None
        stops = [stop_step(A, alpha, beta, s, L, DEFAULT_POLICY.rel_tol) for beta in betas]
        assert len(set(stops)) >= 3

    @pytest.mark.parametrize("n", [4, 20])
    def test_nilpotent_break_inside_a_block(self, n):
        # L A^k vanishes at k = n, inside the first block or the second;
        # a tiny rel_tol keeps the stop rule from firing first
        rng = np.random.default_rng(n)
        A = np.diag(rng.uniform(0.5, 1.5, n - 1), 1)
        s = np.linspace(0.0, 4.0, 1025)
        policy = SeriesPolicy(rel_tol=1e-300)
        for L in (np.eye(n), rng.uniform(-1.0, 1.0, n)):
            assert assert_same_series_outcome(A, 0.5, 1.5, s, L, policy) is None

    @pytest.mark.parametrize("A, lags, policy, message", [
        (50.0 * np.eye(3), 50000, DEFAULT_POLICY, "terms overflow"),
        (np.diag([3.0, -2.0, 1.0]), 50000, SeriesPolicy(max_terms=21), "no convergence in 21 terms"),
        (35.0 * np.eye(3), 2049, DEFAULT_POLICY, "terms overflow"),
    ], ids=["overflow-chunks", "budget-chunks", "overflow-one-chunk"])
    def test_refusals_inside_a_block(self, A, lags, policy, message):
        # the refusals come at steps 182, 21 and 200: positions 6, 5 and 8
        # of a 16-step block, with terms pending
        s = np.linspace(0.0, 10.0, lags)
        L = np.arange(1.0, 4.0)
        assert assert_same_series_outcome(A, 0.5, 1.0, s, L, policy) is NonConvergence
        with pytest.raises(NonConvergence, match=message):
            _ml_series(A, 0.5, [1.0, 0.5], s, L, policy)

    @pytest.mark.parametrize("shape", [(0,), (1,), (40, 7), (0, 3)])
    def test_lag_shapes_stacked_and_single(self, shape):
        rng = np.random.default_rng(sum(shape))
        A = rng.uniform(-1.0, 1.0, (3, 3))
        L = rng.uniform(-1.0, 1.0, (2, 3))
        s = rng.uniform(0.0, 3.0, shape)
        got = _ml_series(A, 0.8, [1.8, 0.8], s, L, DEFAULT_POLICY)
        assert got.shape == (2,) + shape + (2, 3) and got.flags.c_contiguous
        for g, beta in zip(got, (1.8, 0.8)):
            assert g.tobytes() == _ml_series(A, 0.8, beta, s, L, DEFAULT_POLICY).tobytes()
            if s.size:
                assert assert_same_series_outcome(A, 0.8, beta, s, L, DEFAULT_POLICY) is None
            else:
                assert not g.any()


class TestSeriesAccuracy:
    """The matrix series against the mpmath sums of ``tests/oracles.py``,
    within the benchmark's cancellation rule: per lag, max|E - ref| <=
    10 cond 2^-52 max|ref|, where cond is the sum of the term max-norms over
    max|ref|."""

    LAGS = np.array([0.05, 0.4, 1.3, 2.7, 5.0])

    @staticmethod
    def assert_within_rule(E, ref, absum):
        scale = np.abs(ref).max(axis=(-2, -1))
        err = np.abs(E - ref).max(axis=(-2, -1))
        assert (err <= 10.0 * (absum / scale) * 2.0**-52 * scale).all(), err / (absum * 2.0**-52)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("beta", ["alpha", "1", "alpha+1"])
    def test_diagonal_against_mpmath(self, alpha, beta):
        beta = {"alpha": alpha, "1": 1.0, "alpha+1": alpha + 1.0}[beta]
        lam = [-1.5, -0.4, 0.8]
        a, b, terms = mp.mpf(alpha), mp.mpf(beta), int(90 / alpha)
        z = [[mp.mpf(lam_i) * mp.mpf(s) ** a for lam_i in lam] for s in self.LAGS]
        ref = np.array([np.diag([float(oracles.ml_series(a, b, zi, terms)) for zi in row]) for row in z])
        # the terms' max-norms are those of the series at |lambda|max = 1.5
        absum = np.array([float(oracles.ml_series(a, b, -row[0], terms)) for row in z])
        self.assert_within_rule(ml_matrix_batch(np.diag(lam), alpha, beta, self.LAGS), ref, absum)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
    def test_rotation_against_mpmath(self, alpha):
        # E_{alpha,1}(A t^alpha) = c I + d A for A = [[0, 1], [-1, 0]]; A^k has
        # max-norm 1, so the terms' max-norms sum to E_{alpha,1}(t^alpha)
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        a = mp.mpf(alpha)
        cd = [oracles.skew_ml_coefficients(a, mp.mpf(s)) for s in self.LAGS]
        ref = np.array([float(c) * np.eye(2) + float(d) * A for c, d in cd])
        absum = np.array([float(oracles.ml_series(a, 1, mp.mpf(s) ** a, int(90 / alpha)))
                          for s in self.LAGS])
        self.assert_within_rule(ml_matrix_batch(A, alpha, 1.0, self.LAGS), ref, absum)


class TestBlasThreads:
    def test_sums_independent_of_blas_threads(self):
        # the series sums through BLAS products; their bits must not depend
        # on how many threads BLAS splits them over
        code = ("import hashlib\n"
                "import numpy as np\n"
                "from fracctrl import ml_matrix_batch\n"
                "rng, h = np.random.default_rng(11), hashlib.sha256()\n"
                "for n in (1, 3, 8):\n"
                "    A = rng.uniform(-1.0, 1.0, (n, n)) / np.sqrt(n)\n"
                "    for lags in (1, 2049, 50001 if n < 8 else 8193):\n"
                "        s = np.linspace(0.0, 2.0, lags)\n"
                "        h.update(ml_matrix_batch(A, 0.7, 1.0, s).tobytes())\n"
                "print(h.hexdigest())\n")
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(Path(mlkernel.__file__).parents[1]),
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 text=True, check=True, timeout=120, env=env)
            digests.add(out.stdout.strip())
        assert len(digests) == 1


class TestNumpyState:
    """The series takes its powers inside ``np.errstate`` scopes; a caller's
    buffer size and error state are what they were."""

    @staticmethod
    def kernel_calls():
        rng = np.random.default_rng(3)
        A = rng.uniform(-1.0, 1.0, (3, 3))
        s = np.linspace(0.0, 2.0, 2049)
        return [
            lambda: ml_matrix_batch(A, 0.7, 1.0, s),
            lambda: ml_matrix_batch(A, 0.7, 1.0, s, SeriesPolicy(max_terms=5)),
            lambda: ml_matrix_batch(30.0 * np.eye(3), 0.5, 1.0, 5.0 * s),
            lambda: ml_matrix_batch(A, 0.7, 1.0, np.array([np.nan])),
            lambda: ml_matrix(MLParams(0.5, 1.0), A),
            lambda: inverse_kernel(A, 0.5, 1.3),
            lambda: state_transition(A, 0.5, 2.0),
        ]

    @pytest.mark.parametrize("bufsize", [8192, 4096, 160])
    def test_callers_state_kept_after_each_call(self, bufsize):
        with np.errstate(divide="raise", over="warn", under="ignore", invalid="warn"):
            np.setbufsize(bufsize)
            state = np.getbufsize(), np.geterr()
            outcomes = []
            for call in self.kernel_calls():
                try:
                    call()
                except (NonConvergence, DomainError) as exc:
                    outcomes.append(type(exc))
                else:
                    outcomes.append(None)
                assert (np.getbufsize(), np.geterr()) == state
        assert outcomes == [None, NonConvergence, NonConvergence, DomainError, None, None, None]

    def test_threads_with_different_bufsizes_agree(self):
        rng = np.random.default_rng(8)
        A = rng.uniform(-1.0, 1.0, (4, 4))
        s = np.linspace(0.0, 2.0, 2049)
        want = ml_matrix_batch(A, 0.7, 1.0, s).tobytes()
        results, errors = {}, []

        def run(bufsize):
            try:
                with np.errstate():
                    np.setbufsize(bufsize)
                    got = [ml_matrix_batch(A, 0.7, 1.0, s).tobytes() for _ in range(4)]
                    results[bufsize] = got, np.getbufsize()
            except Exception as exc:  # reported below, from the main thread
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(b,)) for b in (16, 1024, 8192, 65536)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors and len(results) == 4
        for bufsize, (got, after) in results.items():
            assert after == bufsize and all(g == want for g in got)


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


def near_integers(n, ulp):
    """Decimals at n and 1, 2 and 10^6 units of the last place either side,
    at 34 digits."""
    return [mlkernel._CTX.fma(d, ulp, n) for d in (0, 1, -1, 2, -2, 10**6, -10**6)]


def like_ctx(cls):
    """An instance of the ``decimal.Context`` subclass ``cls`` with ``_CTX``'s settings."""
    base = mlkernel._CTX
    return cls(prec=base.prec, rounding=base.rounding, Emin=base.Emin, Emax=base.Emax,
               capitals=base.capitals, clamp=base.clamp, flags=[],
               traps=[t for t, on in base.traps.items() if on])


def counting_context(calls):
    """A context with ``_CTX``'s settings whose ``ln`` records its arguments."""

    class Counting(decimal.Context):
        def ln(self, x):
            calls.append(x)
            return super().ln(x)

    return like_ctx(Counting)


def op_counting_context(counts):
    """A context with ``_CTX``'s settings that counts its ``multiply`` and
    ``add`` calls in the Counter ``counts``."""

    class Counting(decimal.Context):
        def multiply(self, a, b):
            counts["multiply"] += 1
            return super().multiply(a, b)

        def add(self, a, b):
            counts["add"] += 1
            return super().add(a, b)

    return like_ctx(Counting)


def assert_same_decimal(got, want):
    assert got == want and str(got) == str(want), (got, want)


class TestRgammaDec:
    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.7, 2.5])
    def test_rows_bitwise_equal_to_reference(self, alpha, monkeypatch):
        # every coefficient k < 600 of the key, for a few beta
        betas = (1.0, alpha, 0.37 + alpha)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(mlkernel, "_CTX", counting_context(calls))
            got = {beta: [r for j in range(38) for r in mlkernel._rgamma_chunk.__wrapped__(
                alpha, beta, j)] for beta in betas}
        assert calls == []  # the 44-digit logarithm settled every rounding
        fma, D = mlkernel._CTX.fma, mlkernel._D
        for beta in betas:
            for k in range(600):
                want = stirling_rgamma_reference(fma(k, D(alpha), D(beta)))
                assert_same_decimal(got[beta][k], want)

    @pytest.mark.parametrize("x", [
        *[x for n in range(30, 41) for x in near_integers(n, decimal.Decimal("1e-32"))],
        *near_integers(29, decimal.Decimal("1e-32")),  # shifted up onto 30 and 31, either side
        *near_integers(1000, decimal.Decimal("1e-30")),
        decimal.Decimal("999.4999999999999999999999999999999"),
        decimal.Decimal("1000.5"),
        decimal.Decimal(30),
        decimal.Decimal(1000),
        decimal.Decimal("1e34"),
    ], ids=str)
    def test_near_integer_arguments_bitwise(self, x):
        assert_same_decimal(mlkernel._rgamma_dec(x), stirling_rgamma_reference(x))

    def test_fallback_returns_context_ln(self, monkeypatch):
        # an error bound this wide fails the rounding test on every argument
        xs = [decimal.Decimal(v) for v in ("0.05", "1.5", "29.99", "30", "31.25", "987.654321")]
        want = [stirling_rgamma_reference(x) for x in xs]
        calls = []
        monkeypatch.setattr(mlkernel, "_LN_ERR", decimal.Decimal(1))
        monkeypatch.setattr(mlkernel, "_CTX", counting_context(calls))
        for x, w in zip(xs, want):
            assert_same_decimal(mlkernel._rgamma_dec(x), w)
        assert len(calls) == len(xs) and all(x >= 30 for x in calls)

    def test_concurrent_fresh_key_matches_single_thread(self, monkeypatch):
        key = (0.587, 1.913)
        raw_rows, raw_ln = mlkernel._rgamma_chunk.__wrapped__, mlkernel._ln_int.__wrapped__

        def fresh_caches():
            monkeypatch.setattr(mlkernel, "_rgamma_chunk", functools.lru_cache(maxsize=4096)(raw_rows))
            cache = functools.lru_cache(maxsize=4096)(raw_ln)
            monkeypatch.setattr(mlkernel, "_ln_int", cache)
            return cache

        fresh_caches()
        want = [mlkernel._rgamma_chunk(*key, j) for j in range(6)]
        cache = fresh_caches()
        results = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            results.append([mlkernel._rgamma_chunk(*key, j) for j in range(6)])

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
        assert len(results) == 4
        for rows in results:
            for got_row, want_row in zip(rows, want):
                for got, w in zip(got_row, want_row):
                    assert_same_decimal(got, w)
        assert cache.cache_info().currsize >= 10
        assert all(cache(m) == raw_ln(m) for m in range(30, 40))


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
        got = _checked_inverse(mlkernel.ml_matrix_batch(A, 0.6, 0.6, s, DEFAULT_POLICY))
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

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
    def test_bitwise_the_scaled_matrix_series(self, alpha):
        A = np.array([[-0.4, 0.9], [-0.7, 0.2]])
        for t in (0.25, 1.0, 3.7):
            want = t ** (alpha - 1.0) * ml_matrix(MLParams(alpha, alpha), A * t**alpha)
            assert np.array_equal(alpha_exp(A, alpha, t), want)

    def test_nan_time_refused(self):
        # NaN is not >= 0: a domain error naming t, not a non-finite matrix
        with pytest.raises(DomainError, match="alpha_exp undefined at t=nan"):
            alpha_exp(0.5 * np.eye(2), 0.5, math.nan)

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

    def test_negative_time_refused(self):
        with pytest.raises(DomainError, match="t >= 0"):
            state_transition(np.eye(2), 0.7, -1e-3)

    def test_nan_time_refused(self):
        with pytest.raises(DomainError, match="state_transition requires t >= 0, got nan"):
            state_transition(0.5 * np.eye(2), 0.5, math.nan)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
    def test_bitwise_the_scaled_matrix_series(self, alpha):
        A = np.array([[-0.4, 0.9], [-0.7, 0.2]])
        for t in (0.0, 0.25, 1.0, 3.7):
            want = ml_matrix(MLParams(alpha, 1.0), A * t**alpha)
            assert np.array_equal(state_transition(A, alpha, t), want)

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

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
    def test_bitwise_the_scaled_scalar_series(self, alpha):
        for t in (0.25, 1.0, 3.7):
            z = -t ** (2.0 * alpha)
            assert frac_sin(alpha, t) == (
                t ** (2.0 * alpha - 1.0) * ml_scalar(MLParams(2.0 * alpha, 2.0 * alpha), z))
            assert frac_cos(alpha, t) == (
                t ** (alpha - 1.0) * ml_scalar(MLParams(2.0 * alpha, alpha), z))

    @pytest.mark.parametrize("fn", [frac_sin, frac_cos])
    def test_nan_time_refused(self, fn):
        with pytest.raises(DomainError, match=f"{fn.__name__} requires t > 0, got nan"):
            fn(0.5, math.nan)


class TestOverflowingScale:
    # A t^alpha, t^alpha or the prefactor t^(beta-1) past the largest double:
    # once a non-finite matrix (InvalidParams) or a bare OverflowError
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, what", [
        (lambda: alpha_exp([[1e308]], 1.0, 10.0), "A t^alpha"),
        (lambda: state_transition([[1e308]], 1.0, 10.0), "A t^alpha"),
        (lambda: state_transition([[1e308, 0.0], [0.0, 1.0]], 0.5, 100.0), "A t^alpha"),
        (lambda: alpha_exp([[0.0]], 0.001, 1e-320), "t^(beta-1) E_{alpha,beta}(A t^alpha)"),
        (lambda: frac_sin(0.001, 1e-320), "t^(beta-1) E_{2 alpha,beta}(-t^(2 alpha))"),
        (lambda: frac_cos(0.001, 1e-320), "t^(beta-1) E_{2 alpha,beta}(-t^(2 alpha))"),
        (lambda: frac_sin(1.0, 1e308), "t^(2 alpha)"),
        (lambda: frac_cos(1.0, 1e308), "t^(2 alpha)"),
    ], ids=["exp-arg", "s0-arg", "s0-arg-2x2", "exp-prefactor", "sin-prefactor",
            "cos-prefactor", "sin-arg", "cos-arg"])
    def test_is_non_convergence_naming_the_value(self, call, what):
        with pytest.raises(NonConvergence) as info:
            call()
        assert str(info.value).startswith(f"{what} overflows at t=")


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

    def test_nan_time_refused(self):
        # the sum would carry the NaN through and return it
        with pytest.raises(DomainError, match="cl_truncation requires t > 0, got nan"):
            cl_truncation(2, math.nan)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [math.inf, np.float64(np.inf)])
    def test_infinite_time_refused(self, t):
        # once a NaN after a numpy RuntimeWarning
        with pytest.raises(DomainError, match="cl_truncation requires t > 0, got inf"):
            cl_truncation(2, t)

    @pytest.mark.parametrize("L", [2.5, 2.0, True, "2", None])
    def test_non_integer_count_refused(self, L):
        # once a TypeError from range, or L = 1 for True
        with pytest.raises(DomainError, match="L must be an integer"):
            cl_truncation(L, 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("L, t", [(400, 8.0), (400, np.float64(8.0)), (12, 1e15),
                                      (12, np.float64(1e15)), (2, 1e200)])
    def test_overflowing_terms_are_non_convergence(self, L, t):
        # the numerator overflows before (2k-1)!! does (t = 8 near k = 150):
        # once a silent NaN, a numpy RuntimeWarning or a bare OverflowError
        # from the float power
        with pytest.raises(NonConvergence, match=r"cl_truncation\(.*\): terms overflow"):
            cl_truncation(L, t)

    def test_late_terms_below_the_smallest_double_still_sum(self):
        # (2k-1)!! overflows near k = 150, where the terms at t = 3 are far
        # below the sum: they vanish instead of refusing the call
        assert cl_truncation(200, 3.0) == cl_truncation(100, 3.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("L, t", [(400, 2.0), (400, np.float64(2.0)), (1024, 1e-300),
                                      (1024, 0.1), (2000, 1.0), (5000, 7.5), (200, 7.4)])
    def test_terms_past_the_double_factorial_overflow_are_summed(self, L, t):
        # once refused when 2.0**k overflowed (k = 1024) or the numerator did
        # after (2k-1)!! had: every later term is 0.0 in doubles, and the
        # true tail falls geometrically
        assert cl_truncation(L, t) == pytest.approx(float(oracles.cl_truncation(L, t)), rel=1e-15)


class TestInverseKernel:
    """The one-lag inverse kernel by the batched kernel and the controls' conditioning rule."""

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

    def test_threshold_raises(self, monkeypatch):
        # the chain matrix's E_{1/2,1/2}(A) has singular-value ratio 0.2025
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        monkeypatch.setattr(mlkernel, "SINGULAR_KERNEL_RCOND", 0.5)
        with pytest.raises(SingularKernel):
            inverse_kernel(A, 0.5, 1.0)
        monkeypatch.setattr(mlkernel, "SINGULAR_KERNEL_RCOND", 0.1)
        assert np.isfinite(inverse_kernel(A, 0.5, 1.0)).all()

    def test_same_rule_as_pinv_control(self, monkeypatch):
        # the rotation's kernel is a scaled rotation, ratio 1: the one-lag
        # inverse and the pinv control both accept it at threshold 0.9
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        monkeypatch.setattr(mlkernel, "SINGULAR_KERNEL_RCOND", 0.9)
        g = inverse_kernel(A, 0.5, 1.0)
        u = PinvControl(A, np.eye(2), 0.5, 1.0, np.array([1.0, 0.0]))
        assert np.allclose(u.sample(np.array([0.0]))[0], g[:, 0], rtol=1e-14)
