"""Two-parameter Mittag-Leffler functions and derived kernels.

Evaluates the scalar and matrix series

    E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(k*alpha + beta),

the alpha-exponential matrix  t^(alpha-1) E_{alpha,alpha}(A t^alpha)  that
plays the role of the matrix exponential in fractional variation-of-constants
formulas, the fractional sine/cosine series of rotation-type systems, and the
conditioning rule under which the steering controls invert E_{alpha,alpha}.

Scalar series are summed in one 34-digit ``decimal`` context, because the
alternating terms at strongly negative arguments can exceed the limit by many
orders of magnitude (e.g. the terms of E_{1,1}(-10) peak near 2.8e3 while the
sum is 4.5e-5); plain double summation would lose up to eight digits there.
Matrix series are summed in ordinary doubles, which is adequate at desk scale
(series argument max-norms up to roughly 20), by one primitive that returns
``s.shape + L.shape`` arrays.

That primitive sums its terms in blocks of ``_BLOCK`` = 16 steps.  Once per
call it takes A^j and the lag powers s^(j alpha) for j < 16, then A^16 and
s^(16 alpha), by doubling.  A block of steps k0, ..., k0 + 15 costs one
batched product for L A^k0 A^j, one reduction for their 16 max-norms, one
update of the lag powers to s^((k0 + j) alpha), and per sequence one product
(lags x 16) @ (16 x |L|) of those powers against the c_k-scaled L A^k, added
into sums that keep the lags first.  The stop decisions run over Python
floats, step by step, and a sequence's steps are added into its sums before
a decision reads them.  The products go to BLAS gemm; a product with a unit
dimension, which numpy would hand to gemv, whose sums depend on the number of
BLAS threads, goes to ``np.einsum`` instead, so no sum depends on it.

All functions are pure.  Shared state is immutable once built, so safe for
concurrent callers: the ``lru_cache``s ``_rgamma_chunk`` and ``_rgamma_floats``
(a race builds a row twice, bitwise the same), ``_ln_int`` (ln m at 44 digits,
correctly rounded, so a race stores the same immutable Decimal twice); ``_CTX``
and the 44-digit ``_CTX44``, whose settings never change (their status flags are
set but never read).  The matrix series' tables and buffers belong to one call.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParams, NonConvergence, SingularKernel

__all__ = [
    "MLParams",
    "SeriesPolicy",
    "DEFAULT_POLICY",
    "SINGULAR_KERNEL_RCOND",
    "ml_scalar",
    "ml_matrix",
    "ml_matrix_batch",
    "alpha_exp",
    "state_transition",
    "frac_sin",
    "frac_cos",
    "cl_truncation",
]


def _count(value, name: str, error: type) -> int:
    """``value`` as a plain int, refused with ``error`` for a bool or a
    non-integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class MLParams:
    """Order pair (alpha, beta) of the two-parameter Mittag-Leffler function.

    Both parameters must be positive and finite for the defining series to
    make sense.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf) or not (0.0 < self.beta < math.inf):
            raise InvalidParams(
                f"Mittag-Leffler parameters must be positive and finite, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation control for all series evaluations.

    Summation stops once the next term's magnitude (max-norm for matrices,
    over every lag of a batch; both rounded to doubles for scalar series,
    which are summed at 34 digits) drops below ``rel_tol`` times the partial
    sum's magnitude.  Scalar series also stop below ``rel_tol`` absolutely
    while the partial sum is zero; matrix series do not, but stop when
    L A^k vanishes.  ``NonConvergence`` is raised if no stop comes within
    ``max_terms`` terms, and by scalar series also for a non-finite argument
    or once |z|^k passes about 1.3e300.
    """

    rel_tol: float = 1e-14
    max_terms: int = 500

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise InvalidParams(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        object.__setattr__(self, "max_terms", _count(self.max_terms, "max_terms", InvalidParams))
        if self.max_terms < 1:
            raise InvalidParams(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_POLICY = SeriesPolicy()

# _ml_series sums its terms in blocks of _BLOCK steps (see the module
# docstring); the reductions are bound once, as the ndarray methods add a
# Python call per stop decision
_BLOCK = 16
_MAX, _MIN = np.maximum.reduce, np.minimum.reduce

# below this singular-value ratio the Mittag-Leffler matrix of an inverse
# kernel is treated as singular
SINGULAR_KERNEL_RCOND = 1e-12

# 34 digits, the precision of IEEE 754-2008 decimal128; every operation goes
# through this context's methods, never through the thread-local context, and
# no field is left to be copied from a DefaultContext a caller may have changed
_CTX = decimal.Context(prec=34, rounding=decimal.ROUND_HALF_EVEN, Emin=-999999, Emax=999999,
                       capitals=1, clamp=0, flags=[],
                       traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow])
_D = decimal.Decimal

# Stirling correction coefficients B_{2j} / (2j (2j-1)) from exact Bernoulli
# fractions; for arguments >= 30 the first omitted term is below 1e-35
_BERNOULLI = [
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730), (8553103, 6),
]
_STIRLING = [_CTX.divide(num, den * (2 * j + 2) * (2 * j + 1))
             for j, (num, den) in enumerate(_BERNOULLI)]
_HALF_LN_2PI = _D("0.9189385332046727417803297364056176398614")
# |z|^k is refused beyond float_info.max / (2^27 + 1), about 1.3e300, where the
# earlier double-double products overflowed, so the same arguments refuse
_ZK_MAX = _D(sys.float_info.max / 134217729.0)
_ONE, _HALF, _THIRTY = _D(1), _D("0.5"), _D(30)
_CTX44 = _CTX.copy()  # for ln x, x >= 30, taken first at 44 digits
_CTX44.prec = 44
# 2 atanh(t) = t sum_j _ATANH[j] t^(2j), _ATANH[j] = 2/(2j+1) for j = 12 down to 0
_ATANH = [_CTX44.divide(2, 2 * j + 1) for j in range(12, -1, -1)]
# ln m at 44 digits, correctly rounded, for the integer part m of x
_ln_int = functools.lru_cache(maxsize=4096)(_CTX44.ln)
# Bound on |y - ln x| / y for _rgamma_dec's y = ln m + 2 atanh(t), u = 5e-44
# the unit roundoff at 44 digits: x - m and x + m are exact (at most 35
# digits); ln m is off by u ln m; as 0 <= t < 1/61, t times the Horner sum is
# off by under 16u relative, of a value below 0.033, and the omitted terms
# are below t^27 < 1e-48; the last fma adds u y.  So |y - ln x| <=
# u (2 ln x + 1) < 1.2e-43 y as ln x >= 3.4, and y -+ _LN_ERR y, each rounded
# at 44 digits, still enclose ln x.
_LN_ERR = _D("1e-42")


def _rgamma_dec(x: decimal.Decimal) -> decimal.Decimal:
    """1 / Gamma(x) for positive x: Stirling's series for log Gamma after
    shifting the argument up to at least 30.

    Bit for bit the value with ``_CTX.ln(x)``, which is correctly rounded:
    ln x is first taken at 44 digits as y = ln m + 2 atanh(t), m = int(x),
    t = (x - m)/(x + m), with |y - ln x| < 1.2e-43 y (bound at ``_LN_ERR``).
    y is used when y - _LN_ERR y and y + _LN_ERR y round to one and the same
    34-digit number, so ln x rounds to it too; otherwise ``_CTX.ln(x)`` is
    called.
    """
    c = _CTX
    mul, add, sub = c.multiply, c.add, c.subtract
    shift = _ONE
    while x < _THIRTY:
        shift = mul(shift, x)
        x = add(x, _ONE)
    m = int(x)
    c44 = _CTX44
    md = _D(m)
    t = c44.divide(c44.subtract(x, md), c44.add(x, md))
    t2 = c44.multiply(t, t)
    fma = c44.fma
    p = _ATANH[0]
    for coef in _ATANH[1:]:
        p = fma(p, t2, coef)
    y = fma(t, p, _ln_int(m))
    err = c44.multiply(y, _LN_ERR)
    ln = c.plus(c44.subtract(y, err))
    if ln != c.plus(c44.add(y, err)):
        ln = c.ln(x)
    lg = add(sub(mul(sub(x, _HALF), ln), x), _HALF_LN_2PI)
    x2 = mul(x, x)
    xp = x
    for coef in _STIRLING:
        lg = add(lg, c.divide(coef, xp))
        xp = mul(xp, x2)
    return mul(shift, c.exp(c.minus(lg)))


@functools.lru_cache(maxsize=4096)
def _rgamma_chunk(alpha: float, beta: float, j: int) -> tuple:
    """1 / Gamma(k alpha + beta) for k = 16 j, ..., 16 j + 15, as Decimals."""
    a, b = _D(alpha), _D(beta)
    return tuple(_rgamma_dec(_CTX.fma(k, a, b)) for k in range(16 * j, 16 * j + 16))


@functools.partial(np.vectorize, otypes=[float])
def _rgamma(x: float) -> float:
    """1 / Gamma(x) for x > 0, elementwise over arrays; 0.0 from x =
    171.6243769563027 on, where Gamma reaches the largest double."""
    return 0.0 if x >= 171.6243769563027 else 1.0 / math.gamma(x)


@functools.lru_cache(maxsize=4096)
def _rgamma_floats(alpha: float, beta: float, j: int) -> tuple:
    """1 / Gamma(k alpha + beta) for the k of _ml_series' block j, as floats."""
    return tuple(_rgamma(np.arange(_BLOCK * j, _BLOCK * (j + 1)) * alpha + beta).tolist())


def ml_scalar(params: MLParams, z: float, policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    """Evaluate E_{alpha,beta}(z) by direct series summation.

    Intended for desk-scale arguments; far outside that range the stopping
    rule cannot fire within ``policy.max_terms`` and ``NonConvergence`` is
    raised (asymptotic large-argument algorithms are out of scope), as it is
    for a non-finite z and once |z|^k passes about 1.3e300.

    The stop rule is ``SeriesPolicy``'s on doubles, applied in two steps.
    Decimal exponents first certify that a term cannot pass the float test:
    ta >= sa + e + 2 and -307 - e <= sa <= 307 for those of a nonzero term,
    partial sum and 2 rel_tol.  Such a term is added unconverted; any other
    term and the partial sum are rounded to doubles, and the float test
    decides.
    """
    z = float(z)
    alpha, beta = params.alpha, params.beta
    if not math.isfinite(z):
        raise NonConvergence(f"E_{{{alpha},{beta}}}({z}): series terms overflow")
    # bound once: a method lookup on a Context costs about 0.12 us
    mul, add = _CTX.multiply, _CTX.add
    zd = _D(z)
    # the coefficients k = 0, 1, ..., each cached row built once reached
    coefs = itertools.chain.from_iterable(
        map(functools.partial(_rgamma_chunk, alpha, beta), itertools.count()))
    total = next(coefs)
    zk = _ONE
    rel_tol = policy.rel_tol
    # certificate that the float test continues (e the exponent of 2 rel_tol): |term| >=
    # 10^(sa+e+2) > 2 rel_tol |total|, with |total| < 10^308 and rel_tol |total| >= 5e-308
    # normal doubles, each rounded within 2^-53; a zero's exponent bounds nothing
    e = _D(2.0 * rel_tol).adjusted()
    step, lo = (e + 2 if z else math.inf), -307 - e
    for r in itertools.islice(coefs, policy.max_terms):
        zk = mul(zk, zd)
        if zk.adjusted() >= 300 and zk.copy_abs() > _ZK_MAX:  # |zk| < 10^300 passes
            raise NonConvergence(f"E_{{{alpha},{beta}}}({z}): series terms overflow")
        term = mul(zk, r)
        sa = total.adjusted()
        if not (total and lo <= sa <= 307 and term.adjusted() >= sa + step):
            ref = abs(float(total))
            mag = abs(float(term))
            if (ref > 0.0 and mag < rel_tol * ref) or (ref == 0.0 and mag < rel_tol):
                return float(total)
        total = add(total, term)
    raise NonConvergence(
        f"E_{{{alpha},{beta}}}({z}): no convergence in {policy.max_terms} terms")


def ml_matrix(params: MLParams, M: np.ndarray, policy: SeriesPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Evaluate the matrix series E_{alpha,beta}(M) = sum_k M^k / Gamma(k*alpha+beta).

    The scalar argument is absorbed into ``M`` (pass ``A * t**alpha`` to get
    E_{alpha,beta}(A t^alpha)).
    """
    M = _as_square(M)
    return _ml_series(M, params.alpha, params.beta, np.ones(1), np.eye(M.shape[0]), policy)[0]


def ml_matrix_batch(
    A: np.ndarray,
    alpha: float,
    beta: float,
    s: np.ndarray,
    policy: SeriesPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """E_{alpha,beta}(A s^alpha) for a whole array of scale factors s >= 0.

    Returns an array of shape ``s.shape + A.shape``.  Shared truncation: the
    series stops when the next term is negligible across every s, which keeps
    the result a smooth function of s.  The orders are checked as in
    ``MLParams``.
    """
    A = _as_square(A)
    MLParams(alpha, beta)
    return _ml_series(A, alpha, beta, _real(s, "lag"), np.eye(A.shape[0]), policy)


def _ml_series(A: np.ndarray, alpha: float, beta, s: np.ndarray,
               L: np.ndarray, policy: SeriesPolicy = DEFAULT_POLICY) -> np.ndarray:
    """L E_{alpha,beta}(A s^alpha) = sum_k L A^k s^(k alpha) / Gamma(k alpha + beta)
    over lags s >= 0, for L of shape (p, n) or (n,); shape ``s.shape + L.shape``.
    A list ``beta`` of q numbers or coefficient functions, which map an
    integer array k to the c_k elementwise (a number stands for c_k =
    1/Gamma(k alpha + beta)), sums q series in one pass that shares L A^k
    and s^(k alpha), each stopped by its own rule; shape
    ``(q,) + s.shape + L.shape``.

    The package's only matrix kernel series, truncated by ``policy`` over all
    lags at once and exact when L A^k vanishes.  A right factor R goes
    through the transpose: E(A s^alpha) R = (R^T E(A^T s^alpha))^T.

    Summed in blocks of 16 steps (see the module docstring) under the stop
    rule of the loop that added each term as it came and read max|out| after
    each.  Its L A^k (from block powers) and its sums (in another order)
    round differently from that loop's, within the rounding bound of
    summation in any order; each stacked sequence is bitwise its own call.
    """
    if not (s >= 0).all():
        raise DomainError("Mittag-Leffler kernels need lags s >= 0")
    # each sequence as j -> its c_k for the k of block j; for a number these
    # rows are cached, so the loop makes no gamma call per term
    coef = [(lambda j, b=b: b(np.arange(_BLOCK * j, _BLOCK * (j + 1))).tolist()) if callable(b)
            else functools.partial(_rgamma_floats, float(alpha), float(b))
            for b in (beta if isinstance(beta, list) else [beta])]
    q = len(coef)
    out = np.zeros((q, s.size, L.size))  # lags first, each sum an S x |L| matrix
    sa = s.ravel() ** alpha
    sa_max = float(sa.max(initial=0.0))
    # W[j] = s^(j alpha) and pw[j] = A^j for j < 16, then s16 = s^(16 alpha)
    # and A16 = A^16, by doubling.  A power of a step never reached may
    # overflow; a step reached refuses a non-finite term norm first.
    W, pw = np.empty((_BLOCK, s.size)), np.empty((_BLOCK,) + A.shape)
    W[0], pw[0] = 1.0, np.eye(len(A))
    s16, A16 = sa, A
    with np.errstate(over="ignore", invalid="ignore"):
        for h in (1, 2, 4, 8):
            np.multiply(W[:h], s16, out=W[h:2 * h])
            np.matmul(pw[:h], A16, out=pw[h:2 * h])
            s16, A16 = s16 * s16, A16 @ A16
    # Block b holds steps k0 = 16 b, ..., k0 + 15: P = L A^k0, W[j] =
    # s^((k0 + j) alpha), Pk[j] = L A^(k0 + j) flat and pn[j] its max-norm.
    # A term's max-norm is taken as spow_max |c_k| pn[j], spow_max the largest
    # lag's power.  max|out| is computed only once the term falls below
    # rel_tol times 2 (last max|out| + term norms since), a bound on it, so
    # each stop decision is that of a per-term max|out|.
    P, buf = L, np.empty((s.size, L.size))
    spow_max, bound, rel_tol = 1.0, [0.0] * q, policy.rel_tol
    live = list(range(q)) if s.size else []
    start = [_BLOCK] * q  # steps start[i], ... of the block are not yet in out[i]
    # numpy takes a product with a unit dimension to BLAS gemv, whose sums
    # depend on the number of BLAS threads; einsum's own loops do not
    prod = np.matmul if min(s.size, L.size) > 1 else functools.partial(np.einsum, "sj,jl->sl")

    def add(i, e):
        """Add steps start[i], ..., e - 1 of the block to out[i]: one product
        of the lag powers against the c_k-scaled L A^k."""
        if e > start[i]:
            prod(W[start[i]:e].T, Pk[start[i]:e] * cb[i, start[i]:e, None], out=buf)
            out[i] += buf
        start[i] = e

    for k in range(policy.max_terms + 2):
        j = k % _BLOCK
        if not j:
            for i in live:
                add(i, _BLOCK)
            start = [0] * q
            with np.errstate(over="ignore", invalid="ignore"):
                if k:
                    P = P @ A16
                    np.multiply(W, s16, out=W)
                Pk = (P @ pw).reshape(_BLOCK, -1)
                pn = _MAX(np.abs(Pk), axis=1).tolist()
            cs = [c(k // _BLOCK) for c in coef]
            cb = np.array(cs)
        pmax = pn[j]
        if k:
            if not pmax:  # L A^k vanishes: the sums are exact
                break
            if k > policy.max_terms:
                raise NonConvergence(
                    f"Mittag-Leffler matrix series: no convergence in {policy.max_terms} terms")
            spow_max = spow_max * sa_max
        for i in live:
            rg = cs[i][j]
            tnorm = spow_max * abs(rg) * pmax
            if not math.isfinite(tnorm):
                raise NonConvergence("Mittag-Leffler matrix series terms overflow")
            if tnorm < rel_tol * bound[i]:
                add(i, j)
                ref = max(_MAX(out[i], axis=None), -_MIN(out[i], axis=None))
                if ref > 0.0 and tnorm < rel_tol * ref:
                    live = [m for m in live if m != i]  # the loop goes on over the old list
                    continue
                bound[i] = 2.0 * ref
            bound[i] += 2.0 * tnorm
        if not live:
            break
    for i in live:
        add(i, j)
    out = out.reshape((q,) + s.shape + L.shape)
    return out if isinstance(beta, list) else out[0]


def _ml_at(A: np.ndarray, alpha: float, beta: float, t: float, policy: SeriesPolicy,
           refusal: str) -> np.ndarray:
    """t^(beta-1) E_{alpha,beta}(A t^alpha) at t >= 0 (t > 0 if beta < 1), else ``refusal``."""
    A = _as_square(A)
    _check_order(alpha)
    if not t >= 0.0 or (t == 0.0 and beta < 1.0):
        raise DomainError(refusal.format(t=t, alpha=alpha))
    M = ml_matrix(MLParams(alpha, beta), _scaled(A, t, alpha, "A t^alpha"), policy)
    return _scaled(M, t, beta - 1.0, "t^(beta-1) E_{alpha,beta}(A t^alpha)")


def _scaled(x, t: float, p: float, what: str):
    """x t^p for a number or an array x; ``NonConvergence`` naming ``what`` on overflow."""
    try:
        tp = float(t) ** p
    except OverflowError:  # a float power that overflows raises
        tp = math.inf
    # rounding is monotone: no entry of x t^p overflows unless the largest does
    if not math.isfinite(tp * (abs(x) if isinstance(x, float) else float(np.abs(x).max()))):
        raise NonConvergence(f"{what} overflows at t={t}")
    return x * tp


def alpha_exp(
    A: np.ndarray, alpha: float, t: float, policy: SeriesPolicy = DEFAULT_POLICY
) -> np.ndarray:
    """The alpha-exponential matrix  t^(alpha-1) E_{alpha,alpha}(A t^alpha).

    Singular at t = 0 for alpha < 1 (the prefactor blows up); at alpha = 1 it
    is the classical matrix exponential and t = 0 returns the identity.
    """
    return _ml_at(A, alpha, alpha, t, policy, "alpha_exp undefined at t={t} for alpha={alpha}")


def state_transition(
    A: np.ndarray, alpha: float, t: float, policy: SeriesPolicy = DEFAULT_POLICY
) -> np.ndarray:
    """E_{alpha,1}(A t^alpha): maps an initial state to the free response at t.

    Equals the identity exactly at t = 0.
    """
    return _ml_at(A, alpha, 1.0, t, policy, "state_transition requires t >= 0, got {t}")


def _frac_trig(alpha: float, t: float, policy: SeriesPolicy, sine: bool) -> float:
    """t^(beta-1) E_{2 alpha, beta}(-t^(2 alpha)), beta = 2 alpha for a sine, else alpha."""
    _check_order(alpha)
    if not t > 0.0:
        raise DomainError(f"frac_{'sin' if sine else 'cos'} requires t > 0, got {t}")
    beta = 2.0 * alpha if sine else alpha
    E = ml_scalar(MLParams(2.0 * alpha, beta), _scaled(-1.0, t, 2.0 * alpha, "t^(2 alpha)"), policy)
    return _scaled(E, t, beta - 1.0, "t^(beta-1) E_{2 alpha,beta}(-t^(2 alpha))")


def frac_sin(alpha: float, t: float, policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    """Fractional sine sum_k (-1)^k t^(2(k+1)alpha-1) / Gamma(2(k+1)alpha).

    Equals t^(2 alpha - 1) E_{2 alpha, 2 alpha}(-t^(2 alpha)); reduces to
    exp(-t) at alpha = 1/2 and to sin(t) at alpha = 1.
    """
    return _frac_trig(alpha, t, policy, True)


def frac_cos(alpha: float, t: float, policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    """Fractional cosine sum_k (-1)^k t^((2k+1)alpha-1) / Gamma((2k+1)alpha).

    Equals t^(alpha-1) E_{2 alpha, alpha}(-t^(2 alpha)); behaves like
    1/sqrt(pi t) for small t at alpha = 1/2 and reduces to cos(t) at alpha = 1.
    """
    return _frac_trig(alpha, t, policy, False)


def cl_truncation(L: int, t: float) -> float:
    """L-term truncation c_L(t) = (pi t)^(-1/2) (1 - sum_{k=1}^L 2^k t^(2k-1) / prod_{i<=k}(2i-1)).

    Literal transcription of the printed truncation of the alpha = 1/2
    fractional cosine.  Note the printed general term does not match the
    exact series beyond k = 1 (the exact expansion carries t^k with
    alternating signs, not t^(2k-1) with fixed sign); this routine exists
    only to reproduce the published truncation-energy table and must not be
    used as a cosine approximation.  ``NonConvergence`` once a term's
    numerator overflows before (2k-1)!! does.
    """
    L = _count(L, "L", DomainError)
    if L < 1:
        raise DomainError(f"cl_truncation requires L >= 1, got {L}")
    if not 0.0 < t < math.inf:
        raise DomainError(f"cl_truncation requires t > 0, got {t}")
    acc = 1.0
    prod = 1.0
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a numpy t's powers
            for k in range(1, L + 1):
                prod *= 2 * k - 1
                if prod == math.inf:
                    break  # later terms are 0.0 or NaN in doubles; the true tail is geometric
                acc -= 2.0**k * t ** (2 * k - 1) / prod
    except OverflowError:  # a float power that overflows raises
        acc = math.nan
    # a sum that once stops being finite stays so
    if not math.isfinite(acc):
        raise NonConvergence(f"cl_truncation({L}, {t}): terms overflow")
    return acc / np.sqrt(np.pi * t)


def _checked_inverse(E: np.ndarray, rcond_threshold: float | None = None) -> np.ndarray:
    """``np.linalg.inv(E)`` over a stack of n x n matrices, refused below
    ``rcond_threshold`` (default ``SINGULAR_KERNEL_RCOND`` at call time).  The
    SVD runs only where the Frobenius certificate fails: r = max |E|_F |E^-1|_F
    >= sigma_max/sigma_min, so r <= 1/(2 rcond_threshold) passes the rule with
    a factor 2 to spare, and r <= 1/(64 n eps), the rank rule's margin, keeps
    the rounding of inv (about n eps cond) far inside that factor."""
    rcond_threshold = SINGULAR_KERNEL_RCOND if rcond_threshold is None else rcond_threshold
    try:
        Einv = np.linalg.inv(E)
    except np.linalg.LinAlgError:
        Einv = None
    else:
        with np.errstate(over="ignore"):  # an infinite r fails the certificate
            r = np.linalg.norm(E, axis=(-2, -1)) * np.linalg.norm(Einv, axis=(-2, -1))
        r = float(r.max())
        if 2.0 * rcond_threshold * r <= 1.0 and 64.0 * E.shape[-1] * np.finfo(float).eps * r <= 1.0:
            return Einv
    sv = np.linalg.svd(E, compute_uv=False)
    rc = float((sv.min(axis=-1) / sv.max(axis=-1)).min())
    if not rc >= rcond_threshold:
        raise SingularKernel(
            f"Mittag-Leffler matrix ill-conditioned inside [0, T] (rcond~{rc:.2e})"
        )
    if Einv is None:
        raise SingularKernel("Mittag-Leffler matrix singular inside [0, T]")
    return Einv


def _real(x, name: str) -> np.ndarray:
    """``x`` as a float array, refused if complex, where the cast would keep
    only the real part."""
    if np.iscomplexobj(x):
        raise InvalidParams(f"{name} entries must be real, got a complex array")
    return np.asarray(x, dtype=float)


def _finite(x, name: str) -> np.ndarray:
    """``x`` as a float array, refused unless every entry is real and finite."""
    x = _real(x, name)
    if not np.isfinite(x).all():
        raise InvalidParams(f"{name} entries must be finite")
    return x


def _as_square(M: np.ndarray) -> np.ndarray:
    M = np.atleast_2d(_finite(M, "matrix"))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidParams(f"expected a square matrix, got shape {M.shape}")
    return M


def _check_order(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise InvalidParams(f"order must lie in (0, 1], got {alpha}")
