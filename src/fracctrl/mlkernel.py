"""Two-parameter Mittag-Leffler functions and derived kernels.

Evaluates the scalar and matrix series

    E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(k*alpha + beta),

the alpha-exponential matrix  t^(alpha-1) E_{alpha,alpha}(A t^alpha)  that
plays the role of the matrix exponential in fractional variation-of-constants
formulas, the fractional sine/cosine series of rotation-type systems, and the
pointwise inverse kernel g(t) = t^(1-alpha) E_{alpha,alpha}(A t^alpha)^(-1).

Scalar series are summed in one 34-digit ``decimal`` context, because the
alternating terms at strongly negative arguments can exceed the limit by many
orders of magnitude (e.g. the terms of E_{1,1}(-10) peak near 2.8e3 while the
sum is 4.5e-5); plain double summation would lose up to eight digits there.
Matrix series are summed in ordinary doubles, which is adequate at desk scale
(series argument max-norms up to roughly 20), by one primitive that keeps the
lags on the last, contiguous axis and returns ``s.shape + L.shape`` arrays.

That primitive adds its terms late.  It records up to ``_BLOCK`` = 16 steps
of L A^k and each live sequence's coefficients, and adds them before each
stop decision that reads the sums and at the end: lag chunk by lag chunk,
and term after term within a chunk, with s^(k alpha) built per chunk by the
same sequential products.  The chunks have equal widths (to one lag) and
hold ``_CHUNK`` = 65536 to twice as many sums (0.5-1 MB), so that a chunk and
its product buffer stay in a 2 MB L2 cache.  Where a product has three or
more rows and every chunk 128 or more lags, numpy's ufunc buffer size is set
to the narrowest chunk's width, at most 8192: with a buffer wider than a
chunk's rows, numpy's buffered iterator copies the broadcast L A^k row by
row, 3-4x slower for the same bits.  The setting is scoped by
``np.errstate()``, which restores it on exit, also on a raise; no summing
reduction runs inside (max and min are exact).

All functions are pure.  Shared state is immutable once built or swapped whole,
so safe for concurrent callers: the ``lru_cache``s ``_rgamma_chunk`` and
``_rgamma_floats`` (a race builds a row twice, bitwise the same), ``_ln_int``
(ln m at 44 digits, correctly rounded, so a race stores the same immutable
Decimal twice); ``fracsys._TABLES`` (simulate's last kernel table of
read-only arrays, swapped under a lock); ``_CTX`` and the 44-digit
``_CTX44``, whose settings never change (their status flags are set but
never read).  The matrix series' pending terms and buffers belong to one
call, and numpy keeps its buffer size in a context variable, which each
thread holds for itself.
"""

from __future__ import annotations

import decimal
import functools
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
    "inverse_kernel",
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

# _ml_series adds its terms in blocks of up to _BLOCK steps, over lag chunks
# of _CHUNK to 2 _CHUNK sums (see the module docstring); the reductions are
# bound once, as the ndarray methods add a Python call per stop decision
_BLOCK, _CHUNK = 16, 65536
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
# ml_scalar's pre-test holds while 2 rel_tol |total| >= _TINY4, |total| <= _FMAX
_TINY4 = _D(4.0 * sys.float_info.min)
_FMAX = _D(sys.float_info.max)
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
    """1 / Gamma(k alpha + beta) for k = 16 j, ..., 16 j + 15, as floats."""
    return tuple(_rgamma(np.arange(16 * j, 16 * j + 16) * alpha + beta).tolist())


def ml_scalar(params: MLParams, z: float, policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    """Evaluate E_{alpha,beta}(z) by direct series summation.

    Intended for desk-scale arguments; far outside that range the stopping
    rule cannot fire within ``policy.max_terms`` and ``NonConvergence`` is
    raised (asymptotic large-argument algorithms are out of scope), as it is
    for a non-finite z and once |z|^k passes about 1.3e300.

    The stop rule is ``SeriesPolicy``'s on doubles, but a term is converted
    to float only near the stop: one at least 2 rel_tol times the partial
    sum (at 34 digits) cannot pass the float test and is added unconverted.
    """
    z = float(z)
    alpha, beta = params.alpha, params.beta
    if not math.isfinite(z):
        raise NonConvergence(f"E_{{{alpha},{beta}}}({z}): series terms overflow")
    # bound once: a method lookup on a Context costs about 0.12 us
    mul, add = _CTX.multiply, _CTX.add
    zd = _D(z)
    row = _rgamma_chunk(alpha, beta, 0)
    total = row[0]
    zk = _D(1)
    tol2 = _D(2.0 * policy.rel_tol)
    for k in range(1, policy.max_terms + 1):
        zk = mul(zk, zd)
        if zk.copy_abs() > _ZK_MAX:
            raise NonConvergence(f"E_{{{alpha},{beta}}}({z}): series terms overflow")
        if not k % 16:
            row = _rgamma_chunk(alpha, beta, k // 16)
        term = mul(zk, row[k % 16])
        # |term| >= 2 rel_tol |total| at 34 digits implies mag >= rel_tol * ref
        # (each float rounding is within 2^-53) while rel_tol |total| is a
        # normal double and |total| a finite one: only other terms convert
        size = total.copy_abs()
        bound = mul(tol2, size)
        if not (term.copy_abs() >= bound >= _TINY4 and size <= _FMAX):
            ref = abs(float(total))
            mag = abs(float(term))
            if (ref > 0.0 and mag < policy.rel_tol * ref) or (ref == 0.0 and mag < policy.rel_tol):
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
               L: np.ndarray, policy: SeriesPolicy) -> np.ndarray:
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

    Bit for bit the loop that added each term as it came: every stop
    decision (the term norm, the bound, max|out|, which sequences live,
    L A^k and its max-norm) is taken at the same step in the same order, and
    every element of every sum sees the same products (s^(k alpha) c_k
    rounded first, then L A^k times it) and adds, in the same order.  Arrays,
    refusal messages and numpy warnings are the same; only the moment a term
    is added moves, and every sum is complete before it is read.
    """
    if not (s >= 0).all():
        raise DomainError("Mittag-Leffler kernels need lags s >= 0")
    # each sequence as j -> its c_k for k = 16 j, ..., 16 j + 15; for a
    # number these rows are cached, so the loop makes no gamma call per term
    coef = [(lambda j, b=b: b(np.arange(16 * j, 16 * j + 16)).tolist()) if callable(b)
            else functools.partial(_rgamma_floats, float(alpha), float(b))
            for b in (beta if isinstance(beta, list) else [beta])]
    # Lags last: each term is L A^k broadcast against c = s^(k alpha) c_k.
    # Rounding is monotone, so the term's max-norm is exactly max|L A^k|
    # max|c|, with max|c| at the largest lag.  max|out| is computed only once
    # the term falls below rel_tol times 2 (last max|out| + term norms since),
    # a bound on it, so each stop decision is that of a per-term max|out|.
    out = np.zeros((len(coef),) + L.shape + (s.size,))
    rows = [out[i] for i in range(len(coef))]
    P = L
    sa = s.ravel() ** alpha
    sa_max = float(sa.max(initial=0.0))
    acol = float(np.abs(A).sum(axis=0).max())  # max|P A| <= max|P| acol
    spow_max = 1.0
    pmax = float(np.abs(P).max())
    bound = [0.0] * len(coef)
    live = list(range(len(coef))) if s.size else []
    # Terms are added late: todo lists each pending term as (L A^k with a
    # lag axis, sequence, c_k, k) in the order the loop met them, and spow
    # holds s^(kp alpha) for the step kp of the last term added.  A power is
    # taken only for a step whose term passed the tnorm test, so it is at
    # most spow_max and finite: unlike L A^k, it needs no overflow guard.
    # The lags split into nc chunks of _CHUNK to 2 _CHUNK sums (or one chunk
    # of fewer), widths within one.
    nc = s.size * len(coef) * L.size // _CHUNK or 1
    width = -(-s.size // nc)
    spow, cbuf, T = np.ones(s.size), np.empty(width), np.empty(L.shape + (width,))
    chunks = [(spow, sa, cbuf, T, rows)] if nc == 1 else [
        (spow[a:b], sa[a:b], cbuf[:b - a], T[..., :b - a], [row[..., a:b] for row in rows])
        for a, b in ((s.size * j // nc, s.size * (j + 1) // nc) for j in range(nc))]
    todo, kp, Pv, rel_tol = [], 0, P[..., None], policy.rel_tol

    def flush():
        """Add the pending terms, lag chunk by lag chunk and term after term
        within a chunk."""
        nonlocal kp
        mul = np.multiply
        for sp, sa_c, c, tw, rs in chunks:
            kc = kp
            for Pk, i, rg, k in todo:
                if k > kc:  # the terms' steps run on without a gap
                    mul(sp, sa_c, sp)
                    kc = k
                mul(sp, rg, c)
                mul(Pk, c, tw)
                rs[i] += tw
        if todo:
            kp = todo[-1][3]
            todo.clear()

    with np.errstate():
        if L.size > 2 and s.size // nc >= 128:  # see the module docstring
            np.setbufsize(16 * min(512, s.size // nc // 16))
        for k in range(policy.max_terms + 1):
            if not k % 16:
                cs = [c(k // 16) for c in coef]
            for i in live:
                rg = cs[i][k % 16]
                tnorm = spow_max * abs(rg) * pmax
                if not math.isfinite(tnorm):
                    raise NonConvergence("Mittag-Leffler matrix series terms overflow")
                if tnorm < rel_tol * bound[i]:
                    flush()
                    ref = max(_MAX(rows[i], axis=None), -_MIN(rows[i], axis=None))
                    if ref > 0.0 and tnorm < rel_tol * ref:
                        live = [j for j in live if j != i]  # the loop goes on over the old list
                        continue
                    bound[i] = 2.0 * ref
                todo.append((Pv, i, rg, k))
                bound[i] += 2.0 * tnorm
            if not live:
                break
            if pmax * acol > 1e300:  # the next tnorm refuses an overflow
                with np.errstate(over="ignore", invalid="ignore"):
                    P = P @ A
            else:
                P = P @ A
            pmax = float(_MAX(np.abs(P), axis=None))
            if not pmax:
                break
            spow_max = spow_max * sa_max
            Pv = P[..., None]
            if k - kp >= _BLOCK:  # the pending terms need _BLOCK powers
                flush()
        else:
            raise NonConvergence(
                f"Mittag-Leffler matrix series: no convergence in {policy.max_terms} terms"
            )
        flush()
    del T, chunks  # peak memory: the sums and their lag-first copy, no term besides
    out = out.transpose(0, -1, *range(1, out.ndim - 1))  # np.moveaxis(out, -1, 1), cheaper
    out = np.ascontiguousarray(out).reshape((len(coef),) + s.shape + L.shape)
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
    used as a cosine approximation.
    """
    if L < 1:
        raise DomainError(f"cl_truncation requires L >= 1, got {L}")
    if not t > 0.0:
        raise DomainError(f"cl_truncation requires t > 0, got {t}")
    acc = 1.0
    prod = 1.0
    for k in range(1, L + 1):
        prod *= 2 * k - 1
        acc -= 2.0**k * t ** (2 * k - 1) / prod
    return acc / np.sqrt(np.pi * t)


def inverse_kernel(
    A: np.ndarray,
    alpha: float,
    t: float,
    policy: SeriesPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """The unique g(t) = t^(1-alpha) E_{alpha,alpha}(A t^alpha)^(-1) with
    alpha_exp(A, alpha, t) @ g(t) = I for t > 0.

    The one-lag case of the batched inverse of the pinv and rank-based
    controls, under the same rule: ``SingularKernel`` when the
    Mittag-Leffler matrix's singular-value ratio at t falls below
    ``SINGULAR_KERNEL_RCOND``; existence pointwise does not guarantee good
    conditioning at every t.
    """
    A = _as_square(A)
    _check_order(alpha)
    if not t > 0.0:
        raise DomainError(f"inverse_kernel requires t > 0, got {t}")
    return t ** (1.0 - alpha) * _kernel_inverse_batch(A, alpha, np.array([t]), policy)[0]


def _kernel_inverse_batch(A: np.ndarray, alpha: float, s: np.ndarray,
                          policy: SeriesPolicy) -> np.ndarray:
    """E_{alpha,alpha}(A s^alpha)^(-1) over an array of lags; ``SingularKernel``
    where its singular-value ratio falls below ``SINGULAR_KERNEL_RCOND``, with
    the SVD computed only where the Frobenius certificate of
    ``_checked_inverse`` does not hold."""
    return _checked_inverse(ml_matrix_batch(A, alpha, alpha, s, policy), SINGULAR_KERNEL_RCOND)


def _checked_inverse(E: np.ndarray, rcond_threshold: float) -> np.ndarray:
    """``np.linalg.inv(E)`` over a stack of n x n matrices, refused as in
    ``_kernel_inverse_batch``.  The SVD runs only where the Frobenius
    certificate fails: r = max |E|_F |E^-1|_F >= sigma_max/sigma_min, so
    r <= 1/(2 rcond_threshold) passes the rule with a factor 2 to spare, and
    r <= 1/(64 n eps), the rank rule's margin, keeps the rounding of inv
    (about n eps cond) far inside that factor."""
    try:
        Einv = np.linalg.inv(E)
    except np.linalg.LinAlgError:
        Einv = None
    else:
        r = float((np.linalg.norm(E, axis=(-2, -1)) * np.linalg.norm(Einv, axis=(-2, -1))).max())
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
