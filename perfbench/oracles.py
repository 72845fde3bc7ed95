"""Independent references for the benchmark's accuracy gates.

Everything here is computed with mpmath, a closed form, or (for Gramian
condition numbers and energy scales, where a few digits suffice) exact
Gauss-Jacobi quadrature in float64, and never calls into fracctrl, so a defect in the package cannot hide in its own reference.
The functions return float64 values plus the cancellation factor
``sum |term| / |sum|`` of the defining series, which tells a harness whether
a miss is the known precision limit of a double-precision series or
something new.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import erf, erfcx, rgamma, roots_jacobi


def ml_matrix(A, alpha: float, beta, xs, digits: int = 20):
    """E_{alpha,beta}(A x^alpha) for each x in ``xs`` (A square, 1x1 for a
    scalar); ``beta`` is one value or one per x, and all share the powers of
    A.  Returns (values of shape (len(xs), n, n), cancellation factors).

    The working precision adapts: a first pass at ``digits + 10`` digits
    measures the cancellation, and a second pass adds the digits it costs."""
    A = np.atleast_2d(np.asarray(A, float))
    xs = np.asarray(xs, float)
    betas = np.broadcast_to(np.asarray(beta, float), xs.shape)
    dps = digits + 10
    while True:
        vals, cond = _ml_matrix_at(A, alpha, betas, xs, dps)
        need = digits + 5 + math.log10(max(float(cond.max()), 1.0))
        if dps >= need:
            return vals, cond
        dps = int(need) + 5


def _ml_matrix_at(A, alpha, betas, xs, dps):
    n = A.shape[0]
    with mp.workdps(dps):
        Am = np.array([[mp.mpf(float(v)) for v in row] for row in A], dtype=object)
        a = mp.mpf(alpha)
        uniq = sorted(set(betas.tolist()))
        which = [uniq.index(b) for b in betas.tolist()]
        xa = np.array([mp.mpf(float(x)) ** a for x in xs], dtype=object)
        total = np.zeros((len(xs), n, n), dtype=object) + mp.mpf(0)
        absum = np.zeros(len(xs), dtype=object) + mp.mpf(0)
        P = np.eye(n, dtype=object) * mp.mpf(1)
        xpow = np.ones(len(xs), dtype=object) * mp.mpf(1)
        tiny = mp.mpf(10) ** (-dps)
        small_run = 0
        for k in range(20000):
            r = [mp.rgamma(k * a + mp.mpf(b)) for b in uniq]
            c = xpow * np.array([r[w] for w in which], dtype=object)
            total += c[:, None, None] * P[None]
            mag = max(abs(v) for v in P.ravel()) * np.abs(c)
            absum += mag
            # stop after three consecutive negligible terms past the Gamma minimum
            negligible = all(m <= tiny * s for m, s in zip(mag, absum))
            small_run = small_run + 1 if negligible and k * alpha + min(uniq) > 2.0 else 0
            if small_run >= 3 or not any(P.ravel()):
                break
            xpow = xpow * xa
            P = P.dot(Am)
        vals = total.astype(float)
        scale = np.array([max(abs(v) for v in T.ravel()) for T in total], dtype=object)
        cond = np.array([float(s / m) if m != 0 else math.inf for s, m in zip(absum, scale)])
    return vals, cond


def ml_scalar(alpha: float, beta: float, zs, digits: int = 25):
    """E_{alpha,beta}(z) for each real z; returns (values, cancellation factors)."""
    zs = np.asarray(zs, float)
    zmax = float(np.abs(zs).max()) if zs.size else 0.0
    lost = zmax ** (1.0 / alpha) / math.log(10.0) + 2.0
    dps = int(digits + lost + 10)
    with mp.workdps(dps):
        K = 8
        # enough terms that z^k / Gamma(k alpha + beta) is below 10^-dps
        while K * math.log(max(zmax, 1e-300)) - math.lgamma(K * alpha + beta) > -dps * math.log(10.0):
            K += 8
        a, b = mp.mpf(alpha), mp.mpf(beta)
        r = [mp.rgamma(k * a + b) for k in range(K + 1)]
        vals, cond = [], []
        for z in zs:
            zm = mp.mpf(float(z))
            s, sa, p = mp.mpf(0), mp.mpf(0), mp.mpf(1)
            for k in range(K + 1):
                t = p * r[k]
                s += t
                sa += abs(t)
                p *= zm
            vals.append(float(s))
            cond.append(float(sa / abs(s)) if s != 0 else math.inf)
    return np.array(vals), np.array(cond)


def _powers(ts, e: float) -> np.ndarray:
    """t^e by scalar libm pow, as fracctrl computes it.  Near a zero of the
    fractional sine or cosine the value is so sensitive to its argument that
    the last bit of t^(2 alpha) (vectorized pow may round differently) moves
    it far beyond the gate, so the oracle must take the very same double."""
    return np.array([float(t) ** e for t in np.asarray(ts, float)])


def frac_sin(alpha: float, ts):
    """t^(2 alpha - 1) E_{2 alpha, 2 alpha}(-t^(2 alpha)) for each t > 0."""
    e, cond = ml_scalar(2.0 * alpha, 2.0 * alpha, -_powers(ts, 2.0 * alpha))
    return _powers(ts, 2.0 * alpha - 1.0) * e, cond


def frac_cos(alpha: float, ts):
    """t^(alpha - 1) E_{2 alpha, alpha}(-t^(2 alpha)) for each t > 0."""
    e, cond = ml_scalar(2.0 * alpha, alpha, -_powers(ts, 2.0 * alpha))
    return _powers(ts, alpha - 1.0) * e, cond


def gramian(A, B, alpha: float, T: float, nodes: int = 64) -> np.ndarray:
    """The modified Gramian
    int_0^T E_{alpha,alpha}(A s^alpha) B B^T E_{alpha,alpha}(A s^alpha)^T ds
    in float64, for condition numbers and energy scales (a few digits are all
    they need).  With s = T x^(1/alpha) the integrand is a power series in x
    times the weight x^(1/alpha - 1), which Gauss-Jacobi quadrature integrates
    exactly."""
    A = np.atleast_2d(np.asarray(A, float))
    B = np.atleast_2d(np.asarray(B, float))
    n = A.shape[0]
    b = 1.0 / alpha - 1.0
    t, w = roots_jacobi(nodes, 0.0, b)
    x, w = 0.5 * (1.0 + t), w * 2.0 ** (-b - 1.0) * T / alpha
    M = A * T**alpha
    E = np.zeros((nodes, n, n))
    P = np.eye(n)
    xk = np.ones(nodes)
    scale = 0.0
    for k in range(2000):
        term = P * rgamma((k + 1) * alpha)
        E += xk[:, None, None] * term[None]
        mag = float(np.abs(term).max())
        scale = max(scale, mag)
        if mag <= 1e-18 * scale and k * alpha > 2.0 or not P.any():
            break
        P, xk = P @ M, xk * x
    G = E @ B
    Q = np.einsum("s,sij,skj->ik", w, G, G)
    return 0.5 * (Q + Q.T)


def spd_cond(Q) -> float:
    """2-norm condition number of a symmetric positive semidefinite matrix."""
    ev = np.linalg.eigvalsh(Q)
    return float(ev.max() / ev.min()) if ev.min() > 0.0 else math.inf


def nilpotent_kernel_terms(A, alpha: float, beta: float):
    """Coefficient matrices C_k = A^k / Gamma(k alpha + beta) of the finite
    series of a nilpotent A (exact: A^n = 0)."""
    A = np.atleast_2d(np.asarray(A, float))
    n = A.shape[0]
    out, P = [], np.eye(n)
    for k in range(n):
        out.append(P * float(mp.rgamma(k * alpha + beta)))
        P = P @ A
    return out


def nilpotent_gramian(A, B, alpha: float, T: float) -> np.ndarray:
    """Closed-form modified Gramian int_0^T G(s) G(s)^T ds with
    G(s) = E_{alpha,alpha}(A s^alpha) B, for nilpotent A (a finite sum of
    powers of s, integrated exactly)."""
    C = nilpotent_kernel_terms(A, alpha, alpha)
    B = np.atleast_2d(np.asarray(B, float))
    n = B.shape[0]
    Q = np.zeros((n, n))
    for k, Ck in enumerate(C):
        for l, Cl in enumerate(C):
            p = (k + l) * alpha + 1.0
            Q += (Ck @ B) @ (Cl @ B).T * T**p / p
    return Q


def nilpotent_transition(A, alpha: float, T: float) -> np.ndarray:
    """E_{alpha,1}(A T^alpha) for nilpotent A."""
    C = nilpotent_kernel_terms(A, alpha, 1.0)
    return sum(Ck * T ** (k * alpha) for k, Ck in enumerate(C))


def nilpotent_pinv_energy(A, B, alpha: float, T: float, v) -> float:
    """Modified energy of the right-inverse control u(t) = (1/T) B^-1 g(T-t) v
    for nilpotent A and square B: (1/T^2) int_0^T |B^-1 E_{alpha,alpha}(A s^alpha)^-1 v|^2 ds,
    by tanh-sinh quadrature at 30 digits (the integrand is a polynomial in s^alpha)."""
    C = nilpotent_kernel_terms(A, alpha, alpha)
    with mp.workdps(30):
        Cm = [mp.matrix(Ck.tolist()) for Ck in C]
        Binv = mp.inverse(mp.matrix(np.asarray(B, float).tolist()))
        vm = mp.matrix([float(x) for x in v])
        a = mp.mpf(alpha)

        def integrand(s):
            E = Cm[0].copy()
            for k in range(1, len(Cm)):
                E += Cm[k] * s ** (k * a)
            w = Binv * mp.lu_solve(E, vm)
            return sum(x**2 for x in w)

        return float(mp.quad(integrand, [0, T]) / mp.mpf(T) ** 2)


def pwlinear_response(A, B, alpha: float, a, knots, values, T: float):
    """Exact x(T) of D^alpha x = A x + B u, x(0) = a, for the piecewise-linear
    control through (knots, values) (knots[0] = 0, knots[-1] = T).

    u = u0 + sum_j c_j (t - t_j)_+ with slope jumps c_j, so
    x(T) = E_{alpha,1}(A T^alpha) a + T^alpha E_{alpha,alpha+1}(A T^alpha) B u0
           + sum_j s_j^(alpha+1) E_{alpha,alpha+2}(A s_j^alpha) B c_j,  s_j = T - t_j.
    Returns (x(T), largest cancellation factor)."""
    knots = np.asarray(knots, float)
    values = np.atleast_2d(np.asarray(values, float))
    slopes = np.diff(values, axis=0) / np.diff(knots)[:, None]
    jumps = np.vstack([slopes[:1], np.diff(slopes, axis=0)])
    lags = T - knots[:-1]
    E, cond = ml_matrix(A, alpha, [1.0, alpha + 1.0] + [alpha + 2.0] * len(lags),
                        [T, T, *lags])
    Bm = np.atleast_2d(np.asarray(B, float))
    x = E[0] @ np.asarray(a, float) + T**alpha * E[1] @ Bm @ values[0]
    for j, s in enumerate(lags):
        x = x + s ** (alpha + 1.0) * E[2 + j] @ Bm @ jumps[j]
    return x, float(cond.max())


def rel_errs(x, ref, floor: float = 0.0) -> np.ndarray:
    """Elementwise |x - ref| / max(|ref|, floor); inf where x is not finite."""
    x = np.asarray(x, float)
    ref = np.asarray(ref, float)
    den = np.maximum(np.abs(ref), floor)
    with np.errstate(invalid="ignore"):
        err = np.abs(x - ref) / np.where(den > 0.0, den, 1.0)
    return np.where(np.isfinite(x), err, math.inf)


def rel_err(x, ref, floor: float = 0.0) -> float:
    """Largest elementwise relative error (see ``rel_errs``)."""
    return float(rel_errs(x, ref, floor).max())


def erfcx_cond(x) -> np.ndarray:
    """Cancellation factor of the series of E_{1/2,1}(-x) = erfcx(x), x >= 0:
    the sum of |terms| is E_{1/2,1}(x) = e^(x^2) (1 + erf(x))."""
    x = np.asarray(x, float)
    return np.exp(x**2) * (1.0 + erf(x)) / erfcx(x)


def norm_rel_err(x, ref) -> float:
    """Normwise relative error max|x - ref| / max|ref| (inf when not finite)."""
    x = np.asarray(x, float)
    ref = np.asarray(ref, float)
    if not np.isfinite(x).all():
        return math.inf
    return float(np.abs(x - ref).max() / max(np.abs(ref).max(), 1e-300))
