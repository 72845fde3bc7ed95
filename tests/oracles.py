"""Independent high-precision oracles used to freeze expected test values.

Run ``python tests/oracles.py`` to regenerate every frozen constant.  All
series are summed with mpmath at 50 significant digits (110 where their terms
cancel), term by term from their definitions, with no shared code with the
package under test.
"""

import mpmath as mp

mp.mp.dps = 50


def ml_series(alpha, beta, z, terms=400):
    return mp.fsum(mp.mpf(z) ** k / mp.gamma(alpha * k + beta) for k in range(terms))


def skew_ml_coefficients(alpha, t, terms=200):
    """E_{alpha,1}(A t^alpha) for A = [[0,1],[-1,0]] equals c*I + d*A; returns (c, d)."""
    c = mp.fsum((-1) ** j * t ** (2 * j * alpha) / mp.gamma(2 * j * alpha + 1)
                for j in range(terms))
    d = mp.fsum((-1) ** j * t ** ((2 * j + 1) * alpha) / mp.gamma((2 * j + 1) * alpha + 1)
                for j in range(terms))
    return c, d


def cl_truncation(L, t):
    acc = mp.mpf(1)
    prod = mp.mpf(1)
    for k in range(1, L + 1):
        prod *= 2 * k - 1
        acc -= mp.mpf(2) ** k * mp.mpf(t) ** (2 * k - 1) / prod
    return acc / mp.sqrt(mp.pi * mp.mpf(t))


def rotation_min_energy(T=10, use_cl=None):
    """Minimal modified energy for the rotation system (alpha = 1/2),
    a = (0,1), b = 0; exact kernels, or the printed c_L cosine truncation."""
    T = mp.mpf(T)
    sin_h = lambda s: mp.e ** (-s)
    if use_cl is None:
        cos_h = lambda s: ml_series(1, mp.mpf(1) / 2, -s) / mp.sqrt(s)
    else:
        cos_h = lambda s: cl_truncation(use_cl, s)
    q00 = mp.quad(lambda s: s * sin_h(s) ** 2, [0, T])
    q01 = mp.quad(lambda s: s * sin_h(s) * cos_h(s), [0, T])
    q11 = mp.quad(lambda s: s * cos_h(s) ** 2, [0, T])
    c, d = skew_ml_coefficients(mp.mpf(1) / 2, T)
    f0, f1 = d, c  # S0(T) (0,1)^T = (d, c)
    det = q00 * q11 - q01 * q01
    return (f0 * (q11 * f0 - q01 * f1) + f1 * (-q01 * f0 + q00 * f1)) / det


def ml_cancelling(alpha, beta, z, terms=1000, dps=110):
    """E_{alpha,beta}(z) for strongly negative z, where the terms exceed the
    sum by up to 40 orders of magnitude: the series at ``dps`` digits."""
    with mp.workdps(dps):
        coefs = [1 / mp.gamma(alpha * k + beta) for k in range(terms)]
        return +mp.polyval(coefs[::-1], mp.mpf(z))


def scalar_gramian(lam, alpha, T):
    """Gramian Q_T = int_0^T E_{alpha,alpha}(lam s^alpha)^2 ds of the scalar
    system D^alpha x = lam x + u."""
    alpha, T = mp.mpf(alpha), mp.mpf(T)
    with mp.workdps(110):
        coefs = [1 / mp.gamma(alpha * k + alpha) for k in range(1000)][::-1]

    def e2(s):
        with mp.workdps(110):
            return mp.polyval(coefs, lam * s ** alpha) ** 2

    return mp.quad(e2, [0, 1, T])


def scalar_min_energy(lam, alpha, T, a, b):
    """Minimal modified energy f_T^2 / Q_T, f_T = b - E_{alpha,1}(lam T^alpha) a."""
    f = b - ml_cancelling(mp.mpf(alpha), 1, lam * mp.mpf(T) ** mp.mpf(alpha)) * a
    return f * f / scalar_gramian(lam, alpha, T)


if __name__ == "__main__":
    print("E_{0.5,0.5}(-1)        =", mp.nstr(ml_series(mp.mpf(1) / 2, mp.mpf(1) / 2, -1), 20))
    c, d = skew_ml_coefficients(mp.mpf(1) / 2, 1)
    print("E_{1/2,1}(skew A) c, d =", mp.nstr(c, 20), mp.nstr(d, 20))
    print("c_2(0.5)               =", mp.nstr(cl_truncation(2, mp.mpf(1) / 2), 20))
    print("rotation minimal energy (exact)  =", mp.nstr(rotation_min_energy(), 15))
    for L in (1, 11, 12):
        print(f"rotation m_L, L={L:2d}               =",
              mp.nstr(rotation_min_energy(use_cl=L), 15))
    for alpha in ("0.5", "0.7", "0.9"):
        print(f"Q00 of diag(-3, -0.5), alpha={alpha}, T=10 =",
              mp.nstr(scalar_gramian(-3, alpha, 10), 17))
    print("min energy, A=-2, alpha=0.9, T=10, a=1, b=0.5 =",
          mp.nstr(scalar_min_energy(-2, "0.9", 10, 1, mp.mpf("0.5")), 17))
    for alpha in ("0.9", "0.7"):
        a = mp.mpf(alpha)
        print(f"E_{{{alpha},{alpha}}}(-3 10^{alpha}) =",
              mp.nstr(ml_cancelling(a, a, -3 * mp.mpf(10) ** a), 17))
