"""Fractional integrals and derivatives on uniform grids.

The discretization is product integration throughout: the sampled function is
interpolated piecewise-linearly and the weakly singular power kernel is
integrated exactly on each subinterval.  That makes the fractional integral
exact for piecewise-linear data and uniformly second order for smooth data,
with no grid grading needed.

Accuracy caveats, documented rather than patched:

* ``rl_derivative_left`` values at the first node are unreliable whenever
  f(t0) != 0; the true Riemann-Liouville derivative blows up like
  (t - t0)^(-alpha) there.
* the L1 Caputo scheme is O(h^(2-alpha)) for smooth data but degrades inside
  an initial layer when the function carries the generic t^alpha behaviour of
  fractional trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidOrder
from .mlkernel import _count, _real, _rgamma

__all__ = [
    "TimeGrid",
    "GridFunction",
    "rl_derivative_left",
    "caputo_derivative",
    "singular_convolution",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps`` intervals spanning [t0, t1]."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not -np.inf < self.t0 < self.t1 < np.inf:
            raise DomainError(f"need finite t0 < t1, got [{self.t0}, {self.t1}]")
        object.__setattr__(self, "steps", _count(self.steps, "steps", DomainError))
        if self.steps < 2:
            raise DomainError(f"need at least 2 steps, got {self.steps}")

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps + 1)


class GridFunction:
    """Samples of a scalar- or vector-valued function on a TimeGrid.

    ``values`` has shape (N+1,) or (N+1, d); between nodes the function is
    understood as piecewise linear.
    """

    def __init__(self, grid: TimeGrid, values: np.ndarray):
        values = _real(values, "grid function")
        if values.shape[0] != grid.steps + 1 or values.ndim not in (1, 2):
            raise DomainError(
                f"values shape {values.shape} does not match grid with "
                f"{grid.steps + 1} nodes"
            )
        if not np.isfinite(values).all():
            raise DomainError("grid function values must be finite")
        self.grid = grid
        self.values = values

    def __call__(self, t) -> np.ndarray:
        """Piecewise-linear evaluation at a time or an array of times of
        [t0, t1]; the times' axes come first."""
        g, t = self.grid, np.asarray(t, dtype=float)
        out = ~((g.t0 - 1e-12 * (g.t1 - g.t0) <= t) & (t <= g.t1 + 1e-12 * (g.t1 - g.t0)))
        if out.any():
            raise DomainError(f"t={t[out][0]} outside grid [{g.t0}, {g.t1}]")
        x = np.clip((t - g.t0) / g.h, 0.0, g.steps)
        i = np.minimum(x.astype(int), g.steps - 1)
        w = np.reshape(x - i, t.shape + (1,) * (self.values.ndim - 1))
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]


def _next_fast_len(n: int) -> int:
    """The smallest 2,3,5-smooth integer >= n, a fast real FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of a and b along axis 0, other axes broadcast,
    by ``numpy.fft`` real transforms of a 2,3,5-smooth length."""
    if a.shape[0] == 1 or b.shape[0] == 1:
        return a * b
    n = a.shape[0] + b.shape[0] - 1
    nf = _next_fast_len(n)
    return np.fft.irfft(np.fft.rfft(a, nf, axis=0) * np.fft.rfft(b, nf, axis=0), nf, axis=0)[:n]


def _frac_integral_values(values: np.ndarray, beta: float, h: float) -> np.ndarray:
    """Left fractional integral of order beta > 0 at every node (distances
    measured from the grid start, which keeps tau^(beta+1) in range for large
    beta)."""
    N = values.shape[0] - 1
    tau = np.arange(N + 1) * h
    tb1 = tau ** (beta + 1.0)
    uu = values.reshape(N + 1, -1)
    a0 = tb1[:-1] - tau[1:] ** beta * (tau[1:] - (beta + 1.0) * h)
    acc = a0[:, None] * uu[0] + h ** (beta + 1.0) * uu[1:]
    if N >= 2:
        # interior weights tau_{d+1}^{b+1} - 2 tau_d^{b+1} + tau_{d-1}^{b+1}
        w = tb1[2:] - 2.0 * tb1[1:-1] + tb1[:-2]
        acc[1:] += _fft_convolve(w[:, None], uu[1:])[: N - 1]
    out = np.zeros_like(uu)
    out[1:] = (_rgamma(beta + 2.0) / h) * acc
    return out.reshape(values.shape)


def rl_derivative_left(f: GridFunction, alpha: float) -> GridFunction:
    """Riemann-Liouville derivative of order alpha in (0, 1):
    d/dt of the (1-alpha)-integral, differentiated by centered differences
    (second-order one-sided at the endpoints).

    The value at the first node is unreliable when f(t0) != 0; the continuum
    derivative is singular there.
    """
    _check_unit_order(alpha)
    g = _frac_integral_values(f.values, 1.0 - alpha, f.grid.h)
    return GridFunction(f.grid, _centered_diff(g, f.grid.h))


def _centered_diff(g: np.ndarray, h: float) -> np.ndarray:
    """Derivative of node values along axis 0 by centered differences,
    second-order one-sided at the endpoints."""
    d = np.zeros_like(g)
    d[1:-1] = (g[2:] - g[:-2]) / (2.0 * h)
    d[0] = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * h)
    d[-1] = (3.0 * g[-1] - 4.0 * g[-2] + g[-3]) / (2.0 * h)
    return d


def caputo_derivative(f: GridFunction, alpha: float) -> GridFunction:
    """Caputo derivative of order alpha in (0, 1) by the L1 scheme.

    Equivalent to the Riemann-Liouville derivative of f - f(t0) with the
    inner derivative of the piecewise-linear interpolant integrated exactly;
    O(h^(2-alpha)) on smooth data.
    """
    _check_unit_order(alpha)
    vals = f.values
    N = vals.shape[0] - 1
    h = f.grid.h
    k = np.arange(N)
    b = (k + 1.0) ** (1.0 - alpha) - k ** (1.0 - alpha)
    df = np.diff(vals.reshape(N + 1, -1), axis=0)
    out = np.zeros((N + 1, df.shape[1]))
    out[1:] = _fft_convolve(b[:, None], df)[:N] * (_rgamma(2.0 - alpha) / h**alpha)
    return GridFunction(f.grid, out.reshape(vals.shape))


def singular_convolution(
    kernel_smooth: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    u: GridFunction,
    t_eval: float,
) -> np.ndarray:
    """Weakly singular convolution
    integral of (t_eval - tau)^(alpha-1) K(t_eval - tau) u(tau)
    from the grid start to t_eval.

    ``kernel_smooth`` is called once, on the array of the K lags t_eval - tau
    at the grid nodes below t_eval and at t_eval itself, and returns the
    bounded kernel factor there: a (K, p, d) stack of matrices, K scalars, or
    one constant.  The product P(tau) = K(t_eval-tau) u(tau) is interpolated
    piecewise-linearly between those nodes while the power weight is
    integrated in closed form, so the result is deterministic for a fixed
    grid.
    """
    if alpha <= 0.0:
        raise InvalidOrder(f"convolution order must be > 0, got {alpha}")
    g = u.grid
    eps = 1e-12 * (g.t1 - g.t0)
    if not (g.t0 < t_eval <= g.t1 + eps):
        raise DomainError(f"t_eval={t_eval} outside ({g.t0}, {g.t1}]")
    t_eval = min(t_eval, g.t1)
    nodes = g.nodes
    k = int((nodes < t_eval - eps).sum())
    taus = np.append(nodes[:k], t_eval)
    U = np.vstack([u.values[:k].reshape(k, -1), np.reshape(u(t_eval), (1, -1))])
    kern = _real(kernel_smooth(t_eval - taus), "kernel")
    P = (kern @ U[:, :, None])[..., 0] if kern.ndim == 3 else kern.reshape(-1, 1) * U
    sp = t_eval - taus[:-1]
    sq = t_eval - taus[1:]
    m0 = (sp**alpha - sq**alpha) / alpha
    m1 = t_eval * m0 - (sp ** (alpha + 1.0) - sq ** (alpha + 1.0)) / (alpha + 1.0)
    slope = (P[1:] - P[:-1]) / (taus[1:] - taus[:-1])[:, None]
    parts = P[:-1] * m0[:, None] + slope * (m1 - taus[:-1] * m0)[:, None]
    return parts.sum(axis=0)


def _check_unit_order(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise InvalidOrder(f"derivative order must lie in (0, 1), got {alpha}")
