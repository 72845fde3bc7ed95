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

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import rgamma as _rgamma

from .errors import DomainError, InvalidOrder

__all__ = [
    "TimeGrid",
    "GridFunction",
    "frac_integral_left",
    "frac_integral_right",
    "rl_derivative_left",
    "caputo_derivative",
    "rl_compose",
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
        if self.steps < 2:
            raise DomainError(f"need at least 2 steps, got {self.steps}")

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps + 1)

    def refined(self, factor: int) -> "TimeGrid":
        return TimeGrid(self.t0, self.t1, self.steps * factor)


class GridFunction:
    """Samples of a scalar- or vector-valued function on a TimeGrid.

    ``values`` has shape (N+1,) or (N+1, d); between nodes the function is
    understood as piecewise linear.
    """

    def __init__(self, grid: TimeGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape[0] != grid.steps + 1 or values.ndim not in (1, 2):
            raise DomainError(
                f"values shape {values.shape} does not match grid with "
                f"{grid.steps + 1} nodes"
            )
        if not np.isfinite(values).all():
            raise DomainError("grid function values must be finite")
        self.grid = grid
        self.values = values

    def __call__(self, t: float) -> np.ndarray:
        """Piecewise-linear evaluation at a point of [t0, t1]."""
        g = self.grid
        if not (g.t0 - 1e-12 * (g.t1 - g.t0) <= t <= g.t1 + 1e-12 * (g.t1 - g.t0)):
            raise DomainError(f"t={t} outside grid [{g.t0}, {g.t1}]")
        x = np.clip((t - g.t0) / g.h, 0.0, g.steps)
        i = min(int(x), g.steps - 1)
        w = x - i
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of a and b along axis 0, other axes broadcast;
    bitwise equal to ``scipy.signal.fftconvolve(a, b, axes=0)``."""
    if a.shape[0] == 1 or b.shape[0] == 1:
        return a * b
    n = a.shape[0] + b.shape[0] - 1
    nf = next_fast_len(n, real=True)
    return irfft(rfft(a, nf, axis=0) * rfft(b, nf, axis=0), nf, axis=0)[:n]


@functools.lru_cache(maxsize=64)
def _gauss(rule: Callable, *args):
    """Nodes and weights of the Gauss rule ``rule(*args)`` (a scipy.special
    ``roots_*`` function), computed once per arguments and read-only."""
    x, w = rule(*args)
    x.flags.writeable = w.flags.writeable = False
    return x, w


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


def frac_integral_left(f: GridFunction, alpha: float) -> GridFunction:
    """Left-sided fractional integral of order alpha >= 0.

    Node values of (1/Gamma(alpha)) * integral of f(tau) (t-tau)^(alpha-1)
    from the grid start; exact for piecewise-linear f.  Order zero is the
    identity operator.
    """
    if alpha < 0.0:
        raise InvalidOrder(f"integral order must be >= 0, got {alpha}")
    if alpha == 0.0:
        return GridFunction(f.grid, f.values.copy())
    return GridFunction(f.grid, _frac_integral_values(f.values, alpha, f.grid.h))


def frac_integral_right(f: GridFunction, alpha: float) -> GridFunction:
    """Right-sided fractional integral: mirror image of the left one, zero at
    the grid end."""
    rev = frac_integral_left(GridFunction(f.grid, f.values[::-1]), alpha)
    return GridFunction(f.grid, rev.values[::-1].copy())


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


def rl_compose(f: GridFunction, alpha: float, j: int) -> GridFunction:
    """j-fold composition of the Riemann-Liouville derivative of order alpha.

    j = 0 returns f unchanged; each step stays on the same grid without
    re-smoothing, so accuracy drops with every application.
    """
    if j < 0:
        raise InvalidOrder(f"composition count must be >= 0, got {j}")
    if j > 0:
        _check_unit_order(alpha)
    out = GridFunction(f.grid, f.values.copy())
    for _ in range(j):
        out = rl_derivative_left(out, alpha)
    return out


def singular_convolution(
    kernel_smooth: Callable[[float], np.ndarray],
    alpha: float,
    u: GridFunction,
    t_eval: float,
) -> np.ndarray:
    """Weakly singular convolution
    integral of (t_eval - tau)^(alpha-1) K(t_eval - tau) u(tau)
    from the grid start to t_eval.

    ``kernel_smooth`` maps a lag s >= 0 to the bounded kernel factor (matrix
    or scalar).  The product P(tau) = K(t_eval-tau) u(tau) is interpolated
    piecewise-linearly on the grid subintervals while the power weight is
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
    taus = nodes[nodes <= t_eval + eps]
    if taus[-1] < t_eval - eps:
        taus = np.append(taus, t_eval)
    else:
        taus = taus.copy()
        taus[-1] = t_eval
    P = np.stack(
        [np.atleast_2d(np.asarray(kernel_smooth(t_eval - tv), float)) @ np.atleast_1d(u(tv))
         for tv in taus]
    )
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
