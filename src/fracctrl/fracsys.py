"""Fractional LTI system definition and forward simulation.

A system is the quadruple (A, B, C, alpha) of the Caputo-order-alpha dynamics

    D^alpha x(t) = A x(t) + B u(t),   y = C x(t),   x(0) = a,

whose explicit solution is the fractional variation-of-constants formula:
the free response through E_{alpha,1}(A t^alpha) plus the weakly singular
convolution of the alpha-exponential kernel with B u.

``simulate`` evaluates that convolution as one product integration against
the full kernel: the sampled control is read as piecewise linear, and each
hat function is integrated exactly against s^(alpha-1) E_{alpha,alpha}(A
s^alpha) B through the kernel's antiderivatives, which are Mittag-Leffler
functions themselves.  The weights form one discrete convolution, done by
FFT once per input channel.  The kernel's non-smoothness never touches the
quadrature, so the error is governed by how well the sampled control is
resolved.  At the terminal node of a closed-form control u(T-s) = s^(1-alpha)
w(s) the kernel's s^(alpha-1) cancels the cusp; w, analytic in y = s^alpha,
is interpolated quadratically in y on each panel pair and integrated exactly
against E_{alpha,alpha}(A s^alpha) B through its moments (product
integration, as in Diethelm, *The Analysis of Fractional Differential
Equations*).  Trajectories are written as CSV by the command-line front end
only (``fracctrl simulate --out``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InvalidParams, NonConvergence
from .fraccalc import GridFunction, TimeGrid, _centered_diff, _fft_convolve, caputo_derivative
from .mlkernel import (DEFAULT_POLICY, SeriesPolicy, _as_square, _check_order, _finite,
                       _kernel_inverse_batch, _ml_series, _rgamma_floats)

__all__ = [
    "FracSystem",
    "ControlSignal",
    "SampledControl",
    "CuspControl",
    "MinEnergyControl",
    "PinvControl",
    "Trajectory",
    "simulate",
    "caputo_residual",
]

@dataclass(frozen=True)
class FracSystem:
    """State-space data (A, B, C, alpha) with commensurate Caputo order:
    finite matrices A (n x n), B (n x m; a vector is one column) and an
    optional C (p x n; a vector is one row), and alpha in (0, 1].  Anything
    else raises ``InvalidParams``."""

    A: np.ndarray
    B: np.ndarray
    C: Optional[np.ndarray] = None
    alpha: float = 1.0

    def __post_init__(self):
        A = _as_square(self.A)
        B = _finite(self.B, "B")
        B = B[:, None] if B.ndim == 1 else B
        C = None if self.C is None else np.atleast_2d(_finite(self.C, "C"))
        n = A.shape[0]
        if B.ndim != 2 or B.shape[0] != n:
            raise InvalidParams(f"B must be a 2-D matrix with {n} rows, got shape {B.shape}")
        if C is not None and (C.ndim != 2 or C.shape[1] != n):
            raise InvalidParams(f"C must be a 2-D matrix with {n} columns, got shape {C.shape}")
        _check_order(self.alpha)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


class ControlSignal:
    """A control u(.) on [0, T]; subclasses implement vectorized sampling."""

    m: int

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Values at the given times, shape (len(times), m)."""
        raise NotImplementedError

    def evaluate(self, t: float) -> np.ndarray:
        return self.sample(np.asarray([t], dtype=float))[0]


class SampledControl(ControlSignal):
    """Control known through samples on a grid, piecewise linear in between;
    sampled outside its grid it raises ``DomainError``."""

    def __init__(self, values: GridFunction):
        if values.values.ndim == 1:
            values = GridFunction(values.grid, values.values[:, None])
        self.data, self.m = values, values.values.shape[1]

    def sample(self, times: np.ndarray) -> np.ndarray:
        return self.data(times)


class CuspControl(ControlSignal):
    """Closed-form control on [0, T] with the terminal cusp of the kernel
    laws, u(T-s) = s^(1-alpha) w(s) with a bounded factor w.

    Subclasses implement ``kernel_weight``.  ``simulate`` integrates the
    terminal state as a smooth function of y = s^alpha through it, and
    ``modified_energy`` integrates the neutralized integrand |w(s)|^2.  A
    that is not a finite square matrix, alpha outside (0, 1] and a horizon
    that is not positive and finite raise ``InvalidParams``.
    """

    def __init__(self, A, alpha: float, T: float, policy: SeriesPolicy):
        self.A = _as_square(A)
        _check_order(alpha)
        self.alpha = float(alpha)
        self.T = float(T)
        self.policy = policy
        if not 0.0 < self.T < np.inf:
            raise InvalidParams(f"control horizon must be positive and finite, got {T}")

    def kernel_weight(self, s: np.ndarray) -> np.ndarray:
        """The bounded factor w at the lags s = T - t, shape (len(s), m)."""
        raise NotImplementedError

    def sample(self, times: np.ndarray) -> np.ndarray:
        s = self.T - np.asarray(times, float)
        if (s < -1e-12 * self.T).any():
            raise DomainError("control sampled beyond its horizon")
        s = np.maximum(s, 0.0)
        return (s ** (1.0 - self.alpha))[:, None] * self.kernel_weight(s)


class MinEnergyControl(CuspControl):
    """Closed-form Gramian-based control
    u(t) = -(T-t)^(1-alpha) B^T E_{alpha,alpha}(A (T-t)^alpha)^T c.

    For alpha < 1 the (T-t)^(1-alpha) factor makes u(T) = 0 exactly; at
    alpha = 1 the natural (nonzero) terminal value is kept.
    """

    def __init__(self, A, B, alpha: float, T: float, coeff: np.ndarray,
                 policy: SeriesPolicy = DEFAULT_POLICY):
        sys = FracSystem(A, B, alpha=alpha)
        super().__init__(sys.A, alpha, T, policy)
        self.B = sys.B
        self.coeff = _finite(coeff, "coeff")
        if self.coeff.shape != (sys.n,):
            raise InvalidParams(f"coeff must have shape ({sys.n},), got {self.coeff.shape}")
        self.m = sys.m

    def kernel_weight(self, s: np.ndarray) -> np.ndarray:
        """w(s) = -B^T E_{alpha,alpha}(A s^alpha)^T c."""
        cE = _ml_series(self.A, self.alpha, self.alpha, np.asarray(s, float), self.coeff, self.policy)
        return -(cE @ self.B)


class PinvControl(CuspControl):
    """Right-inverse control u(t) = (1/T) B^+ g(T-t) v built from the inverse
    kernel g(s) = s^(1-alpha) E_{alpha,alpha}(A s^alpha)^(-1).

    Sampling, simulation and the energy raise ``SingularKernel`` where the
    Mittag-Leffler matrix is ill-conditioned (singular-value ratio below
    ``SINGULAR_KERNEL_RCOND``); the singular values are computed only where the
    cheaper Frobenius-norm certificate of that bound does not hold.  ``v``
    must have shape (n,) and ``B_pinv`` n columns.
    """

    def __init__(self, A, B_pinv: np.ndarray, alpha: float, T: float, v: np.ndarray,
                 policy: SeriesPolicy = DEFAULT_POLICY):
        super().__init__(A, alpha, T, policy)
        self.B_pinv = _finite(B_pinv, "B_pinv")
        self.v = _finite(v, "v")
        n = self.A.shape[0]
        if self.v.shape != (n,):
            raise InvalidParams(f"v must have shape ({n},), got {self.v.shape}")
        if self.B_pinv.ndim != 2 or self.B_pinv.shape[1] != n:
            raise InvalidParams(f"B_pinv must be a 2-D matrix with {n} columns, "
                                f"got shape {self.B_pinv.shape}")
        self.m = self.B_pinv.shape[0]

    def kernel_weight(self, s: np.ndarray) -> np.ndarray:
        """w(s) = (1/T) B^+ E_{alpha,alpha}(A s^alpha)^(-1) v."""
        Einv = _kernel_inverse_batch(self.A, self.alpha, np.asarray(s, float), self.policy)
        return np.einsum("sij,j->si", Einv, self.v) @ self.B_pinv.T / self.T


@dataclass
class Trajectory:
    """States, outputs (when C is present) and simulate's control samples on a uniform grid."""

    grid: TimeGrid
    states: np.ndarray
    outputs: Optional[np.ndarray] = None
    controls: Optional[np.ndarray] = None


def simulate(
    sys: FracSystem,
    a: np.ndarray,
    u: ControlSignal,
    grid: TimeGrid,
    policy: SeriesPolicy = DEFAULT_POLICY,
) -> Trajectory:
    """Forward trajectory of the system from x(0) = a under the control u.

    The convolution integrates the control, sampled on ``grid`` and read as
    piecewise linear, exactly against the full kernel; states[0] equals a
    exactly and interior states are second order in the step.  The terminal
    state under a cusp control ending at T is integrated in y = s^alpha
    instead, exactly when w is quadratic in y.  ``NonConvergence`` is raised
    when the states overflow.  Kernel work that u does not enter is kept for
    the last (sys, grid, a, policy); ``states`` is always a new array.
    """
    a = _finite(a, "a")
    if a.shape != (sys.n,):
        raise InvalidParams(f"initial state must have shape ({sys.n},)")
    if grid.t0 != 0.0:
        raise DomainError("simulation grids start at t = 0")
    if isinstance(u, SampledControl):
        g, T = u.data.grid, grid.t1
        tol = 1e-12 * (g.t1 - g.t0)  # the tolerance of its reader, GridFunction
        if g.t0 - tol > 0.0 or g.t1 + tol < T:
            raise DomainError(f"sampled control must span [0, T] = [0, {T:g}], "
                              f"got [{g.t0:g}, {g.t1:g}]")
    uf = u.sample(grid.nodes)
    if uf.shape != (grid.steps + 1, sys.m):
        raise InvalidParams(f"control sample shape {uf.shape} does not match m={sys.m}")
    cusp = (isinstance(u, CuspControl) and u.alpha == sys.alpha
            and abs(u.T - grid.t1) <= 1e-12 * grid.t1)
    tab = _kernel_table(sys, grid, a, policy, cusp)
    with np.errstate(all="ignore"):
        conv = np.zeros((grid.steps + 1, sys.n))
        conv[1:] = uf[0] @ tab["first"]
        for c in range(sys.m):
            conv[1:] += _fft_convolve(tab["W"][:, c], uf[1:, c, None])[:grid.steps]
        states = tab["x"] + conv
        if cusp:
            states[-1] = tab["x"][-1] + _cusp_terminal(u, uf, grid, tab["F"])
    if not np.isfinite(states).all():
        raise NonConvergence("simulated states overflow")
    states[0] = a
    outputs = states @ sys.C.T if sys.C is not None else None
    return Trajectory(grid=grid, states=states, outputs=outputs, controls=uf)


_TABLES: dict = {}  # simulate's most recent kernel table, {key: table}, under the lock
_TABLES_LOCK = threading.Lock()


def _kernel_table(sys: FracSystem, grid: TimeGrid, a: np.ndarray, policy: SeriesPolicy,
                  moments: bool) -> dict:
    """simulate's control-free work, read-only: hat weights ``W``, the half hat
    ``first`` at t = 0, the free response ``x`` and, once a cusp control needs
    them, the moments ``F``.  Keyed by value: arrays mutated in place miss."""
    key = (sys.A.tobytes(), sys.A.shape, sys.B.tobytes(), sys.B.shape, sys.alpha, grid,
           a.tobytes(), policy)
    with _TABLES_LOCK:  # a miss: clear() (which returns None) drops the old table first
        tab = _TABLES.get(key) or _TABLES.clear()
    if tab is not None and ("F" in tab or not moments):
        return tab
    tab, At, Bt, alpha, N = dict(tab or {}), sys.A.T, sys.B.T, sys.alpha, grid.steps
    lags = np.arange(N + 1) * grid.h
    with np.errstate(all="ignore"):
        if "x" not in tab:
            # The kernel s^(alpha-1) E_{alpha,alpha}(A s^alpha) B has the
            # antiderivatives G1(s) = s^alpha E_{alpha,alpha+1}(A s^alpha) B and
            # G2(s) = s^(alpha+1) E_{alpha,alpha+2}(A s^alpha) B, kept transposed
            # (lag, channel, state).  With D the first differences of G2 over h, the
            # hat function at lag d*h integrates to D[d] - D[d-1] (D[-1] = 0), and
            # the half hat at t = 0 to G1 - D, needed at the output lags only.
            S = _ml_series(At, alpha, [alpha + 2.0, alpha + 1.0], lags, Bt, policy)
            D = np.diff(S[0] * (lags ** (alpha + 1.0))[:, None, None], axis=0)
            D /= grid.h
            tab["first"] = S[1, 1:] * (lags[1:] ** alpha)[:, None, None]
            tab["first"] -= D
            tab["W"] = np.diff(D, axis=0, prepend=0.0)
            del D, S
            tab["x"] = _ml_series(At, alpha, 1.0, grid.nodes, a, policy)
        if moments:
            ends = np.append(np.arange(0, N, 2), N)
            tab["F"] = _ml_series(At, alpha, _moment_coefs(alpha), lags[ends], Bt, policy)
            tab["F"] *= (lags[ends] ** (np.arange(3)[:, None] * alpha + 1.0))[..., None, None]
    for v in tab.values():
        v.setflags(write=False)
    with _TABLES_LOCK:
        _TABLES.clear()
        _TABLES[key] = tab  # a new dict: a table handed out never changes
    return tab


def _moment_coefs(alpha: float) -> list:
    """c_k = 1/(Gamma(k alpha + alpha) (k alpha + p alpha + 1)) from cached rows: the
    series of x^-(p alpha + 1) int_0^x E_{alpha,alpha}(A s^alpha) B s^(p alpha) ds."""
    return [lambda k, p=p: np.divide(_rgamma_floats(alpha, alpha, int(k[0]) // 16),
                                     k * alpha + p * alpha + 1.0) for p in range(3)]


def _cusp_terminal(u: CuspControl, uf: np.ndarray, grid: TimeGrid, F: np.ndarray) -> np.ndarray:
    """integral over [0, T] of B^T E_{alpha,alpha}(A^T s^alpha) w(s) ds from u
    sampled as ``uf`` on ``grid``, with w quadratic in y on each panel pair
    in Newton form (for odd N, the last panel's through its last three
    nodes), against the exact moments ``F`` at the panel-pair ends."""
    # in lag order, divided by the same s as u.sample multiplied; w(0) directly
    s = np.maximum(u.T - grid.nodes[::-1], 0.0)
    w = uf[::-1] / (s ** (1.0 - u.alpha))[:, None]
    w[0] = u.kernel_weight(np.zeros(1))[0]
    y, N = (np.arange(grid.steps + 1) * grid.h) ** u.alpha, grid.steps
    ends = np.append(np.arange(0, N, 2), N)
    n0 = np.minimum(ends[:-1], N - 2)
    y0, y1, y2 = y[n0, None], y[n0 + 1, None], y[n0 + 2, None]
    d1 = (w[n0 + 1] - w[n0]) / (y1 - y0)
    d2 = ((w[n0 + 2] - w[n0 + 1]) / (y2 - y1) - d1) / (y2 - y0)
    dF = F[:, 1:] - F[:, :-1]
    I1 = dF[1] - y0[..., None] * dF[0]
    I2 = dF[2] - (y0 + y1)[..., None] * dF[1] + (y0 * y1)[..., None] * dF[0]
    return np.einsum("qpm,qpmn->n", np.stack([w[n0], d1, d2]), np.stack([dF[0], I1, I2]))


def caputo_residual(sys: FracSystem, traj: Trajectory) -> float:
    """Certificate that a trajectory satisfies the Caputo dynamics under the
    control samples ``traj.controls`` that ``simulate`` integrated; a
    trajectory without them raises ``InvalidParams``.

    Returns max over interior nodes of || D^alpha x - (A x + B u) ||_inf,
    with the derivative taken by the L1 scheme (centered differences when
    alpha = 1).  Interior means the fixed nodes with 0.05 T <= t <= 0.95 T
    (at least one node of any grid): the L1 scheme is formally
    O(h^(2-alpha)) but degrades inside the initial layer, where fractional
    trajectories carry t^alpha behaviour, and inside the terminal layer when
    the control has the (T-t)^(1-alpha) cusp of the minimum-energy law.
    """
    if traj.controls is None:
        raise InvalidParams("the trajectory has no control samples; take it from simulate")
    X, grid = traj.states, traj.grid
    lo, hi = int(np.ceil(0.05 * grid.steps)), int(np.floor(0.95 * grid.steps))
    if sys.alpha < 1.0:
        D = caputo_derivative(GridFunction(grid, X), sys.alpha).values
    else:
        D = _centered_diff(X, grid.h)
    rhs = X @ sys.A.T + traj.controls @ sys.B.T
    res = np.abs(D - rhs).max(axis=1)
    return float(res[lo : hi + 1].max())
