"""Fractional LTI system definition and forward simulation.

A system is the quadruple (A, B, C, alpha) of the Caputo-order-alpha dynamics

    D^alpha x(t) = A x(t) + B u(t),   y = C x(t),   x(0) = a,

whose explicit solution is the fractional variation-of-constants formula:
the free response E_{alpha,1}(A t^alpha) a plus the weakly singular
convolution of the alpha-exponential kernel with B u.

``simulate`` evaluates that convolution as one product integration against
the full kernel: the sampled control is read as piecewise linear, and each
hat function is integrated exactly against s^(alpha-1) E_{alpha,alpha}(A
s^alpha) B through the kernel's antiderivatives, Mittag-Leffler functions
summed in one pass with the free response.  The weights' spectra are kept;
the control's channels are transformed once, summed in frequency space and
transformed back by one inverse FFT.  The error is governed by how well the
sampled control is resolved.  At the terminal node of a closed-form control
u(T-s) = s^(1-alpha) w(s) the kernel's s^(alpha-1) cancels the cusp; w,
analytic in y = s^alpha, is interpolated quadratically in y on each panel
pair and integrated exactly against E_{alpha,alpha}(A s^alpha) B through its
moments (product integration, as in Diethelm, *The Analysis of Fractional
Differential Equations*).  Trajectories are written as CSV by the
command-line front end only (``fracctrl simulate --out``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InvalidParams, NonConvergence
from .fraccalc import (GridFunction, TimeGrid, _centered_diff, _convolved, _spectrum,
                       caputo_derivative)
from .mlkernel import (_BLOCK, _as_square, _check_order, _checked_inverse, _finite, _ml_series,
                       _rgamma_floats, ml_matrix_batch)

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

    def __init__(self, A, alpha: float, T: float):
        self.A = _as_square(A)
        _check_order(alpha)
        self.alpha = float(alpha)
        self.T = float(T)
        if not 0.0 < self.T < np.inf:
            raise InvalidParams(f"control horizon must be positive and finite, got {T}")

    def kernel_weight(self, s: np.ndarray) -> np.ndarray:
        """The bounded factor w at the lags s = T - t, shape (len(s), m)."""
        raise NotImplementedError

    def _is_own(self, alpha: float, T: float) -> bool:
        """Whether (alpha, T) is the control's own, T to 1e-12 of its own T: the
        cusp rules of simulate and the energy hold there only."""
        return alpha == self.alpha and abs(T - self.T) <= 1e-12 * self.T

    def _weight(self, s: np.ndarray, E: np.ndarray) -> np.ndarray:
        """w at the lags s from E = E_{alpha,alpha}(A s^alpha) there, if it needs E."""
        return self.kernel_weight(s)

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

    def __init__(self, A, B, alpha: float, T: float, coeff: np.ndarray):
        sys = FracSystem(A, B, alpha=alpha)
        super().__init__(sys.A, alpha, T)
        self.B = sys.B
        self.coeff = _finite(coeff, "coeff")
        if self.coeff.shape != (sys.n,):
            raise InvalidParams(f"coeff must have shape ({sys.n},), got {self.coeff.shape}")
        self.m = sys.m

    def kernel_weight(self, s: np.ndarray) -> np.ndarray:
        """w(s) = -B^T E_{alpha,alpha}(A s^alpha)^T c."""
        cE = _ml_series(self.A, self.alpha, self.alpha, np.asarray(s, float), self.coeff)
        return -(cE @ self.B)

    def _weight(self, s: np.ndarray, E: np.ndarray) -> np.ndarray:
        return -(np.einsum("i,sij->sj", self.coeff, E) @ self.B)


class PinvControl(CuspControl):
    """Right-inverse control u(t) = (1/T) B^+ g(T-t) v built from the inverse
    kernel g(s) = s^(1-alpha) E_{alpha,alpha}(A s^alpha)^(-1).

    Sampling, simulation and the energy raise ``SingularKernel`` where the
    Mittag-Leffler matrix is ill-conditioned (singular-value ratio below
    ``SINGULAR_KERNEL_RCOND``); the singular values are computed only where the
    cheaper Frobenius-norm certificate of that bound does not hold.  ``v``
    must have shape (n,) and ``B_pinv`` n columns.
    """

    def __init__(self, A, B_pinv: np.ndarray, alpha: float, T: float, v: np.ndarray):
        super().__init__(A, alpha, T)
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
        return self._weight(s, ml_matrix_batch(self.A, self.alpha, self.alpha, s))

    def _weight(self, s: np.ndarray, E: np.ndarray) -> np.ndarray:
        return np.einsum("sij,j->si", _checked_inverse(E), self.v) @ self.B_pinv.T / self.T


@dataclass
class Trajectory:
    """States, outputs (when C is present) and simulate's control samples on a uniform grid."""

    grid: TimeGrid
    states: np.ndarray
    outputs: Optional[np.ndarray] = None
    controls: Optional[np.ndarray] = None


def simulate(sys: FracSystem, a: np.ndarray, u: ControlSignal, grid: TimeGrid) -> Trajectory:
    """Forward trajectory of the system from x(0) = a under the control u.

    The convolution integrates the control, sampled on ``grid`` and read as
    piecewise linear, exactly against the full kernel; states[0] equals a
    exactly and interior states are second order in the step.  The terminal
    state under a cusp control ending at T is integrated in y = s^alpha
    instead, exactly when w is quadratic in y.  ``NonConvergence`` is raised
    when the states overflow.  Kernel work that u does not enter is kept for
    the last (sys, grid, a); ``states`` is always a new array.
    """
    a = _finite(a, "a")
    if a.shape != (sys.n,):
        raise InvalidParams(f"initial state must have shape ({sys.n},)")
    if grid.t0 != 0.0:
        raise DomainError("simulation grids start at t = 0")
    if isinstance(u, SampledControl) and u.data._outside(np.array([0.0, grid.t1])).any():
        g = u.data.grid
        raise DomainError(f"sampled control must span [0, T] = [0, {grid.t1:g}], "
                          f"got [{g.t0:g}, {g.t1:g}]")
    uf = u.sample(grid.nodes)
    if uf.shape != (grid.steps + 1, sys.m):
        raise InvalidParams(f"control sample shape {uf.shape} does not match m={sys.m}")
    cusp = isinstance(u, CuspControl) and u._is_own(sys.alpha, grid.t1)
    tab = _kernel_table(sys, grid, a, cusp)
    with np.errstate(all="ignore"):
        states = tab["x"].copy()  # plus the half hat, and the channels summed in frequency space
        states[1:] += np.einsum("c,dcn->dn", uf[0], tab["first"]) + _convolved(
            np.einsum("fc,fcn->fn", _spectrum(uf[1:]), tab["Wf"]), grid.steps)
        if cusp:
            states[-1] = tab["x"][-1] + _cusp_terminal(u, uf, grid, tab)
    if not np.isfinite(states).all():
        raise NonConvergence("simulated states overflow")
    states[0] = a
    outputs = states @ sys.C.T if sys.C is not None else None
    return Trajectory(grid=grid, states=states, outputs=outputs, controls=uf)


_TABLES: dict = {}  # simulate's most recent kernel table, {key: table}, shared by threads
_MEMO_LOCK = threading.Lock()


def _last_memo(store: dict, key, name: str, make) -> dict:
    """``store``'s entry for ``key`` once it holds ``name``, adding the arrays of
    ``make()`` on a miss.  A store keeps one key, a value (arrays mutated in place
    miss); its entries are read-only and swapped whole under one lock."""
    with _MEMO_LOCK:  # a new key: clear() (which returns None) drops the old entry first
        memo = store.get(key) or store.clear() or {}
    if name not in memo:
        memo = {**memo, **make()}
        for v in memo.values():
            v.setflags(write=False)
        with _MEMO_LOCK:
            store.clear()
            store[key] = memo
    return memo


def _kernel_table(sys: FracSystem, grid: TimeGrid, a: np.ndarray, moments: bool) -> dict:
    """simulate's control-free work, read-only: the hat weights' spectra ``Wf``,
    the half hat ``first`` at t = 0, the free response ``x`` and, once a cusp
    control needs them, the Newton-form moment terms ``dF`` and y gaps ``dy``."""
    key = (sys.A.tobytes(), sys.A.shape, sys.B.tobytes(), sys.B.shape, sys.alpha, grid,
           a.tobytes())
    At, alpha, N = sys.A.T, sys.alpha, grid.steps
    lags, ends = np.arange(N + 1) * grid.h, np.append(np.arange(0, N, 2), N)

    def hats():
        # The kernel s^(alpha-1) E_{alpha,alpha}(A s^alpha) B has antiderivatives
        # G1(s) = s^alpha E_{alpha,alpha+1}(A s^alpha) B and G2(s) = s^(alpha+1)
        # E_{alpha,alpha+2}(A s^alpha) B, kept transposed (lag, channel, state).
        # With D the first differences of G2 over h, the hat at lag d*h integrates
        # to D[d] - D[d-1] (D[-1] = 0), and the half hat at t = 0 to G1 - D.  The
        # free response a + t^alpha E_{alpha,alpha+1}(A t^alpha) A a rides as a
        # last row, scaled by 2^e to B's max-norm for the shared stop rule.
        e = np.frexp(np.abs(sys.B).max())[1] - np.frexp(np.abs(sys.A @ a).max())[1]
        L = np.vstack([sys.B.T, np.ldexp(sys.A @ a, e)])
        S = _ml_series(At, alpha, [alpha + 2.0, alpha + 1.0], lags, L)
        D = np.diff(S[0, :, :-1] * (lags ** (alpha + 1.0))[:, None, None], axis=0) / grid.h
        return {"first": S[1, 1:, :-1] * (lags[1:] ** alpha)[:, None, None] - D,
                "Wf": _spectrum(np.diff(D, axis=0, prepend=0.0)),
                "x": a + (lags ** alpha)[:, None] * np.ldexp(S[1, :, -1], -e)}

    def cusp_moments():
        # the moments at the panel-pair ends, differenced and taken in place to the Newton terms
        F = _ml_series(At, alpha, _moment_coefs(alpha), lags[ends], sys.B.T)
        F *= (lags[ends] ** (np.arange(3)[:, None] * alpha + 1.0))[..., None, None]
        y = lags[np.minimum(ends[:-1], N - 2) + np.arange(3)[:, None]] ** alpha
        dF = F[:, 1:] - F[:, :-1]
        dF[2] -= (y[0] + y[1])[:, None, None] * dF[1]
        dF[2] += (y[0] * y[1])[:, None, None] * dF[0]
        dF[1] -= y[0, :, None, None] * dF[0]
        return {"dF": dF, "dy": np.stack([y[1] - y[0], y[2] - y[1], y[2] - y[0]])[..., None]}

    with np.errstate(all="ignore"):
        tab = _last_memo(_TABLES, key, "x", hats)
        return _last_memo(_TABLES, key, "dF", cusp_moments) if moments else tab


def _moment_coefs(alpha: float) -> list:
    """c_k = 1/(Gamma(k alpha + alpha) (k alpha + p alpha + 1)) from cached rows: the
    series of x^-(p alpha + 1) int_0^x E_{alpha,alpha}(A s^alpha) B s^(p alpha) ds."""
    return [lambda k, p=p: np.divide(_rgamma_floats(alpha, alpha, int(k[0]) // _BLOCK),
                                     k * alpha + p * alpha + 1.0) for p in range(3)]


def _cusp_terminal(u: CuspControl, uf: np.ndarray, grid: TimeGrid, tab: dict) -> np.ndarray:
    """integral over [0, T] of B^T E_{alpha,alpha}(A^T s^alpha) w(s) ds from u sampled
    as ``uf`` on ``grid``, with w quadratic in y on each panel pair in Newton form (for
    odd N, the last panel's through its last three nodes), against the table's moments."""
    # in lag order, divided by the same s as u.sample multiplied; w(0) from E(0) = I/Gamma(alpha)
    s = np.maximum(u.T - grid.nodes[::-1], 0.0)
    w = uf[::-1] / (s ** (1.0 - u.alpha))[:, None]
    E0 = np.eye(len(u.A))[None] * _rgamma_floats(u.alpha, u.alpha, 0)[0]
    w[0] = u._weight(np.zeros(1), E0)[0]
    n0, dy = np.minimum(np.arange(0, grid.steps, 2), grid.steps - 2), tab["dy"]
    d1 = (w[n0 + 1] - w[n0]) / dy[0]
    d2 = ((w[n0 + 2] - w[n0 + 1]) / dy[1] - d1) / dy[2]
    return np.einsum("qpm,qpmn->n", np.stack([w[n0], d1, d2]), tab["dF"])


def caputo_residual(sys: FracSystem, traj: Trajectory) -> float:
    """Certificate that a trajectory satisfies the Caputo dynamics under the
    control samples ``traj.controls`` that ``simulate`` integrated; a
    trajectory without them, or with states or controls not of shape
    (steps + 1, n) and (steps + 1, m), raises ``InvalidParams``.

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
    for name, arr, width in (("states", X, sys.n), ("controls", traj.controls, sys.m)):
        if np.shape(arr) != (grid.steps + 1, width):
            raise InvalidParams(f"trajectory {name} must have shape ({grid.steps + 1}, {width}), "
                                f"got {np.shape(arr)}")
    lo, hi = int(np.ceil(0.05 * grid.steps)), int(np.floor(0.95 * grid.steps))
    if sys.alpha < 1.0:
        D = caputo_derivative(GridFunction(grid, X), sys.alpha).values
    else:
        D = _centered_diff(X, grid.h)
    rhs = X @ sys.A.T + traj.controls @ sys.B.T
    res = np.abs(D - rhs).max(axis=1)
    return float(res[lo : hi + 1].max())
