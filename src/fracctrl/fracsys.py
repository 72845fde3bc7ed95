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
resolved.  Closed-form controls are therefore sampled on a refinement of the
output grid, and their (T-t)^(1-alpha) terminal cusp, the accuracy
bottleneck, is integrated exactly on the terminal panel.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import roots_jacobi

from .errors import DomainError, InvalidParams
from .fraccalc import GridFunction, TimeGrid, _centered_diff, _fft_convolve, _gauss, caputo_derivative
from .mlkernel import DEFAULT_POLICY, SeriesPolicy, _kernel_inverse_batch, _ml_series

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
    "trajectory_to_csv",
    "trajectory_from_csv",
]

# Gauss-Jacobi nodes for the terminal cusp moments; their integrand is an
# entire function of y over a single step, far below degree 2 * 20 - 1
_CUSP_NODES = 20


@dataclass(frozen=True)
class FracSystem:
    """State-space data (A, B, C, alpha) with commensurate Caputo order."""

    A: np.ndarray
    B: np.ndarray
    C: Optional[np.ndarray] = None
    alpha: float = 1.0

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InvalidParams(f"A must be square, got shape {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise InvalidParams(
                f"B has {B.shape[0]} rows but the state dimension is {A.shape[0]}"
            )
        if self.C is not None:
            C = np.atleast_2d(np.asarray(self.C, dtype=float))
            object.__setattr__(self, "C", C)
            if C.shape[1] != A.shape[0]:
                raise InvalidParams(
                    f"C has {C.shape[1]} columns but the state dimension is {A.shape[0]}"
                )
            if not np.isfinite(C).all():
                raise InvalidParams("C entries must be finite")
        if not (0.0 < self.alpha <= 1.0):
            raise InvalidParams(f"order must lie in (0, 1], got {self.alpha}")
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise InvalidParams("system matrices must be finite")

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
    """Control known through samples on a grid, piecewise linear in between."""

    def __init__(self, values: GridFunction):
        vals = values.values
        if vals.ndim == 1:
            values = GridFunction(values.grid, vals[:, None])
        self.data = values
        self.m = self.data.values.shape[1]

    def sample(self, times: np.ndarray) -> np.ndarray:
        g = self.data.grid
        x = np.clip((np.asarray(times, float) - g.t0) / g.h, 0.0, g.steps)
        i = np.minimum(x.astype(int), g.steps - 1)
        w = (x - i)[:, None]
        v = self.data.values
        return (1.0 - w) * v[i] + w * v[i + 1]


class CuspControl(ControlSignal):
    """Closed-form control on [0, T] with the terminal cusp of the kernel
    laws, u(T-s) = s^(1-alpha) w(s) with a bounded factor w.

    Subclasses implement ``kernel_weight``.  ``simulate`` integrates the cusp
    on the terminal panel exactly through it, and ``modified_energy``
    integrates the neutralized integrand |w(s)|^2.
    """

    def __init__(self, A, alpha: float, T: float, policy: SeriesPolicy):
        self.A = np.atleast_2d(np.asarray(A, float))
        self.alpha = float(alpha)
        self.T = float(T)
        self.policy = policy

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
        super().__init__(A, alpha, T, policy)
        self.B = np.asarray(B, float)
        if self.B.ndim == 1:
            self.B = self.B[:, None]
        self.coeff = np.asarray(coeff, float)
        self.m = self.B.shape[1]

    def kernel_weight(self, s: np.ndarray) -> np.ndarray:
        """w(s) = -B^T E_{alpha,alpha}(A s^alpha)^T c."""
        cE = _ml_series(self.A, self.alpha, self.alpha, np.asarray(s, float), self.coeff, self.policy)
        return -(cE @ self.B)


class PinvControl(CuspControl):
    """Right-inverse control u(t) = (1/T) B^+ g(T-t) v built from the inverse
    kernel g(s) = s^(1-alpha) E_{alpha,alpha}(A s^alpha)^(-1).

    Sampling, simulation and the energy raise ``SingularKernel`` where the
    Mittag-Leffler matrix is ill-conditioned (singular-value ratio below
    ``rcond_threshold``); the singular values are computed only where the
    cheaper Frobenius-norm certificate of that bound does not hold.
    """

    def __init__(self, A, B_pinv: np.ndarray, alpha: float, T: float, v: np.ndarray,
                 policy: SeriesPolicy = DEFAULT_POLICY,
                 rcond_threshold: float = 1e-12):
        super().__init__(A, alpha, T, policy)
        self.B_pinv = np.asarray(B_pinv, float)
        self.v = np.asarray(v, float)
        self.rcond_threshold = rcond_threshold
        self.m = self.B_pinv.shape[0]

    def kernel_weight(self, s: np.ndarray) -> np.ndarray:
        """w(s) = (1/T) B^+ E_{alpha,alpha}(A s^alpha)^(-1) v."""
        Einv = _kernel_inverse_batch(self.A, self.alpha, np.asarray(s, float),
                                     self.policy, self.rcond_threshold)
        return np.einsum("sij,j->si", Einv, self.v) @ self.B_pinv.T / self.T


@dataclass
class Trajectory:
    """States (and outputs, when C is present) on a uniform grid."""

    grid: TimeGrid
    states: np.ndarray
    outputs: Optional[np.ndarray] = None


def simulate(
    sys: FracSystem,
    a: np.ndarray,
    u: ControlSignal,
    grid: TimeGrid,
    refine: Optional[int] = None,
    policy: SeriesPolicy = DEFAULT_POLICY,
) -> Trajectory:
    """Forward trajectory of the system from x(0) = a under the control u.

    The convolution integrates the control, sampled on a ``refine``-times
    finer grid and read as piecewise linear, exactly against the full kernel
    (default refinement 8 for closed-form controls, whose values between
    coarse nodes carry real information; 1 for sampled controls, which are
    piecewise linear already).  states[0] equals a exactly.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (sys.n,):
        raise InvalidParams(f"initial state must have shape ({sys.n},)")
    if grid.t0 != 0.0:
        raise DomainError("simulation grids start at t = 0")
    if refine is None:
        refine = 1 if isinstance(u, SampledControl) else 8
    fine = grid.refined(refine) if refine > 1 else grid
    uf = u.sample(fine.nodes)
    if uf.shape != (fine.steps + 1, sys.m):
        raise InvalidParams(
            f"control sample shape {uf.shape} does not match m={sys.m}"
        )
    At, Bt, alpha = sys.A.T, sys.B.T, sys.alpha
    N, h = fine.steps, fine.h
    lags = np.arange(N + 1) * h

    # The kernel s^(alpha-1) E_{alpha,alpha}(A s^alpha) B has the
    # antiderivatives G1(s) = s^alpha E_{alpha,alpha+1}(A s^alpha) B and
    # G2(s) = s^(alpha+1) E_{alpha,alpha+2}(A s^alpha) B, kept transposed
    # (lag, channel, state).  With D the first differences of G2 over h, the
    # hat function at lag d*h integrates to D[d] - D[d-1] (D[-1] = 0), and
    # the half hat at t = 0 to G1 - D.
    D = _ml_series(At, alpha, alpha + 2.0, lags, Bt, policy)
    D *= (lags ** (alpha + 1.0))[:, None, None]
    D = np.diff(D, axis=0)
    D /= h
    first = _ml_series(At, alpha, alpha + 1.0, lags[1:], Bt, policy)
    first *= (lags[1:] ** alpha)[:, None, None]
    first -= D
    W = np.diff(D, axis=0, prepend=0.0)
    del D
    conv = np.zeros((N + 1, sys.n))
    conv[1:] = uf[0] @ first
    for c in range(sys.m):
        conv[1:] += _fft_convolve(W[:, c], uf[1:, c, None])[:N]

    # A cusp control u(T-s) = s^(1-alpha) w(s) is not piecewise linear on the
    # terminal panel [0, h]: replace that panel's moment by the exact one of
    # the cusp with w interpolated linearly, removing an O(h) terminal error.
    if alpha < 1.0 and isinstance(u, CuspControl):
        w0, wh = u.kernel_weight(np.asarray([0.0, h]))
        exact = (w0 @ _cusp_moment(At, alpha, Bt, h, 0.0, policy)
                 + (wh - w0) @ _cusp_moment(At, alpha, Bt, h, 1.0, policy))
        panel = uf[-1] @ W[0] + uf[-2] @ first[0]
        conv[-1] += exact - panel

    x = _ml_series(At, alpha, 1.0, grid.nodes, a, policy)
    states = x + conv[::refine]
    states[0] = a
    outputs = states @ sys.C.T if sys.C is not None else None
    return Trajectory(grid=grid, states=states, outputs=outputs)


def _cusp_moment(At: np.ndarray, alpha: float, Bt: np.ndarray, h: float, p: float,
                 policy: SeriesPolicy) -> np.ndarray:
    """integral over [0, h] of B^T E_{alpha,alpha}(A^T s^alpha) (s/h)^p ds.

    In y = (s/h)^alpha it is (h/alpha) times the integral over [0, 1] of the
    entire function B^T E_{alpha,alpha}(A^T h^alpha y) against the weight
    y^((p+1)/alpha - 1), which a fixed Gauss-Jacobi rule integrates to
    rounding.
    """
    c = (p + 1.0) / alpha - 1.0
    x, wq = _gauss(roots_jacobi, _CUSP_NODES, 0.0, c)
    y = 0.5 * (1.0 + x)
    EB = _ml_series(At, alpha, alpha, h * y ** (1.0 / alpha), Bt, policy)
    return (h / alpha) * 0.5 ** (c + 1.0) * np.einsum("q,qij->ij", wq, EB)


def caputo_residual(
    sys: FracSystem,
    traj: Trajectory,
    u: ControlSignal,
    skip_fraction: float = 0.05,
) -> float:
    """Certificate that a trajectory satisfies the Caputo dynamics.

    Returns max over interior nodes of || D^alpha x - (A x + B u) ||_inf,
    with the derivative taken by the L1 scheme (centered differences when
    alpha = 1).  Interior means nodes with
    skip*T <= t <= (1-skip)*T: the L1 scheme is formally O(h^(2-alpha)) but
    degrades inside the initial layer, where fractional trajectories carry
    t^alpha behaviour, and inside the terminal layer when the control has
    the (T-t)^(1-alpha) cusp of the minimum-energy law.
    """
    X = traj.states
    grid = traj.grid
    N = grid.steps
    if sys.alpha < 1.0:
        D = caputo_derivative(GridFunction(grid, X), sys.alpha).values
    else:
        D = _centered_diff(X, grid.h)
    rhs = X @ sys.A.T + u.sample(grid.nodes) @ sys.B.T
    res = np.abs(D - rhs).max(axis=1)
    lo = max(1, int(np.ceil(skip_fraction * N)))
    hi = min(N, int(np.floor((1.0 - skip_fraction) * N)))
    return float(res[lo : hi + 1].max())


def trajectory_to_csv(traj: Trajectory, out) -> None:
    """Write ``t,x1..xn[,y1..yp]`` rows at full double precision (17
    significant digits) so values round-trip exactly."""
    cols = [traj.grid.nodes[:, None], traj.states]
    header = ["t"] + [f"x{i+1}" for i in range(traj.states.shape[1])]
    if traj.outputs is not None:
        cols.append(traj.outputs)
        header += [f"y{i+1}" for i in range(traj.outputs.shape[1])]
    with open(out, "w") if isinstance(out, (str, bytes)) else nullcontext(out) as fh:
        fh.write(",".join(header) + "\n")
        for row in np.hstack(cols):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def trajectory_from_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back a trajectory CSV; returns (t, x) arrays (outputs ignored)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    ncols = sum(1 for name in header if name.startswith("x"))
    return data[:, 0], data[:, 1 : 1 + ncols]
