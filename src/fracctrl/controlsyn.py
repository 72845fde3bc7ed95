"""Controllability analysis and steering-control synthesis.

The modified controllability Gramian of a Caputo system of order alpha is

    Q_T = integral_0^T S(T-t) B B* S*(T-t) (T-t)^(2(1-alpha)) dt,

where S is the alpha-exponential kernel and the (T-t)^(2(1-alpha)) factor
neutralizes the (T-t)^(2(alpha-1)) singularity of S S*.  The neutralizer is
cancelled analytically here: after substituting s = T-t the integrand is the
bounded product E_{alpha,alpha}(A s^alpha) B B* E_{alpha,alpha}(A s^alpha)*,
integrated by composite Gauss-Legendre panels graded geometrically toward
s = 0 where the s^alpha terms have unbounded derivatives.

Three steering laws are provided:

* ``synthesize_min_energy`` - the Gramian-based control
  u(t) = -(T-t)^(2(1-alpha)) B* S*(T-t) Q_T^{-1} f_T,  f_T = S0(T) a - b,
  which minimizes the modified energy
  integral |(T-t)^(alpha-1) u(t)|^2 dt and attains <Q_T^{-1} f_T, f_T>.
* ``synthesize_pinv`` - for rank B = n, u(t) = (1/T) B^+ g(T-t) (b - S0(T) a)
  with g the pointwise inverse kernel.
* ``synthesize_rank_based`` - for Kalman rank n, the control
  u = K_1 psi + K_2 D^alpha psi + ... + K_n D^alpha...D^alpha psi built from
  a shaping density phi with unit integral, where
  psi(t) = g(T-t) (b - S0(T) a) phi(t) and the K_j blocks right-invert
  [B, AB, ..., A^(n-1)B].  The inverse kernel argument is T-t so that
  S(T-t) g(T-t) = I pointwise, which is what the steering computation needs.

Only the command-line front end saves a synthesis to a file and reads it back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DomainError,
    InvalidOrder,
    InvalidParams,
    NonConvergence,
    RankDeficient,
    RankDeficientB,
    SingularGramian,
)
from .fraccalc import GridFunction, TimeGrid, rl_derivative_left
from .fracsys import (
    ControlSignal,
    CuspControl,
    FracSystem,
    MinEnergyControl,
    PinvControl,
    SampledControl,
    _last_memo,
    caputo_residual,
    simulate,
)
from .mlkernel import _checked_inverse, _finite, ml_matrix_batch, state_transition

__all__ = [
    "SteeringProblem",
    "GramianResult",
    "SynthesisResult",
    "RankData",
    "SINGULAR_GRAMIAN_RCOND",
    "gramian",
    "kalman_rank",
    "synthesize_min_energy",
    "synthesize_pinv",
    "synthesize_rank_based",
    "modified_energy",
    "verify_steering",
    "SteeringReport",
]

# below this reciprocal condition estimate the Gramian is treated as singular,
# i.e. the system as practically uncontrollable
SINGULAR_GRAMIAN_RCOND = 1e-10

# a graded quadrature starts from _LEVELS panels of _ORDER Gauss nodes and deepens,
# while it has at most _MAX_LEVELS levels, until two gradings agree to _REL_TOL,
# its integrand called once per group of gradings
_GROUPS = ((12, 16), (20, 24, 28), (32, 36, 40, 44, 48))
_LEVELS, _ORDER, _MAX_LEVELS, _REL_TOL = _GROUPS[0][0], 16, _GROUPS[-1][-2], 1e-11
# the _ORDER-node Gauss-Legendre rule on [-1, 1], read-only
_XG, _WG = leggauss(_ORDER)
_XG.flags.writeable = _WG.flags.writeable = False


@dataclass(frozen=True)
class SteeringProblem:
    """Steer state a to state b over [0, T] on the given grid."""

    sys: FracSystem
    a: np.ndarray
    b: np.ndarray
    T: float
    grid: TimeGrid

    def __post_init__(self):
        object.__setattr__(self, "a", _finite(self.a, "a"))
        object.__setattr__(self, "b", _finite(self.b, "b"))
        n = self.sys.n
        if self.a.shape != (n,) or self.b.shape != (n,):
            raise InvalidParams(f"states must have shape ({n},)")
        if not 0.0 < self.T < math.inf:
            raise InvalidParams(f"horizon must be positive and finite, got {self.T}")
        if self.grid.t0 != 0.0 or not math.isclose(self.grid.t1, self.T, rel_tol=1e-12):
            raise InvalidParams("grid must span exactly [0, T]")


@dataclass(frozen=True)
class GramianResult:
    """Gramian matrix with conditioning and quadrature-error diagnostics."""

    Q: np.ndarray
    rcond: float
    quad_err: float


@dataclass(frozen=True)
class RankData:
    """Kalman block matrix [B, AB, ..., A^(n-1)B], its numerical rank, and,
    when full rank, blocks K_1..K_n with sum_j A^(j-1) B K_j = I."""

    kalman: np.ndarray
    rank: int
    K_blocks: Optional[list] = None


@dataclass
class SynthesisResult:
    """A steering control plus its defect vector and modified energy: for
    "pinv" and "rank-based", ``modified_energy`` of the control itself."""

    control: ControlSignal
    f_T: np.ndarray
    energy: float
    method: str
    gramian: Optional[GramianResult] = None


@dataclass
class SteeringReport:
    """verify_steering output; inaccuracy is reported, not raised.
    ``energy_mismatch_rel`` is inf where an energy diverges, and otherwise 0.0
    for pinv synthesis: no check."""

    terminal_error_abs: float
    terminal_error_rel: float
    energy_quadrature: float
    energy_reported: float
    energy_mismatch_rel: float
    caputo_residual: float


@functools.lru_cache(maxsize=128)
def _graded_gauss_rule(T: float, levels: int):
    """Composite Gauss-Legendre rule over [0, T]: 16 nodes on each of
    ``levels`` panels that halve toward s = 0.  Returns (nodes, weights),
    nodes ascending, read-only and built once per (T, levels), so shared by threads."""
    if not 0.0 < T < math.inf:
        raise InvalidParams(f"horizon must be positive and finite, got {T}")
    edges = np.append(0.0, T * 0.5 ** np.arange(levels)[::-1])
    lo, hi = edges[:-1], edges[1:]
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    s, w = (mid[:, None] + rad[:, None] * _XG).ravel(), (rad[:, None] * _WG).ravel()
    s.flags.writeable = w.flags.writeable = False
    return s, w


# the last (A, alpha, T)'s S0(T) and graded E_{alpha,alpha}(A s^alpha): read-only arrays
# swapped whole under fracsys's lock, so shared by threads
_KERNELS: dict = {}


def _memo(A: np.ndarray, alpha: float, T: float, name, make) -> np.ndarray:
    """The kernel memo's ``name`` for (A, alpha, T), ``make(A, alpha, T)`` on a miss."""
    key = (A.tobytes(), A.shape, alpha, T)
    return _last_memo(_KERNELS, key, name, lambda: {name: make(A, alpha, T)})[name]


def _adaptive_graded(f, T: float, what: str, kernel):
    """Gauss-Legendre quadrature over [0, T] graded toward s = 0, deepened by
    4 levels at a time until two successive gradings agree to 1e-11 relative
    in max norm, else ``NonConvergence``; returns (value, that relative
    change).  ``f(s, E)`` is the integrand at the nodes s, stacked on the
    first axis, given the memo's E = E_{alpha,alpha}(A s^alpha) there for
    ``kernel`` = (A, alpha).  A deepening splits the innermost panel into 5;
    the other panels keep their nodes bitwise (edges T 2^-j), so f sees each
    node once.  f looks ahead: one call takes the new nodes of the gradings
    of 12 and 16 levels (272), the next those of 20 to 28, the last the rest."""
    k, v0 = _ORDER, None
    for g, group in enumerate(_GROUPS):
        parts = [_graded_gauss_rule(T, lv)[0][:5 * k if lv > _LEVELS else None] for lv in group]
        s = np.concatenate(parts)
        vals = f(s, _memo(*kernel, T, g, lambda A, a, T: ml_matrix_batch(A, a, a, s)))
        for lv, p in zip(group, parts):
            new, vals = vals[:p.size], vals[p.size:]
            F = new if v0 is None else np.concatenate([new, F[k:]])
            v1 = np.einsum("s,s...->...", _graded_gauss_rule(T, lv)[1], F)
            if v0 is not None:
                if not np.isfinite(v1).all():
                    raise NonConvergence(f"{what} quadrature overflows")
                err = float(np.abs(v1 - v0).max() / max(np.abs(v1).max(), 1e-300))
                if err < _REL_TOL:
                    return v1, err
            v0 = v1
    raise NonConvergence(
        f"{what} quadrature did not reach rel_tol={_REL_TOL} within "
        f"{_MAX_LEVELS} grading levels"
    )


def gramian(sys: FracSystem, T: float) -> GramianResult:
    """Modified controllability Gramian over [0, T].

    The neutralizer is cancelled analytically, so the integrand evaluated is
    the bounded E B B* E* product; ``quad_err`` is the change under the last
    panel-deepening step.  Raises ``NonConvergence`` if no grading deepened
    from at most 44 levels meets 1e-11 relative, and ``InvalidParams`` unless
    T is positive and finite.
    """

    def integrand(s, E):
        G = E @ sys.B
        return np.einsum("sij,skj->sik", G, G)

    Q, err = _adaptive_graded(integrand, T, "gramian", (sys.A, sys.alpha))
    Q = 0.5 * (Q + Q.T)
    ev = np.linalg.eigvalsh(Q)
    rcond = float(max(ev.min(), 0.0) / ev.max()) if ev.max() > 0.0 else 0.0
    return GramianResult(Q=Q, rcond=rcond, quad_err=err)


def _numerical_rank(M: np.ndarray) -> int:
    """Rank of an n-row matrix: singular values above n * s_max * 64 eps."""
    sv = np.linalg.svd(M, compute_uv=False)
    return int((sv > M.shape[0] * sv.max(initial=0.0) * np.finfo(float).eps * 64.0).sum())


def kalman_rank(sys: FracSystem) -> RankData:
    """Kalman block matrix, numerical rank, and minimum-norm right-inverse
    blocks (via SVD pseudoinverse) when the rank is full."""
    n, m = sys.n, sys.m
    blocks = [sys.B]
    for _ in range(n - 1):
        blocks.append(sys.A @ blocks[-1])
    kal = np.hstack(blocks)
    rank = _numerical_rank(kal)
    K_blocks = None
    if rank == n:
        K = np.linalg.pinv(kal)
        K_blocks = [K[j * m : (j + 1) * m, :] for j in range(n)]
    return RankData(kalman=kal, rank=rank, K_blocks=K_blocks)


def _solve_spd(Q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Solve Q c = f for symmetric positive definite Q: Cholesky Q = U^T U,
    then U^T y = f and U c = y; ``SingularGramian`` where Cholesky fails."""
    try:
        U = np.linalg.cholesky(Q, upper=True)
    except np.linalg.LinAlgError as exc:
        raise SingularGramian("Gramian is not numerically positive definite") from exc
    return np.linalg.solve(U, np.linalg.solve(U.T, f))


def synthesize_min_energy(prob: SteeringProblem) -> SynthesisResult:
    """Minimum-modified-energy steering control.

    Returns the closed-form control with coefficient c = Q_T^{-1} f_T and
    energy <Q_T^{-1} f_T, f_T>.  Raises ``SingularGramian`` when the Gramian
    reciprocal condition estimate falls below ``SINGULAR_GRAMIAN_RCOND``
    (practical uncontrollability), unless f_T = 0, in which case the zero
    control trivially steers and is returned directly.
    """
    sys = prob.sys
    gram = gramian(sys, prob.T)
    f = _memo(sys.A, sys.alpha, prob.T, "S0", state_transition) @ prob.a - prob.b
    if np.abs(f).max() == 0.0:
        control = MinEnergyControl(sys.A, sys.B, sys.alpha, prob.T, np.zeros(sys.n))
        return SynthesisResult(control, f, 0.0, "min-energy", gram)
    if gram.rcond < SINGULAR_GRAMIAN_RCOND:
        raise SingularGramian(
            f"Gramian rcond {gram.rcond:.2e} below {SINGULAR_GRAMIAN_RCOND:.0e}; "
            "system is practically uncontrollable on this horizon"
        )
    c = _solve_spd(gram.Q, f)
    control = MinEnergyControl(sys.A, sys.B, sys.alpha, prob.T, c)
    energy = float(c @ f)
    return SynthesisResult(control, f, energy, "min-energy", gram)


def synthesize_pinv(prob: SteeringProblem) -> SynthesisResult:
    """Right-inverse steering control for systems with rank B = n.

    The control (1/T) B^+ g(T-t)(b - S0(T) a) cancels the kernel pointwise;
    its modified energy is computed by quadrature.  That energy is never
    below the minimum energy, and equals it for A = 0 but not in general
    (even for a full-rank square B it can be many times the minimum).
    """
    sys = prob.sys
    rankB = _numerical_rank(sys.B)
    if rankB < sys.n:
        raise RankDeficientB(f"rank B = {rankB} < n = {sys.n}; no right inverse")
    B_pinv = np.linalg.pinv(sys.B)
    f = _memo(sys.A, sys.alpha, prob.T, "S0", state_transition) @ prob.a - prob.b
    control = PinvControl(sys.A, B_pinv, sys.alpha, prob.T, -f)
    if np.abs(f).max() == 0.0:
        return SynthesisResult(control, f, 0.0, "pinv")
    energy = modified_energy(control, sys.alpha, prob.T)
    return SynthesisResult(control, f, energy, "pinv")


def _default_shaping_density(grid: TimeGrid, alpha: float) -> GridFunction:
    """phi(t) = c t^g (T-t)^g with g = alpha + 1, c fixed so the integral is
    exactly 1 (via the Beta function).

    Vanishing at both endpoints tames the t^(1-alpha) factor of the inverse
    kernel and the repeated Riemann-Liouville differentiation of the
    rank-based construction.
    """
    T = grid.t1
    g = alpha + 1.0
    t = grid.nodes
    log_beta = 2.0 * math.lgamma(g + 1.0) - math.lgamma(2.0 * g + 2.0)  # log B(g+1, g+1)
    c = 1.0 / (T ** (2.0 * g + 1.0) * math.exp(log_beta))
    return GridFunction(grid, c * t**g * (T - t) ** g)


def synthesize_rank_based(prob: SteeringProblem,
                          phi: Optional[GridFunction] = None) -> SynthesisResult:
    """Steering control from the Kalman right inverse and repeated
    Riemann-Liouville differentiation of psi(t) = g(T-t)(b - S0(T) a) phi(t).

    ``phi`` defaults to c t^(alpha+1) (T-t)^(alpha+1) with unit integral; a
    user-supplied density is renormalized so its trapezoid integral is
    exactly 1.  Requires alpha < 1 (the construction differentiates in the
    Riemann-Liouville sense) and Kalman rank n.
    """
    sys = prob.sys
    if not sys.alpha < 1.0:
        raise InvalidOrder("rank-based synthesis requires alpha in (0, 1)")
    rd = kalman_rank(sys)
    if rd.rank < sys.n:
        raise RankDeficient(f"Kalman rank {rd.rank} < n = {sys.n}")
    grid = prob.grid
    if phi is None:
        phi = _default_shaping_density(grid, sys.alpha)
    else:
        if phi.grid != grid:
            raise InvalidParams("phi must be sampled on the problem grid")
        mass = float(np.trapezoid(phi.values, grid.nodes))
        if abs(mass) < 1e-300:
            raise InvalidParams("phi must have nonzero integral")
        phi = GridFunction(grid, phi.values / mass)
    f = _memo(sys.A, sys.alpha, prob.T, "S0", state_transition) @ prob.a - prob.b
    if np.abs(f).max() == 0.0:
        zero = SampledControl(GridFunction(grid, np.zeros((grid.steps + 1, sys.m))))
        return SynthesisResult(zero, f, 0.0, "rank-based")
    s = prob.T - grid.nodes
    Einv = _checked_inverse(ml_matrix_batch(sys.A, sys.alpha, sys.alpha, s))
    psi = (s ** (1.0 - sys.alpha))[:, None] * np.einsum("sij,j->si", Einv, -f)
    psi = psi * phi.values[:, None]
    u_vals = psi @ rd.K_blocks[0].T
    cur = GridFunction(grid, psi)
    for j in range(1, sys.n):
        cur = rl_derivative_left(cur, sys.alpha)
        u_vals = u_vals + cur.values @ rd.K_blocks[j].T
    control = SampledControl(GridFunction(grid, u_vals))
    energy = modified_energy(control, sys.alpha, prob.T)
    return SynthesisResult(control, f, energy, "rank-based")


def _energy_bounded(u: CuspControl, T: float) -> float:
    """Energy via the algebraically neutralized integrand |w(s)|^2 exposed by
    cusp controls (u(T-s) = s^(1-alpha) w(s)), graded toward s = 0 only: w is
    analytic in y = s^alpha, so nothing is singular at s = T."""

    def integrand(s, E):
        W = u._weight(s, E)
        return np.einsum("sj,sj->s", W, W)

    return float(_adaptive_graded(integrand, T, "energy", (u.A, u.alpha))[0])


def _power_moment(e: float, s1: float) -> float:
    """integral of s^e over [0, s1]; ``inf`` where it diverges (e <= -1)."""
    p = e + 1.0
    return s1**p / p if p > 0.0 else math.inf


def _energy_sampled(u: SampledControl, alpha: float, T: float) -> float:
    """Energy of a piecewise-linear control by product integration: the
    squared interpolant (quadratic per panel) against exact moments of the
    s^(2 alpha - 2) weight.

    Returns ``inf`` when u(T) != 0 and alpha <= 1/2, where the modified
    energy genuinely diverges.  The grid may reach beyond [0, T], as in
    ``simulate``; the panels are its nodes inside (0, T), with 0 and T as ends.
    """
    g, nodes = u.data.grid, u.data.grid.nodes
    if u.data._outside(np.array([0.0, T])).any():
        raise DomainError("sampled control grid must span [0, T]")
    inner = (nodes > 0.0) & (nodes < T)
    # the reader returns a sample exactly at t0, and at t1 only as its last one
    end = u.data.values[-1] if g.t1 == T else u.data(T)
    vals = np.vstack((u.data(0.0), u.data.values[inner], end))[::-1]  # in s = T - t
    snodes = (T - np.concatenate(([0.0], nodes[inner], [T])))[::-1]
    e = 2.0 * alpha - 2.0

    # panel touching s = 0 (t = T) handled alone: moments may diverge there
    s1 = snodes[1]
    u0, u1 = vals[0], vals[1]
    a1 = (u1 - u0) / s1
    total = float(a1 @ a1) * _power_moment(e + 2.0, s1)
    if np.abs(u0).max() != 0.0:
        total += (float(u0 @ u0) * _power_moment(e, s1)
                  + 2.0 * float(u0 @ a1) * _power_moment(e + 1.0, s1))
    if not np.isfinite(total):
        return math.inf

    s0v, s1v = snodes[1:-1], snodes[2:]
    u0v, u1v = vals[1:-1], vals[2:]
    a1v = (u1v - u0v) / (s1v - s0v)[:, None]
    a0v = u0v - a1v * s0v[:, None]
    if e == -1.0:
        M0 = np.log(s1v / s0v)
    else:
        M0 = (s1v ** (e + 1.0) - s0v ** (e + 1.0)) / (e + 1.0)
    M1 = (s1v ** (e + 2.0) - s0v ** (e + 2.0)) / (e + 2.0)
    M2 = (s1v ** (e + 3.0) - s0v ** (e + 3.0)) / (e + 3.0)
    total += float(
        np.einsum("ij,ij,i->", a0v, a0v, M0)
        + 2.0 * np.einsum("ij,ij,i->", a0v, a1v, M1)
        + np.einsum("ij,ij,i->", a1v, a1v, M2)
    )
    return float(total)  # the first panel's moments are numpy scalars


def _check_own_horizon(u: CuspControl, alpha: float, T: float) -> None:
    """``DomainError`` unless alpha and T are the cusp control's own (T to
    1e-12 relative): its energy rule holds there only."""
    if not u._is_own(alpha, T):
        raise DomainError(f"a cusp control of (alpha, T) = ({u.alpha}, {u.T}) has no "
                          f"energy rule at (alpha, T) = ({alpha}, {T})")


def modified_energy(u: ControlSignal, alpha: float, T: float) -> float:
    """The weighted energy functional  integral_0^T |(T-t)^(alpha-1) u(t)|^2 dt.

    Cusp controls expose a bounded neutralized integrand, graded toward
    T - t = 0, and raise ``DomainError`` unless alpha and T are their own (T
    to 1e-12 relative); sampled controls are product-integrated exactly per
    panel.  Any other control raises ``InvalidParams``.
    """
    if isinstance(u, CuspControl):
        _check_own_horizon(u, alpha, T)
        return _energy_bounded(u, T)
    if isinstance(u, SampledControl):
        return _energy_sampled(u, alpha, T)
    raise InvalidParams(f"no energy rule for control of type {type(u).__name__}")


def verify_steering(prob: SteeringProblem, result: SynthesisResult) -> SteeringReport:
    """End-to-end certificate: simulate the synthesized control, measure the
    terminal miss, take the energy by quadrature, and attach the Caputo
    residual of the computed trajectory from the control samples simulate
    recorded.  A pinv result's energy is already that quadrature and is
    reused once prob's alpha and T pass ``modified_energy``'s check
    (``DomainError``).  Inaccuracy shows up as large numbers in the report;
    simulated states that overflow raise ``NonConvergence``."""
    sys, u = prob.sys, result.control
    traj = simulate(sys, prob.a, u, prob.grid)
    term_abs = float(np.abs(traj.states[-1] - prob.b).max())
    term_rel = term_abs / max(1.0, float(np.abs(prob.b).max()))
    if result.method == "pinv":
        _check_own_horizon(u, sys.alpha, prob.T)
        e_quad = result.energy
    else:
        e_quad = modified_energy(u, sys.alpha, prob.T)
    mismatch = (math.inf if math.isinf(e_quad) or math.isinf(result.energy)  # not inf - inf
                else abs(e_quad - result.energy) / (1.0 + abs(result.energy)))
    return SteeringReport(
        terminal_error_abs=term_abs,
        terminal_error_rel=term_rel,
        energy_quadrature=e_quad,
        energy_reported=result.energy,
        energy_mismatch_rel=mismatch,
        caputo_residual=caputo_residual(sys, traj),
    )

