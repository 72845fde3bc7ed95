"""The four benchmark workloads.

Each workload turns ``(seed, pass index)`` into a list of operations.  An
operation carries the timed call into fracctrl (``run``), a check made after
the timer stops (``check``), and a summary of its inputs (``info``).  Oracles
come from ``oracles`` (mpmath and closed forms) and are computed outside every
timed region.  Passes are generated one at a time, so a run that lasts longer
sees more distinct inputs; the same seed always yields the same sequence.

Accounting: an operation fails when it raises, when a CLI child exits
non-zero, or when any of its gates misses.  Every failure counts.  A failure
is *known* only when every miss and refusal in it is a defect listed in
``KNOWN_DEFECTS``, within the limits stated there; anything else (another
exception, a traceback, an unparsable output, a miss or refusal outside those
limits) marks the run as incorrect.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import erfcx

import oracles

ALPHAS = (0.3, 0.5, 0.7, 0.9, 1.0)
HORIZONS = (1.0, 2.0, 5.0)
STEER_STEPS = 2048
EPS = 2.0**-52        # unit roundoff of the double-precision series
EPS_DD = 2.0**-104    # of the double-double scalar series

# Gate tolerances.  Steering gates are those of acceptance criterion 5
# (closed form) and criterion 11 (rank-based); kernel gates are the scalar
# gates of criterion 10.
TERMINAL_TOL = 1e-3
TERMINAL_TOL_RANK = 1e-2
ENERGY_TOL = 1e-6
KERNEL_TOL = 1e-10
STATE_TOL = 1e-8      # simulate of a piecewise-linear control is exact up to rounding
GRAMIAN_TOL = 1e-8    # criterion 1
# criterion 10's N=2048 tolerances, scaled to N=512 by the h^(1+alpha) order
# of product integration against the s^(alpha-1) weight
CONV_TOL = {a: tol * 4.0 ** (1.0 + a) for a, tol in {0.3: 1e-2, 0.5: 1e-3, 0.9: 1e-5}.items()}
EXAMPLE2_ENERGY = 0.143264167448  # 50-digit mpmath oracle value quoted in README

# Limits of the known defects, each set from measurements of the current
# package.  The cusp defect of a closed-form control grows with the step and
# with the size of the control, so a terminal miss is known while
# terminal_err * N <= CUSP_SLACK * sqrt(max(1, E)), E the oracle's minimum
# energy f^T Q^-1 f: over about 1200 draws (N = 256..2048) the left side
# reaches at most a tenth of the right.  A closed-form energy
# identity loses about cond * 1e-13 (3.4e-7 seen at cond 1.3e6), so a miss is
# known on a Gramian whose condition number exceeds ILLCOND_GRAMIAN.
# SingularGramian refuses below rcond 1e-10; the oracle's condition number of
# a refused Gramian must be at least REFUSED_GRAMIAN.  A kernel miss is
# cancellation when, at every point that misses, the error is within
# CANCEL_SLACK times that point's cancellation factor times unit roundoff.
CUSP_SLACK = 2.0
ILLCOND_GRAMIAN = 1e6
REFUSED_GRAMIAN = 1e9
CANCEL_SLACK = 10.0

# Defects of the current package.  Their misses and refusals still count as
# failures; within the limits above they do not make a run incorrect.
KNOWN_DEFECTS = {
    "rank": "synthesize_rank_based misses the terminal gate of criterion 11 on about half "
            "of all draws, and the miss does not shrink with N; known while finite",
    "cusp": "closed-form controls: first-order simulate of the (T-t)^(1-alpha) control cusp "
            "(ROADMAP item 3); known within CUSP_SLACK",
    "diverged": "rank-based control with u(T) != 0 and alpha <= 1/2: the modified energy "
                "diverges (inf), so the energy mismatch is not finite",
    "illcond": "closed-form energy identity on a Gramian with condition number "
               "above ILLCOND_GRAMIAN",
    "cancellation": "a double or double-double series cancels; see CANCEL_SLACK "
                    "(ROADMAP item 2)",
    "SingularGramian": "refusal of a Gramian whose condition number is at least REFUSED_GRAMIAN",
    "SingularKernel": "refusal by the inverse-kernel methods (pinv, rank-based) where "
                      "E_{alpha,alpha}(A s^alpha) is singular",
    "NonConvergence": "ml_scalar's double-double series overflows on E_{1/2,1}(-x) near x = 8; "
                      "known on the erfcx sweep only",
}


@dataclass
class Outcome:
    ok: bool
    failure: Optional[str] = None
    known: bool = True
    acc: dict = field(default_factory=dict)


def no_refusal(name: str) -> Optional[str]:
    return None


@dataclass
class Op:
    """``refusal`` maps the class name of a ``FracctrlError`` the call raised
    to the ``KNOWN_DEFECTS`` entry that explains it, or None."""
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    info: dict
    refusal: Callable[[str], Optional[str]] = no_refusal


def rng_for(seed: int, p: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, p, zlib.crc32(workload.encode())])


def judge(acc: dict, limits: dict, known: dict | None = None) -> Outcome:
    """Compare accuracy figures against their gates.  ``known`` maps a gate to
    the ``KNOWN_DEFECTS`` entry that explains a miss on it, or None; the
    failure is known only when every missed gate is explained."""
    known = known or {}
    misses = [g for g, tol in limits.items() if not acc.get(g, math.inf) <= tol]
    if not misses:
        return Outcome(True, acc=acc)
    labels = [f"{g}[{known[g]}]" if known.get(g) else g for g in misses]
    return Outcome(False, "gate:" + ",".join(labels), all(known.get(g) for g in misses), acc)


def cancellation(errs, conds, unit: float, tol: float) -> Optional[str]:
    """"cancellation" when the error at every point that misses ``tol`` is
    within CANCEL_SLACK * cond * unit of that same point, else None."""
    errs, conds = np.atleast_1d(errs), np.atleast_1d(conds)
    miss = ~(errs <= tol)
    return "cancellation" if np.all(errs[miss] <= CANCEL_SLACK * conds[miss] * unit) else None


def steering_known(acc: dict, rank: bool, A, B, alpha: float, T: float, N: int, f) -> dict:
    """The defects that explain a terminal or energy miss of a steering
    operation with oracle steering defect ``f``."""
    if rank:
        diverged = alpha <= 0.5 and not math.isfinite(acc["energy_mismatch"])
        return {"terminal_err": "rank" if math.isfinite(acc["terminal_err"]) else None,
                "energy_mismatch": "diverged" if diverged else None}
    energy_gates = ("energy_mismatch", "energy_err")
    if acc["terminal_err"] <= TERMINAL_TOL and all(acc.get(g, 0.0) <= ENERGY_TOL for g in energy_gates):
        return {}
    Q = oracles.gramian(A, B, alpha, T)
    energy = float(f @ np.linalg.lstsq(Q, f, rcond=None)[0])
    cusp = acc["terminal_err"] * N <= CUSP_SLACK * math.sqrt(max(1.0, energy))
    illcond = oracles.spd_cond(Q) >= ILLCOND_GRAMIAN
    return {"terminal_err": "cusp" if cusp else None,
            **{g: "illcond" if illcond else None for g in energy_gates}}


def steering_refusal(A, B, alpha, T, inverse_kernel: bool) -> Callable[[str], Optional[str]]:
    def refusal(name: str) -> Optional[str]:
        if (name == "SingularGramian"
                and oracles.spd_cond(oracles.gramian(A, B, alpha, T)) >= REFUSED_GRAMIAN):
            return name
        if name == "SingularKernel" and inverse_kernel:
            return name
        return None
    return refusal


# ---------------------------------------------------------------- systems

def kalman_full(A, B) -> bool:
    n = A.shape[0]
    K = np.hstack([np.linalg.matrix_power(A, j) @ B for j in range(n)])
    return np.linalg.matrix_rank(K) == n


# median spectral radius of an n x n matrix with entries U[-1, 1], n = 1..8
TYPICAL_RADIUS = (0.5, 0.79, 0.99, 1.17, 1.32, 1.47, 1.59, 1.7)


def typical_radius(A):
    """A rescaled to the median spectral radius of its size.  The number of
    kernel-series terms follows the spectral radius, so after this every draw
    of a design cell costs about the same and the work of a run does not
    depend on the seed; the structure of A stays random."""
    return A * (TYPICAL_RADIUS[A.shape[0] - 1] / np.abs(np.linalg.eigvals(A)).max())


def draw_controllable(rng, n: int, m: int, normalize: bool = False):
    """Entries U[-1, 1] until (A, B) is controllable; ``normalize`` applies
    ``typical_radius`` to A."""
    while True:
        A = rng.uniform(-1.0, 1.0, (n, n))
        B = rng.uniform(-1.0, 1.0, (n, m))
        if kalman_full(A, B):
            return (typical_radius(A) if normalize else A), B


def draw_nilpotent(rng, n: int, m: int):
    """Strictly upper-triangular A (so every kernel series is a finite sum and
    Gramian, transition and energy have closed forms) with a controllable B."""
    while True:
        A = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1) * rng.uniform(0.5, 1.5)
        B = rng.uniform(-1.0, 1.0, (n, m))
        if kalman_full(A, B):
            return A, B


def series_arg(A, T: float, alpha: float) -> float:
    return float(np.linalg.norm(np.atleast_2d(A), 2)) * T**alpha


def _info(A, B, alpha, T, N, **extra) -> dict:
    A = np.atleast_2d(A)
    info = {"n": A.shape[0], "m": np.atleast_2d(B).shape[1] if B is not None else 0,
            "alpha": alpha, "T": T, "N": N, "series_arg": series_arg(A, T, alpha)}
    info.update(extra)
    return info


def _defect_check(A, alpha, T, a, b, f_T) -> tuple[float, Optional[str], np.ndarray]:
    """Error of the steering defect f_T = S0(T) a - b against the oracle,
    whether cancellation explains it, and the oracle's defect."""
    S0, cond = oracles.ml_matrix(A, alpha, 1.0, [T])
    ref = S0[0] @ a - b
    err = float(np.abs(np.asarray(f_T) - ref).max() / max(1.0, np.abs(ref).max()))
    return err, cancellation(err, cond[0], EPS, KERNEL_TOL), ref


# ------------------------------------------------------- steer-closedform

def _steer_op(fc, kind, A, B, alpha, T, a, b, synths, terminal_tol) -> Op:
    """``kind`` "rank" for rank-based synthesis; otherwise closed-form
    (min-energy, and pinv when it is among ``synths``)."""
    sys_ = fc.FracSystem(A, B, alpha=alpha)
    prob = fc.SteeringProblem(sys_, a, b, T, fc.TimeGrid(0.0, T, STEER_STEPS))
    rank = kind == "rank"

    def run():
        out = []
        for synth in synths:
            res = synth(prob)
            out.append((res, fc.verify_steering(prob, res)))
        return out

    def check(out) -> Outcome:
        reps = [rep for _, rep in out]
        kerr, kknown, f = _defect_check(A, alpha, T, a, b, out[0][0].f_T)
        acc = {
            "terminal_err": max(r.terminal_error_rel for r in reps),
            "energy_mismatch": max(r.energy_mismatch_rel for r in reps),
            "caputo_residual": max(r.caputo_residual for r in reps),
            "kernel_err": kerr,
        }
        known = steering_known(acc, rank, A, B, alpha, T, STEER_STEPS, f)
        return judge(acc, {"kernel_err": KERNEL_TOL, "terminal_err": terminal_tol,
                           "energy_mismatch": ENERGY_TOL}, {"kernel_err": kknown, **known})

    inverse_kernel = rank or len(synths) > 1
    return Op(kind, run, check, _info(A, B, alpha, T, STEER_STEPS),
              steering_refusal(A, B, alpha, T, inverse_kernel))


def design(alphas):
    """The 60 cells n in 1..4, five orders, three horizons, in the order
    k -> (k mod 4, k mod 5, k mod 3) (a bijection, as 4, 5, 3 are coprime),
    so every run of consecutive cells is balanced in n, alpha and T and a pass
    cut short by the deadline is still a fair sample.  m cycles with k // 4
    through 1..min(n, 3)."""
    out = []
    for k in range(60):
        n = 1 + k % 4
        out.append((k, n, 1 + (k // 4) % min(n, 3), alphas[k % 5], HORIZONS[k % 3]))
    return out


def steer_closedform_pass(fc, seed: int, p: int) -> list:
    """One seeded controllable draw per design cell."""
    rng = rng_for(seed, p, "steer-closedform")
    ops = []
    for _, n, m, alpha, T in design(ALPHAS):
        A, B = draw_controllable(rng, n, m, normalize=True)
        a, b = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
        synths = [fc.synthesize_min_energy]
        kind = "min-energy"
        if np.linalg.matrix_rank(B) == n:
            synths.append(fc.synthesize_pinv)
            kind = "min-energy+pinv"
        ops.append(_steer_op(fc, kind, A, B, alpha, T, a, b, synths, TERMINAL_TOL))
    return ops


# ------------------------------------------------------------ kernel-eval

def _kernel_outcome(errs, conds, unit: float, tol: float = KERNEL_TOL) -> Outcome:
    """Per-point errors and cancellation factors of one kernel operation."""
    errs = np.atleast_1d(np.asarray(errs, float))
    return judge({"kernel_err": float(errs.max())}, {"kernel_err": tol},
                 {"kernel_err": cancellation(errs, conds, unit, tol)})


def _ml_scalar_op(fc, kind, alpha, beta, zs, ref=None, refusal=no_refusal) -> Op:
    """``ref`` (values, cancellation factors) replaces the mpmath oracle."""
    params = fc.MLParams(alpha, beta)

    def run():
        return np.array([fc.ml_scalar(params, z) for z in zs])

    def check(vals) -> Outcome:
        want, cond = oracles.ml_scalar(alpha, beta, zs) if ref is None else ref
        return _kernel_outcome(oracles.rel_errs(vals, want), cond, EPS_DD)

    return Op(kind, run, check, {"alpha": alpha, "beta": beta, "points": len(zs),
                                 "keys": [(alpha, beta)],
                                 "series_arg": float(np.abs(zs).max())}, refusal)


def _trig_op(fc, which, alpha, ts) -> Op:
    fn = fc.frac_sin if which == "sin" else fc.frac_cos
    key = (2.0 * alpha, 2.0 * alpha) if which == "sin" else (2.0 * alpha, alpha)

    def run():
        return np.array([fn(alpha, t) for t in ts])

    def check(vals) -> Outcome:
        want, cond = (oracles.frac_sin if which == "sin" else oracles.frac_cos)(alpha, ts)
        return _kernel_outcome(oracles.rel_errs(vals, want, floor=1e-6), cond, EPS_DD)

    return Op(f"frac_{which}", run, check, {"alpha": alpha, "points": len(ts), "keys": [key],
                                           "series_arg": float(ts.max() ** (2 * alpha))})


def _batch_op(fc, kind, A, alpha, beta, T, reference) -> Op:
    """ml_matrix_batch over 8193 lags on [0, T]; ``reference`` returns
    (check lag indices, oracle values, cancellation factors)."""
    s = np.linspace(0.0, T, 8193)

    def run():
        return fc.ml_matrix_batch(A, alpha, beta, s)

    def check(E) -> Outcome:
        idx, want, cond = reference()
        errs = [oracles.rel_err(E[i], w) if np.atleast_2d(A).shape[0] == 1
                else oracles.norm_rel_err(E[i], w) for i, w in zip(idx, want)]
        return _kernel_outcome(errs, cond, EPS)

    return Op(kind, run, check, _info(A, None, alpha, T, 8192, lags=s.size, beta=beta))


def _matrix_case(rng, n: int):
    """Order, beta and horizon follow n, so only the entries of A are drawn
    and the cost of the eight cases does not depend on the seed."""
    A = typical_radius(rng.uniform(-1.0, 1.0, (n, n)))
    alpha = ALPHAS[n % 5]
    beta = alpha if n % 2 else 1.0
    T = 1.0 + n % 2
    check_idx = np.array([int(rng.integers(1, 8192)), 8192])
    cache = {}

    def reference():
        if not cache:
            vals, cond = oracles.ml_matrix(A, alpha, beta, check_idx * (T / 8192))
            cache["v"] = (check_idx, vals, cond)
        return cache["v"]

    return A, alpha, beta, T, reference


def _erfcx_batch_op(fc, c: float) -> Op:
    """E_{1/2,1}(-c sqrt(s)) = erfcx(c sqrt(s)) on s in [0, 10], past desk
    scale: the double series cancels by e^{x^2} near s = 10."""
    A = np.array([[-c]])
    x = c * np.sqrt(np.linspace(0.0, 10.0, 8193))
    idx = np.arange(0, 8193, 64).tolist() + [8192]

    def reference():
        return idx, erfcx(x[idx])[:, None, None], oracles.erfcx_cond(x[idx])

    return _batch_op(fc, "ml_matrix_batch.erfcx", A, 0.5, 1.0, 10.0, reference)


def _convolution_op(fc, lam: float, alpha: float, t: float) -> Op:
    """singular_convolution of u = 1 against s^(alpha-1) E_{alpha,alpha}(lam s^alpha),
    with the kernel evaluated one lag per call as a user would; the exact
    value is t^alpha E_{alpha,alpha+1}(lam t^alpha)."""
    N = 512
    u = fc.GridFunction(fc.TimeGrid(0.0, t, N), np.ones(N + 1))
    A = np.array([[lam]])

    def kernel(s):
        return fc.ml_matrix_batch(A, alpha, alpha, np.asarray([s]))[0]

    def run():
        return fc.singular_convolution(kernel, alpha, u, t)

    def check(val) -> Outcome:
        e, cond = oracles.ml_scalar(alpha, alpha + 1.0, [lam * t**alpha])
        want = t**alpha * e[0]
        err = oracles.rel_err(np.asarray(val).ravel()[0], want)
        return _kernel_outcome(err, cond, EPS, CONV_TOL[alpha])

    return Op("singular_convolution", run, check,
              _info(A, None, alpha, t, N, lags=N + 1))


CASES_PASS = 2**31  # stream of the per-run matrix cases, apart from every pass
KEY_ALPHAS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


class KernelEval:
    """kernel-eval: per pass two fresh (alpha, beta) keys (one cold call and
    three warm calls each), an erfcx sweep of the scalar kernel to x = 8,
    fractional sine and cosine sweeps, two of the run's eight matrix cases
    (n = 1..8, 8193 lags), the erfcx stress batch, and one
    singular_convolution at N = 512."""

    def __init__(self, seed: int):
        rng = rng_for(seed, CASES_PASS, "kernel-eval")
        self.seed = seed
        self.cases = [_matrix_case(rng, n) for n in range(1, 9)]

    def make_pass(self, fc, p: int) -> list:
        rng = rng_for(self.seed, p, "kernel-eval")
        ops = []
        # fresh keys through a seeded beta; orders (here and below) cycle with
        # the pass, so the series lengths of a run, and so its work, do not
        # depend on the seed
        for alpha in (KEY_ALPHAS[p % 4], KEY_ALPHAS[4 + p % 4]):
            beta = round(float(rng.uniform(alpha, 2.0)), 6)
            zmax = min(8.0, 20.0**alpha)
            ops.append(_ml_scalar_op(fc, "ml_scalar.cold", alpha, beta,
                                     rng.uniform(-zmax, 0.5 * zmax, 8)))
            for _ in range(3):
                ops.append(_ml_scalar_op(fc, "ml_scalar.warm", alpha, beta,
                                         rng.uniform(-zmax, 0.5 * zmax, 16)))
        x = rng.uniform(0.05, 8.0, 16)
        ops.append(_ml_scalar_op(fc, "ml_scalar.erfcx", 0.5, 1.0, -x,
                                 ref=(erfcx(x), oracles.erfcx_cond(x)),
                                 refusal=lambda name: name if name == "NonConvergence" else None))
        # orders cycle with the pass, so every seed meets each trig key cold once
        for which, shift in (("sin", 0), ("cos", 2)):
            ops.append(_trig_op(fc, which, ALPHAS[(p + shift) % 5], rng.uniform(0.05, 10.0, 24)))
        for k in (2 * p, 2 * p + 1):
            A, alpha, beta, T, ref = self.cases[k % len(self.cases)]
            ops.append(_batch_op(fc, "ml_matrix_batch", A, alpha, beta, T, ref))
        ops.append(_erfcx_batch_op(fc, float(rng.uniform(1.5, 2.5))))
        alpha = sorted(CONV_TOL)[p % 3]
        ops.append(_convolution_op(fc, float(rng.uniform(-1.0, 1.0)), alpha,
                                   (0.5, 1.0, 2.0)[(p // 3) % 3]))
        return ops  # generation order, so each key's cold call precedes its warm calls


# --------------------------------------------------------------- cli-cold

def _floats(line: str) -> list:
    return [float(v) for v in line.split()]


def _field(out: str, prefix: str) -> str:
    for line in out.splitlines():
        if line.strip().startswith(prefix):
            return line.strip()[len(prefix):].strip()
    raise ValueError(f"no {prefix!r} line")


class CliCold:
    """cli-cold: each operation is a fresh ``python -m fracctrl.cli`` child.
    A pass is the twelve subcommand kinds in seeded order with seeded
    arguments; problem files use nilpotent systems (closed-form oracles) or,
    for ``simulate``, general ones."""

    KINDS = ("ml", "ml-sin", "ml-cos", "ml-s0", "gramian", "simulate",
             "synthesize-min-energy", "synthesize-pinv", "synthesize-rank",
             "reproduce-1", "reproduce-2", "reproduce-3")

    def __init__(self, seed: int, root: str, workdir: str, env: dict, inproc: bool = False):
        self.seed, self.root, self.workdir, self.env = seed, root, workdir, env
        self.inproc = inproc

    def _runner(self, argv):
        if self.inproc:
            import fracctrl.cli as cli  # main is looked up per call, so tracing sees it

            def run():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.main(list(argv))
                return rc, out.getvalue(), err.getvalue()
        else:
            cmd = [sys.executable, "-m", "fracctrl.cli", *argv]

            def run():
                cp = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                    text=True, timeout=150)
                return cp.returncode, cp.stdout, cp.stderr
        return run

    def _problem(self, name, A, B, alpha, T, N, a, b, value=None, method="min-energy") -> str:
        m = np.atleast_2d(B).shape[1]
        doc = {
            "system": {"alpha": alpha, "A": np.asarray(A).tolist(), "B": np.asarray(B).tolist()},
            "steering": {"a": list(map(float, a)), "b": list(map(float, b)), "T": T},
            "numerics": {"grid_steps": N},
            "control": {"type": "constant",
                        "value": list(map(float, value)) if value is not None else [0.0] * m},
            "method": method,
        }
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def make_pass(self, p: int) -> list:
        rng = rng_for(self.seed, p, "cli-cold")
        return [self._op(kind, rng, f"p{p}-{kind}.json")
                for kind in (self.KINDS[i] for i in rng.permutation(len(self.KINDS)))]

    def _op(self, kind, rng, fname) -> Op:
        def draw_alpha(lo=0.3, hi=1.0):
            return round(float(rng.uniform(lo, hi)), 6)

        info = {"cli": kind}
        refusal = no_refusal
        if kind == "ml":
            alpha = draw_alpha()
            beta = round(float(rng.uniform(alpha, 2.0)), 6)
            z = float(rng.uniform(-min(5.0, 20.0**alpha), 3.0))
            argv = ["ml", "--alpha", repr(alpha), "--beta", repr(beta), "--z", repr(z)]
            info.update(keys=[(alpha, beta)], series_arg=abs(z))

            def check_out(out):
                want, cond = oracles.ml_scalar(alpha, beta, [z])
                return _kernel_outcome(oracles.rel_err(_floats(out)[0], want[0]), cond, EPS_DD)
        elif kind in ("ml-sin", "ml-cos"):
            alpha = draw_alpha()
            t = float(rng.uniform(0.1, 8.0))
            which = kind[3:]
            argv = ["ml", f"--{which}", "--alpha", repr(alpha), "--t", repr(t)]
            key = (2.0 * alpha, 2.0 * alpha) if which == "sin" else (2.0 * alpha, alpha)
            info.update(keys=[key], series_arg=t ** (2.0 * alpha))

            def check_out(out):
                want, cond = (oracles.frac_sin if which == "sin" else oracles.frac_cos)(alpha, [t])
                return _kernel_outcome(oracles.rel_err(_floats(out)[0], want[0], floor=1e-6),
                                       cond, EPS_DD)
        elif kind == "ml-s0":
            n = int(rng.integers(2, 4))
            A = rng.uniform(-1.0, 1.0, (n, n))
            alpha = draw_alpha()
            t = float(rng.uniform(0.5, 2.0))
            argv = ["ml", "--s0", "--alpha", repr(alpha), "--A", json.dumps(A.tolist()), "--t", repr(t)]
            info.update(_info(A, None, alpha, t, 0))

            def check_out(out):
                want, cond = oracles.ml_matrix(A, alpha, 1.0, [t])
                got = np.array([_floats(r) for r in out.strip().splitlines()])
                return _kernel_outcome(oracles.norm_rel_err(got, want[0]), cond, EPS)
        elif kind in ("gramian", "synthesize-min-energy", "synthesize-pinv", "synthesize-rank"):
            n = int(rng.integers(2, 4))
            m = n if kind == "synthesize-pinv" else (1 if kind != "gramian" else int(rng.integers(1, n + 1)))
            A, B = draw_nilpotent(rng, n, m)
            alpha = draw_alpha(0.3, 0.95) if kind == "synthesize-rank" else float(rng.choice(ALPHAS))
            T = float(rng.choice(HORIZONS))
            N = int(rng.choice((256, 512, 1024)))
            a, b = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
            path = self._problem(fname, A, B, alpha, T, N, a, b)
            info.update(_info(A, B, alpha, T, N))
            Q = oracles.nilpotent_gramian(A, B, alpha, T)
            if kind == "gramian":
                argv = ["gramian", path]

                def check_out(out):
                    lines = out.splitlines()
                    got = np.array([_floats(lines[1 + i]) for i in range(n)])
                    return judge({"kernel_err": oracles.norm_rel_err(got, Q)},
                                 {"kernel_err": GRAMIAN_TOL})
            else:
                method = kind.split("-", 1)[1]
                argv = ["synthesize", path, "--method", method]
                refusal = steering_refusal(A, B, alpha, T, inverse_kernel=method != "min-energy")
                f = oracles.nilpotent_transition(A, alpha, T) @ a - b
                if method == "pinv":
                    energy = oracles.nilpotent_pinv_energy(A, B, alpha, T, -f)
                else:
                    energy = float(f @ np.linalg.solve(Q, f))

                def check_out(out):
                    terr = _floats(_field(out, "terminal error:").split("rel")[1])[0]
                    acc = {"terminal_err": terr,
                           "energy_mismatch": float(_field(out, "energy quadrature mismatch:")),
                           "caputo_residual": float(_field(out, "caputo residual:"))}
                    limits = {"terminal_err": TERMINAL_TOL_RANK if method == "rank" else TERMINAL_TOL,
                              "energy_mismatch": ENERGY_TOL}
                    if method != "rank":
                        acc["energy_err"] = abs(float(_field(out, "modified energy:")) / energy - 1.0)
                        limits["energy_err"] = ENERGY_TOL
                    known = steering_known(acc, method == "rank", A, B, alpha, T, N, f)
                    return judge(acc, limits, known)
        elif kind == "simulate":
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, n + 1))
            A, B = draw_controllable(rng, n, m)
            alpha = float(rng.choice(ALPHAS))
            T = float(rng.choice((1.0, 2.0)))
            N = int(rng.choice((256, 512, 1024)))
            a = rng.uniform(-1.0, 1.0, n)
            v = rng.uniform(-1.0, 1.0, m)
            path = self._problem(fname, A, B, alpha, T, N, a, np.zeros(n), value=v)
            argv = ["simulate", path]
            info.update(_info(A, B, alpha, T, N))

            def check_out(out):
                xT = np.array(_floats(_field(out, "terminal state:")))
                ref, cond = oracles.pwlinear_response(A, B, alpha, a, [0.0, T], [v, v], T)
                err = float(np.abs(xT - ref).max() / max(1.0, np.abs(ref).max()))
                acc = {"state_err": err, "caputo_residual": float(_field(out, "caputo residual (interior):"))}
                return judge(acc, {"state_err": STATE_TOL},
                             {"state_err": cancellation(err, cond, EPS, STATE_TOL)})
        else:
            example = kind[-1]
            argv = ["reproduce", "--example", example]

            def check_out(out):
                if example == "2":
                    got = float(_field(out, "minimal energy (exact kernels):"))
                    return judge({"kernel_err": abs(got / EXAMPLE2_ENERGY - 1.0)},
                                 {"kernel_err": KERNEL_TOL})
                ok = out.strip().splitlines()[-1] == "result: ALL PASS"
                return Outcome(ok, None if ok else "gate:reproduce", ok)

        def check(res) -> Outcome:
            rc, out, err = res
            if "Traceback" in err:
                return Outcome(False, "cli:traceback", False)
            if rc == 3 and err.startswith("numeric failure:"):
                name = err.split(":")[1].strip()
                return Outcome(False, f"refused:{name}", refusal(name) is not None)
            if rc != 0:
                return Outcome(False, f"cli:exit{rc}", False)
            try:
                return check_out(out)
            except (ValueError, IndexError) as exc:
                return Outcome(False, f"cli:unparsable ({exc})", False)

        return Op(kind, self._runner(argv), check, info, refusal)
