"""Command-line front end.

Subcommands:
  ml          evaluate Mittag-Leffler / fractional trig kernels
  simulate    forward trajectory from a problem file, CSV output
  gramian     controllability Gramian + Kalman rank verdict
  synthesize  steering-control synthesis + verification, JSON/CSV output
  reproduce   run the built-in worked reference examples

Problem files are strict JSON documents (unknown keys rejected):

  {
    "system":   {"alpha": 0.5, "A": [[0,1],[0,0]], "B": [[0],[1]], "C": null},
    "steering": {"a": [1,0], "b": [0,0], "T": 10.0},
    "numerics": {"grid_steps": 1024, "series_rel_tol": 1e-14,
                 "series_max_terms": 500, "quad_rel_tol": 1e-11,
                 "quad_levels": 12, "quad_order": 16, "refine": null},
    "control":  {"type": "constant", "value": [1.0]},
    "method":   "min-energy"
  }

Exit codes: 0 success, 2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

import numpy as np
from scipy.special import gamma as _gamma

from .controlsyn import (
    DEFAULT_QUAD,
    QuadSettings,
    SteeringProblem,
    control_from_dict,
    graded_gauss_rule,
    gramian,
    kalman_rank,
    synthesis_to_dict,
    synthesize_min_energy,
    synthesize_pinv,
    synthesize_rank_based,
    verify_steering,
)
from .errors import FracctrlError
from .fraccalc import GridFunction, TimeGrid
from .fracsys import FracSystem, SampledControl, caputo_residual, simulate, trajectory_to_csv
from .mlkernel import (
    MLParams,
    SeriesPolicy,
    alpha_exp,
    cl_truncation,
    frac_cos,
    frac_sin,
    ml_matrix,
    ml_scalar,
    state_transition,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

RANK_RCOND_THRESHOLD = 1e-8  # Gramian-side controllability verdict

# kernel evaluations are printed to 15 significant digits, so truncate the
# series well below that
_ML_PRINT_POLICY = SeriesPolicy(rel_tol=1e-16, max_terms=600)


class InputError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _fmt17(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------- problem IO

_TOP_KEYS = {"system", "steering", "numerics", "control", "method"}
_SYSTEM_KEYS = {"alpha", "A", "B", "C"}
_STEERING_KEYS = {"a", "b", "T"}
_NUMERICS_KEYS = {
    "grid_steps", "series_rel_tol", "series_max_terms",
    "quad_rel_tol", "quad_levels", "quad_order", "refine",
}
_CONTROL_KEYS = {"type", "value", "path"}
_CONTROL_NEEDS = {"constant": "value", "csv": "path", "synthesized": "path"}


def _block(block, allowed: set, where: str) -> dict:
    """``block`` itself, if it is a JSON object with no keys outside ``allowed``."""
    if not isinstance(block, dict):
        raise InputError(f"{where} must be a JSON object, got {block!r}")
    unknown = set(block) - allowed
    if unknown:
        raise InputError(f"unknown keys in {where}: {sorted(unknown)}")
    return block


def _int_field(block: dict, key: str, default):
    """A numerics field that must be a JSON integer (or null, if its default is)."""
    val = block.get(key, default)
    if type(val) is not int and not (val is None and default is None):
        raise InputError(f"{key} must be an integer, got {val!r}")
    return val


def _float_field(block: dict, key: str, default: float) -> float:
    """A numerics field that must be a JSON number."""
    val = block.get(key, default)
    if type(val) not in (int, float):
        raise InputError(f"{key} must be a number, got {val!r}")
    return float(val)


class Problem:
    """Validated contents of a problem file."""

    def __init__(self, doc: dict):
        _block(doc, _TOP_KEYS, "problem file")
        try:
            sysblock = _block(doc["system"], _SYSTEM_KEYS, "system block")
            steering = _block(doc["steering"], _STEERING_KEYS, "steering block")
        except KeyError as exc:
            raise InputError(f"problem file missing block {exc}") from None
        numerics = _block(doc.get("numerics", {}), _NUMERICS_KEYS, "numerics block")
        try:
            self.system = FracSystem(
                A=np.asarray(sysblock["A"], dtype=float),
                B=np.asarray(sysblock["B"], dtype=float),
                C=None if sysblock.get("C") is None else np.asarray(sysblock["C"], dtype=float),
                alpha=float(sysblock["alpha"]),
            )
            self.a = np.asarray(steering["a"], dtype=float)
            self.b = np.asarray(steering["b"], dtype=float)
            self.T = float(steering["T"])
        except (KeyError, TypeError, ValueError, FracctrlError) as exc:
            raise InputError(f"invalid system/steering data: {exc}") from exc
        n = self.system.n
        if self.a.shape != (n,) or self.b.shape != (n,):
            raise InputError(f"a and b must have length {n}")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()):
            raise InputError("a and b must be finite")
        if not 0.0 < self.T < np.inf:
            raise InputError("horizon T must be positive and finite")
        self.steps = _int_field(numerics, "grid_steps", 1024)
        if self.steps < 2:
            raise InputError("grid_steps must be >= 2")
        try:
            self.policy = SeriesPolicy(
                rel_tol=_float_field(numerics, "series_rel_tol", 1e-14),
                max_terms=_int_field(numerics, "series_max_terms", 500),
            )
            self.quad = QuadSettings(
                rel_tol=_float_field(numerics, "quad_rel_tol", DEFAULT_QUAD.rel_tol),
                levels=_int_field(numerics, "quad_levels", DEFAULT_QUAD.levels),
                order=_int_field(numerics, "quad_order", DEFAULT_QUAD.order),
            )
        except FracctrlError as exc:
            raise InputError(f"invalid numerics block: {exc}") from exc
        self.refine = _int_field(numerics, "refine", None)
        if self.refine is not None and self.refine < 1:
            raise InputError("refine must be >= 1")
        self.control_spec = doc.get("control")
        if self.control_spec is not None:
            _block(self.control_spec, _CONTROL_KEYS, "control block")
        self.method = doc.get("method", "min-energy")

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(0.0, self.T, self.steps)

    def steering_problem(self) -> SteeringProblem:
        return SteeringProblem(self.system, self.a, self.b, self.T, self.grid)

    def control(self) -> SampledControl:
        spec = self.control_spec
        if spec is None:
            raise InputError("problem file has no control block")
        kind = spec.get("type")
        need = _CONTROL_NEEDS.get(kind) if isinstance(kind, str) else None
        if need is None:
            raise InputError(f"unknown control type {kind!r}")
        if need not in spec:
            raise InputError(f"{kind} control needs {need!r}")
        if need == "path" and not isinstance(spec["path"], str):
            raise InputError(f"control path must be a string, got {spec['path']!r}")
        if kind == "constant":
            try:
                val = np.atleast_1d(np.asarray(spec["value"], dtype=float))
            except TypeError as exc:
                raise InputError(f"constant control value: {exc}") from None
            if val.shape != (self.system.m,):
                raise InputError(f"constant control must have {self.system.m} entries")
            vals = np.tile(val, (self.steps + 1, 1))
            return SampledControl(GridFunction(self.grid, vals))
        if kind == "csv":
            return _control_from_csv(spec["path"], self.system.m, self.T)
        with open(spec["path"]) as fh:
            doc = json.load(fh)
        try:
            return control_from_dict(doc)
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed synthesis document: {exc!r}") from None


def _control_from_csv(path: str, m: int, T: float) -> SampledControl:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != m + 1:
        raise InputError(f"control CSV must have 1+{m} columns")
    t = data[:, 0]
    h = np.diff(t)
    if len(t) < 3 or h.min() <= 0 or (abs(h - h[0]) > 1e-9 * h[0]).any():
        raise InputError("control CSV must be sampled on a uniform grid")
    # no extrapolation: a control held constant past its last sample is a guess
    if t[0] > 1e-12 * T or t[-1] < T - 1e-12 * T:
        raise InputError(f"control CSV must span [0, T] = [0, {T:g}], "
                         f"got [{t[0]:g}, {t[-1]:g}]")
    grid = TimeGrid(float(t[0]), float(t[-1]), len(t) - 1)
    return SampledControl(GridFunction(grid, data[:, 1:]))


def _load_problem(path: str) -> Problem:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"problem file is not valid JSON: {exc}") from exc
    return Problem(doc)


# ------------------------------------------------------------------ commands

def cmd_ml(args) -> int:
    pol = _ML_PRINT_POLICY
    if args.sin or args.cos:
        if args.t is None:
            raise InputError("--sin/--cos need --t")
        fn = frac_sin if args.sin else frac_cos
        print(_fmt(fn(args.alpha, args.t, pol)))
        return EXIT_OK
    if args.A is not None:
        try:
            A = np.asarray(json.loads(args.A), dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"--A must be a JSON matrix: {exc}") from None
        if args.t is None:
            raise InputError("matrix evaluation needs --t")
        if args.exp:
            M = alpha_exp(A, args.alpha, args.t, pol)
        elif args.s0:
            M = state_transition(A, args.alpha, args.t, pol)
        else:
            M = ml_matrix(MLParams(args.alpha, args.beta), A * args.t**args.alpha, pol)
        for row in M:
            print(" ".join(_fmt(v) for v in row))
        return EXIT_OK
    if args.z is None:
        raise InputError("scalar evaluation needs --z")
    print(_fmt(ml_scalar(MLParams(args.alpha, args.beta), args.z, pol)))
    return EXIT_OK


def cmd_simulate(args) -> int:
    prob = _load_problem(args.problem)
    control = prob.control()
    traj = simulate(prob.system, prob.a, control, prob.grid,
                    refine=prob.refine, policy=prob.policy)
    if args.out:
        trajectory_to_csv(traj, args.out)
    res = caputo_residual(prob.system, traj, control)
    print("terminal state: " + " ".join(_fmt17(v) for v in traj.states[-1]))
    print(f"caputo residual (interior): {_fmt(res)}")
    if args.out:
        print(f"trajectory written to {args.out}")
    return EXIT_OK


def cmd_gramian(args) -> int:
    prob = _load_problem(args.problem)
    g = gramian(prob.system, prob.T, prob.quad, prob.policy)
    rd = kalman_rank(prob.system)
    n = prob.system.n
    rank_ok = rd.rank == n
    gram_ok = g.rcond > RANK_RCOND_THRESHOLD
    print(f"Q_T (T={_fmt(prob.T)}):")
    for row in g.Q:
        print("  " + " ".join(_fmt17(v) for v in row))
    print(f"rcond = {_fmt(g.rcond)}")
    print(f"quad_err = {_fmt(g.quad_err)}")
    print(f"kalman rank = {rd.rank} of {n} -> "
          + ("controllable" if rank_ok else "uncontrollable"))
    print(f"gramian verdict (rcond > {RANK_RCOND_THRESHOLD:g}) -> "
          + ("controllable" if gram_ok else "uncontrollable"))
    print("rank/gramian equivalence: " + ("consistent" if rank_ok == gram_ok else "INCONSISTENT"))
    if args.out:
        doc = {
            "T": prob.T,
            "Q": g.Q.tolist(),
            "rcond": g.rcond,
            "quad_err": g.quad_err,
            "kalman_rank": rd.rank,
            "n": n,
            "controllable_rank": rank_ok,
            "controllable_gramian": gram_ok,
            "consistent": rank_ok == gram_ok,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"gramian report written to {args.out}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    prob = _load_problem(args.problem)
    method = args.method or prob.method
    sp = prob.steering_problem()
    if method == "min-energy":
        result = synthesize_min_energy(sp, prob.quad, prob.policy)
    elif method == "pinv":
        result = synthesize_pinv(sp, prob.quad, prob.policy)
    elif method == "rank":
        result = synthesize_rank_based(sp, quad=prob.quad, policy=prob.policy)
    else:
        raise InputError(f"unknown method {method!r}")
    report = verify_steering(sp, result, prob.quad, prob.policy, refine=prob.refine)
    print(f"method: {result.method}")
    print(f"modified energy: {_fmt17(result.energy)}")
    print(f"terminal error: abs {_fmt(report.terminal_error_abs)} "
          f"rel {_fmt(report.terminal_error_rel)}")
    print(f"energy quadrature mismatch: {_fmt(report.energy_mismatch_rel)}")
    print(f"caputo residual: {_fmt(report.caputo_residual)}")
    if args.out:
        doc = synthesis_to_dict(result, prob.system, prob.T)
        doc["report"] = {
            "terminal_error_abs": report.terminal_error_abs,
            "terminal_error_rel": report.terminal_error_rel,
            "energy_quadrature": report.energy_quadrature,
            "energy_mismatch_rel": report.energy_mismatch_rel,
            "caputo_residual": report.caputo_residual,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"synthesis written to {args.out}")
    if args.csv:
        ts = np.linspace(0.0, prob.T, prob.steps + 1)
        table = result.control.sample(ts)
        with open(args.csv, "w") as fh:
            fh.write("t," + ",".join(f"u{i+1}" for i in range(table.shape[1])) + "\n")
            for tv, row in zip(ts, table):
                fh.write(",".join(_fmt17(v) for v in [tv, *row]) + "\n")
        print(f"control samples written to {args.csv}")
    return EXIT_OK


def _pass_fail(label: str, err: float, tol: float) -> bool:
    ok = err <= tol
    print(f"  [{'PASS' if ok else 'FAIL'}] {label}: err {err:.3e} (tol {tol:.0e})")
    return ok


def cmd_reproduce(args) -> int:
    return {1: _reproduce_example1, 2: _reproduce_example2, 3: _reproduce_example3}[args.example]()


def _reproduce_example1() -> int:
    print("worked example 1: planar chain system, alpha = 1/2, steer (1,0) -> 0")
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    sys = FracSystem(A, B, alpha=0.5)
    all_ok = True
    for T in (1.0, 2.0, 10.0):
        g = gramian(sys, T)
        Qref = np.array([
            [T**2 / 2.0, 2.0 * T**1.5 / (3.0 * np.sqrt(np.pi))],
            [2.0 * T**1.5 / (3.0 * np.sqrt(np.pi)), T / np.pi],
        ])
        all_ok &= _pass_fail(f"T={T:g} gramian entries (rel)",
                             float(np.abs(g.Q / Qref - 1.0).max()), 1e-8)
        prob = SteeringProblem(sys, np.array([1.0, 0.0]), np.zeros(2), T,
                               TimeGrid(0.0, T, 1024))
        result = synthesize_min_energy(prob)
        ts = np.linspace(0.0, T, 101)
        uref = -18.0 * (T - ts) / T**2 + 12.0 * np.sqrt(T - ts) / T**1.5
        uerr = float(np.abs(result.control.sample(ts)[:, 0] - uref).max())
        all_ok &= _pass_fail(f"T={T:g} control curve (100 pts)", uerr, 1e-6)
        all_ok &= _pass_fail(f"T={T:g} energy vs 18/T^2 (rel)",
                             abs(result.energy * T**2 / 18.0 - 1.0), 1e-6)
    print("result:", "ALL PASS" if all_ok else "FAILURES present")
    return EXIT_OK if all_ok else EXIT_NUMERIC


def _example2_energy(L: int | None = None) -> float:
    """Minimal modified energy of the rotation system (alpha=1/2, T=10,
    a=(0,1), b=0); exact fractional trig kernels, or the c_L truncation of
    the cosine when L is given."""
    T = 10.0
    alphav = 0.5
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    s, w = graded_gauss_rule(T, 24, 20, both_ends=True)
    sin_v = np.array([frac_sin(alphav, sv) for sv in s])
    if L is None:
        cos_v = np.array([frac_cos(alphav, sv) for sv in s])
    else:
        cos_v = np.array([cl_truncation(L, sv) for sv in s])
    wt = s ** (2.0 * (1.0 - alphav))
    q00 = float(w @ (wt * sin_v * sin_v))
    q01 = float(w @ (wt * sin_v * cos_v))
    q11 = float(w @ (wt * cos_v * cos_v))
    Q = np.array([[q00, q01], [q01, q11]])
    S0T = ml_matrix(MLParams(alphav, 1.0), A * T**alphav)
    f = S0T @ np.array([0.0, 1.0])  # b = 0
    return float(f @ np.linalg.solve(Q, f))


def _reproduce_example2() -> int:
    print("worked example 2: rotation system, alpha = 1/2, T = 10, steer (0,1) -> 0")
    m = _example2_energy()
    ref = 0.0911
    print(f"  minimal energy (exact kernels): {_fmt(m)}")
    print(f"  published reference value:      {ref}")
    ok = abs(m - ref) <= 0.005
    print(f"  [{'PASS' if ok else 'FAIL'}] |m - {ref}| = {abs(m - ref):.4f} (tol 5e-3)")
    if not ok:
        print("  note: the reference is a four-digit figure from the original")
        print("  truncation-sequence table, which is not reproducible from the")
        print("  published formulas; see README for the discrepancy analysis.")
    print("  cosine-truncation trend (reported without pass/fail; the printed")
    print("  truncation formula carries a suspected exponent typo):")
    for L in (1, 11, 12):
        print(f"    L={L:2d}: m_L = {_fmt(_example2_energy(L))}")
    return EXIT_OK


def _reproduce_example3() -> int:
    print("worked example 3: scalar integrator, steer 0 -> 1")
    all_ok = True
    for alphav in (0.3, 0.5, 0.9):
        for T in (1.0, 5.0):
            sys = FracSystem(np.zeros((1, 1)), np.ones((1, 1)), alpha=alphav)
            prob = SteeringProblem(sys, np.zeros(1), np.ones(1), T,
                                   TimeGrid(0.0, T, 512))
            rme = synthesize_min_energy(prob)
            rpi = synthesize_pinv(prob)
            ts = np.linspace(0.0, T, 101)
            uref = _gamma(alphav) * (T - ts) ** (1.0 - alphav) / T
            err_u = float(np.abs(rme.control.sample(ts)[:, 0] - uref).max())
            err_e = abs(rme.energy - _gamma(alphav) ** 2 / T)
            err_id = float(np.abs(rme.control.sample(ts) - rpi.control.sample(ts)).max())
            all_ok &= _pass_fail(f"alpha={alphav} T={T:g} control formula", err_u, 1e-6)
            all_ok &= _pass_fail(f"alpha={alphav} T={T:g} energy formula", err_e, 1e-6)
            all_ok &= _pass_fail(f"alpha={alphav} T={T:g} pinv == min-energy", err_id, 1e-6)
    print("result:", "ALL PASS" if all_ok else "FAILURES present")
    return EXIT_OK if all_ok else EXIT_NUMERIC


# --------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fracctrl",
                                description="fractional-order control systems toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    ml = sub.add_parser("ml", help="evaluate Mittag-Leffler / fractional trig kernels")
    ml.add_argument("--alpha", type=float, required=True)
    ml.add_argument("--beta", type=float, default=1.0)
    ml.add_argument("--z", type=float, help="scalar argument")
    ml.add_argument("--t", type=float, help="time argument for --sin/--cos/matrix modes")
    ml.add_argument("--sin", action="store_true", help="fractional sine at --t")
    ml.add_argument("--cos", action="store_true", help="fractional cosine at --t")
    ml.add_argument("--A", type=str, help="JSON matrix for matrix modes")
    ml.add_argument("--exp", action="store_true", help="alpha-exponential of --A at --t")
    ml.add_argument("--s0", action="store_true", help="state-transition of --A at --t")
    ml.set_defaults(fn=cmd_ml)

    sim = sub.add_parser("simulate", help="forward trajectory from a problem file")
    sim.add_argument("problem")
    sim.add_argument("--out", help="trajectory CSV path")
    sim.set_defaults(fn=cmd_simulate)

    gr = sub.add_parser("gramian", help="Gramian, rank, and controllability verdict")
    gr.add_argument("problem")
    gr.add_argument("--out", help="JSON report path")
    gr.set_defaults(fn=cmd_gramian)

    sy = sub.add_parser("synthesize", help="steering-control synthesis + verification")
    sy.add_argument("problem")
    sy.add_argument("--method", choices=["min-energy", "pinv", "rank"])
    sy.add_argument("--out", help="synthesis JSON path")
    sy.add_argument("--csv", help="control samples CSV path")
    sy.set_defaults(fn=cmd_synthesize)

    rep = sub.add_parser("reproduce", help="run a worked reference example")
    rep.add_argument("--example", type=int, required=True, choices=[1, 2, 3])
    rep.set_defaults(fn=cmd_reproduce)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except FracctrlError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
