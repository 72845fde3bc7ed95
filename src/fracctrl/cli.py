"""Command-line front end.

Subcommands:
  ml          evaluate Mittag-Leffler / fractional trig kernels
  simulate    forward trajectory from a problem file, CSV output
  gramian     controllability Gramian + Kalman rank verdict
  synthesize  steering-control synthesis + verification, JSON/CSV output
  reproduce   run the built-in worked reference examples

A problem file is a JSON object read through one field table: unknown and
missing keys and values of the wrong JSON type (a number is never a boolean or
a string) are refused, and so is any range, shape or finiteness that the
types built from it refuse (FracSystem, SteeringProblem, TimeGrid, ...):

  {
    "system":   {"alpha": 0.5, "A": [[0,1],[0,0]], "B": [[0],[1]], "C": null},
    "steering": {"a": [1,0], "b": [0,0], "T": 10.0},
    "numerics": {"grid_steps": 1024},
    "control":  {"type": "constant", "value": [1.0]},
    "method":   "min-energy"
  }

Exit codes: 0 success, 2 input error (a grid too large to allocate too), 3
numeric failure (an argument or prefactor that overflows too).  Every file
format is this module's alone (docs/file-formats.md): one writer per format.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys as _sys
import warnings

import numpy as np

from .controlsyn import (
    SINGULAR_GRAMIAN_RCOND,
    SteeringProblem,
    SteeringReport,
    SynthesisResult,
    _adaptive_graded,
    gramian,
    kalman_rank,
    synthesize_min_energy,
    synthesize_pinv,
    synthesize_rank_based,
    verify_steering,
)
from .errors import FracctrlError, InvalidParams
from .fraccalc import GridFunction, TimeGrid
from .fracsys import (ControlSignal, FracSystem, MinEnergyControl, PinvControl, SampledControl,
                      caputo_residual, simulate)
from .mlkernel import (
    MLParams,
    SeriesPolicy,
    _as_square,
    _scaled,
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

_SYNTHESES = {"min-energy": synthesize_min_energy, "pinv": synthesize_pinv,
              "rank": synthesize_rank_based}

# kernel evaluations are printed to 15 significant digits, so truncate the
# series well below that
_ML_PRINT_POLICY = SeriesPolicy(rel_tol=1e-16, max_terms=600)


class InputError(Exception):
    pass


def _fmt(x: float, digits: int = 15) -> str:
    return f"{x:.{digits}g}"


# -------------------------------------------------------------- file formats

# Each field of each block of a problem file: the Python types its JSON value
# may take, and its default (_REQUIRED where it has none).  A JSON number is
# an int or a float, never a bool or a string, and is read as a float.
_REQUIRED = object()
_NUM, _INT, _STR, _LIST, _OBJ = (int, float), (int,), (str,), (list,), (dict,)
_FIELDS = {
    "problem file": {"system": (_OBJ, _REQUIRED), "steering": (_OBJ, _REQUIRED),
                     "numerics": (_OBJ, {}), "control": (_OBJ, None), "method": (_STR, "min-energy")},
    "system block": {"alpha": (_NUM, _REQUIRED), "A": (_LIST, _REQUIRED),
                     "B": (_LIST, _REQUIRED), "C": (_LIST, None)},
    "steering block": {"a": (_LIST, _REQUIRED), "b": (_LIST, _REQUIRED), "T": (_NUM, _REQUIRED)},
    "numerics block": {"grid_steps": (_INT, 1024)},
    "control block": {"type": (_STR, _REQUIRED), "value": (_NUM + _LIST, None), "path": (_STR, None)},
}
_CONTROL_NEEDS = {"constant": "value", "csv": "path", "synthesized": "path"}


def _number(val, what: str, error=TypeError, nested: bool = False):
    """``val`` if it is a JSON number (never a bool or a string) or, where
    ``nested``, nested lists of them; else ``error`` naming ``what``."""
    if nested and type(val) is list:
        for v in val:
            _number(v, what, error, nested)
    elif type(val) not in _NUM:
        raise error(f"{what} must be a number, got {val!r}")
    return val


def _read(block, where: str) -> dict:
    """The fields ``_FIELDS[where]`` of ``block``, defaults filled in.  The
    block must be a JSON object without unknown keys, with every required key
    and with each value of its field's types (null only where that is the
    default), an array's entries numbers; a field that is an object is read
    as the block ``"<key> block"``."""
    if type(block) is not dict:
        raise InputError(f"{where} must be a JSON object, got {block!r}")
    fields = _FIELDS[where]
    unknown = set(block) - set(fields)
    if unknown:
        raise InputError(f"unknown keys in {where}: {sorted(unknown)}")
    out = {}
    for key, (types, default) in fields.items():
        val = block.get(key, default)
        if val is _REQUIRED:
            raise InputError(f"{where} is missing {key!r}")
        if type(val) not in types and not (val is None is default):
            names = " or ".join(t.__name__ for t in types)
            raise InputError(f"{key} in {where} must be {names}, got {val!r}")
        if type(val) is list:
            _number(val, f"each entry of {key} in {where}", InputError, nested=True)
        if type(val) is dict:
            val = _read(val, f"{key} block")
        out[key] = float(val) if type(val) is int and float in types else val
    return out


class Problem:
    """A problem file's contents, read by ``_read`` and checked by the types
    built from them; every refusal is an ``InputError``."""

    def __init__(self, doc):
        doc = _read(doc, "problem file")
        system, steering, numerics = doc["system"], doc["steering"], doc["numerics"]
        try:
            self.system = FracSystem(**system)
            grid = TimeGrid(0.0, steering["T"], numerics["grid_steps"])
            self.steering = SteeringProblem(self.system, grid=grid, **steering)
        except (FracctrlError, TypeError, ValueError) as exc:
            raise InputError(f"invalid problem data: {exc}") from exc
        self.control_spec, self.method = doc["control"], doc["method"]

    def control(self) -> ControlSignal:
        spec, grid = self.control_spec, self.steering.grid
        if spec is None:
            raise InputError("problem file has no control block")
        need = _CONTROL_NEEDS.get(spec["type"])
        if need is None:
            raise InputError(f"unknown control type {spec['type']!r}")
        if spec[need] is None:
            raise InputError(f"{spec['type']} control needs {need!r}")
        if need == "value":
            try:
                val = np.atleast_1d(np.asarray(spec["value"], dtype=float))
            except ValueError as exc:  # a ragged array
                raise InputError(f"constant control value: {exc}") from None
            if val.shape != (self.system.m,):
                raise InputError(f"constant control must have {self.system.m} entries")
            return SampledControl(GridFunction(grid, np.tile(val, (grid.steps + 1, 1))))
        if spec["type"] == "csv":
            return _control_from_csv(spec["path"], self.system.m)
        with open(spec["path"]) as fh:
            doc = json.load(fh)
        try:
            return _control_from_dict(doc)
        except (KeyError, TypeError, FracctrlError) as exc:
            raise InputError(f"malformed synthesis document: {exc!r}") from None


def _synthesis_to_dict(result: SynthesisResult, report: SteeringReport, sys: FracSystem,
                       T: float) -> dict:
    """The document ``synthesize --out`` writes: method, defect, energy,
    Gramian data when present, the control sampled at 201 equispaced times,
    the parameters that rebuild the control exactly, and the report."""
    ts = np.linspace(0.0, T, 201)
    ctrl = result.control
    if isinstance(ctrl, MinEnergyControl):
        spec = {"type": "min-energy", "coeff": list(ctrl.coeff)}
    elif isinstance(ctrl, PinvControl):
        spec = {"type": "pinv", "B_pinv": ctrl.B_pinv.tolist(), "v": list(ctrl.v)}
    else:  # rank-based synthesis samples its control
        g = ctrl.data.grid
        spec = {"type": "sampled", "grid": {"t0": g.t0, "t1": g.t1, "steps": g.steps},
                "values": ctrl.data.values.tolist()}
    return {
        "method": result.method,
        "alpha": sys.alpha,
        "T": T,
        "f_T": list(result.f_T),
        "energy": result.energy,
        "gramian": list(result.gramian.Q.ravel()) if result.gramian else None,
        "rcond": result.gramian.rcond if result.gramian else None,
        "system": {"A": sys.A.tolist(), "B": sys.B.tolist()},
        "control_samples": {"t": list(ts), "u": ctrl.sample(ts).tolist()},
        "control": spec,
        "report": {k: v for k, v in dataclasses.asdict(report).items() if k != "energy_reported"},
    }


def _control_from_dict(doc: dict) -> ControlSignal:
    """Rebuild the exact control ``_synthesis_to_dict`` exported.  Its
    numbers must be JSON numbers (``TypeError``), its system a ``FracSystem``
    and its control arrays finite; a missing key raises ``KeyError``."""
    def arr(block, key):
        return _number(block[key], f"each entry of {key}", nested=True)

    spec, system = doc["control"], doc["system"]
    sys = FracSystem(arr(system, "A"), arr(system, "B"), alpha=_number(doc["alpha"], "alpha"))
    T = _number(doc["T"], "horizon T")
    kind = spec["type"]
    if kind == "min-energy":
        return MinEnergyControl(sys.A, sys.B, sys.alpha, T, arr(spec, "coeff"))
    if kind == "pinv":
        return PinvControl(sys.A, arr(spec, "B_pinv"), sys.alpha, T, arr(spec, "v"))
    if kind == "sampled":
        g = spec["grid"]
        grid = TimeGrid(_number(g["t0"], "grid t0"), _number(g["t1"], "grid t1"), g["steps"])
        return SampledControl(GridFunction(grid, np.asarray(arr(spec, "values"), float)))
    raise InvalidParams(f"unknown control type {kind!r}")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_csv(path: str, t: np.ndarray, **blocks) -> None:
    """The column ``t``, then the columns ``<name>1..`` of each block given
    (None is skipped), at 17 significant digits so that doubles round-trip."""
    blocks = {name: v for name, v in blocks.items() if v is not None}
    header = ["t", *(f"{name}{i + 1}" for name, v in blocks.items() for i in range(v.shape[1]))]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.column_stack([t, *blocks.values()]):
            fh.write(",".join(_fmt(v, 17) for v in row) + "\n")


def _control_from_csv(path: str, m: int) -> SampledControl:
    with warnings.catch_warnings():  # numpy warns of a file without data rows; refused below
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        raise InputError("control CSV has no data rows")
    if data.shape[1] != m + 1:
        raise InputError(f"control CSV must have 1+{m} columns")
    t = data[:, 0]
    h = np.diff(t)
    if len(t) < 3 or not (h > 0).all() or (abs(h - h[0]) > 1e-9 * h[0]).any():  # NaN: not > 0
        raise InputError("control CSV must be sampled on a uniform grid")
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

# the ml modes by precedence, each with the flags it reads besides --alpha;
# any other flag given is refused
_ML_READS = {"sin": {"t"}, "cos": {"t"}, "exp": {"A", "t"}, "s0": {"A", "t"},
             "A": {"beta", "t"}, "z": {"beta"}}


def cmd_ml(args) -> int:
    given = [f for f in (*_ML_READS, "beta", "t") if getattr(args, f) is not None]
    mode = next((f for f in given if f in _ML_READS), None)
    if mode is None:
        raise InputError("scalar evaluation needs --z")
    extra = [f for f in given if f != mode and f not in _ML_READS[mode]]
    if extra:
        raise InputError(f"ml --{mode} does not read " + ", ".join("--" + f for f in extra))
    beta = 1.0 if args.beta is None else args.beta
    pol = _ML_PRINT_POLICY
    if mode == "z":
        print(_fmt(ml_scalar(MLParams(args.alpha, beta), args.z, pol)))
        return EXIT_OK
    if mode in ("sin", "cos"):
        if args.t is None:
            raise InputError("--sin/--cos need --t")
        fn = frac_sin if mode == "sin" else frac_cos
        print(_fmt(fn(args.alpha, args.t, pol)))
        return EXIT_OK
    if args.A is None:
        raise InputError("--exp/--s0 need --A")
    try:
        A = np.asarray(_number(json.loads(args.A), "each entry of --A", InputError, nested=True),
                       dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"--A must be a JSON matrix: {exc}") from None
    if args.t is None:
        raise InputError("matrix evaluation needs --t")
    if not 0.0 <= args.t < math.inf:
        raise InputError(f"--t must be finite and >= 0, got {args.t}")
    if mode == "exp":
        M = alpha_exp(A, args.alpha, args.t, pol)
    elif mode == "s0":
        M = state_transition(A, args.alpha, args.t, pol)
    else:  # the orders and A are checked before A t^alpha is formed
        params = MLParams(args.alpha, beta)
        M = ml_matrix(params, _scaled(_as_square(A), args.t, args.alpha, "A t^alpha"), pol)
    for row in M:
        print(" ".join(_fmt(v) for v in row))
    return EXIT_OK


def cmd_simulate(args) -> int:
    prob = _load_problem(args.problem)
    control = prob.control()
    traj = simulate(prob.system, prob.steering.a, control, prob.steering.grid)
    if args.out:
        _write_csv(args.out, traj.grid.nodes, x=traj.states, y=traj.outputs)
    res = caputo_residual(prob.system, traj)
    print("terminal state: " + " ".join(_fmt(v, 17) for v in traj.states[-1]))
    print(f"caputo residual (interior): {_fmt(res)}")
    if args.out:
        print(f"trajectory written to {args.out}")
    return EXIT_OK


def cmd_gramian(args) -> int:
    prob = _load_problem(args.problem)
    g = gramian(prob.system, prob.steering.T)
    rd = kalman_rank(prob.system)
    n = prob.system.n
    rank_ok = rd.rank == n
    gram_ok = not g.rcond < SINGULAR_GRAMIAN_RCOND  # synthesize_min_energy's refusal
    print(f"Q_T (T={_fmt(prob.steering.T)}):")
    for row in g.Q:
        print("  " + " ".join(_fmt(v, 17) for v in row))
    print(f"rcond = {_fmt(g.rcond)}")
    print(f"quad_err = {_fmt(g.quad_err)}")
    print(f"kalman rank = {rd.rank} of {n} -> "
          + ("controllable" if rank_ok else "uncontrollable"))
    print(f"gramian verdict (rcond >= {SINGULAR_GRAMIAN_RCOND:g}) -> "
          + ("controllable" if gram_ok else "uncontrollable"))
    print("rank/gramian equivalence: " + ("consistent" if rank_ok == gram_ok else "INCONSISTENT"))
    if args.out:
        _write_json(args.out, {
            "T": prob.steering.T,
            "Q": g.Q.tolist(),
            "rcond": g.rcond,
            "quad_err": g.quad_err,
            "kalman_rank": rd.rank,
            "n": n,
            "controllable_rank": rank_ok,
            "controllable_gramian": gram_ok,
            "consistent": rank_ok == gram_ok,
        })
        print(f"gramian report written to {args.out}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    prob = _load_problem(args.problem)
    method = args.method or prob.method
    if method not in _SYNTHESES:
        raise InputError(f"unknown method {method!r}")
    sp = prob.steering
    result = _SYNTHESES[method](sp)
    report = verify_steering(sp, result)
    print(f"method: {result.method}")
    print(f"modified energy: {_fmt(result.energy, 17)}")
    print(f"terminal error: abs {_fmt(report.terminal_error_abs)} "
          f"rel {_fmt(report.terminal_error_rel)}")
    print(f"energy quadrature mismatch: {_fmt(report.energy_mismatch_rel)}")
    print(f"caputo residual: {_fmt(report.caputo_residual)}")
    if args.out:
        _write_json(args.out, _synthesis_to_dict(result, report, prob.system, sp.T))
        print(f"synthesis written to {args.out}")
    if args.csv:
        _write_csv(args.csv, sp.grid.nodes, u=result.control.sample(sp.grid.nodes))
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
        prob = SteeringProblem(sys, np.array([1.0, 0.0]), np.zeros(2), T,
                               TimeGrid(0.0, T, 1024))
        result = synthesize_min_energy(prob)
        Qref = np.array([
            [T**2 / 2.0, 2.0 * T**1.5 / (3.0 * np.sqrt(np.pi))],
            [2.0 * T**1.5 / (3.0 * np.sqrt(np.pi)), T / np.pi],
        ])
        all_ok &= _pass_fail(f"T={T:g} gramian entries (rel)",
                             float(np.abs(result.gramian.Q / Qref - 1.0).max()), 1e-8)
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

    def integrand(s, E):
        # E_{1/2,1/2}(A s^(1/2)) = s^(1/2) [[cos, sin], [-sin, cos]] in the
        # fractional sine and cosine, so the neutralizer s^(1/2) is already in
        if L is None:
            cos_v = E[:, 0, 0]
        else:
            cos_v = s ** (1.0 - alphav) * np.array([cl_truncation(L, sv) for sv in s])
        G = np.stack([E[:, 0, 1], cos_v], axis=1)
        return G[:, :, None] * G[:, None, :]

    Q = _adaptive_graded(integrand, T, "example 2 gramian", (A, alphav))[0]
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
            uref = math.gamma(alphav) * (T - ts) ** (1.0 - alphav) / T
            err_u = float(np.abs(rme.control.sample(ts)[:, 0] - uref).max())
            err_e = abs(rme.energy - math.gamma(alphav) ** 2 / T)
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
    ml.add_argument("--beta", type=float, help="second order (default 1) for --z and --A")
    ml.add_argument("--z", type=float, help="scalar argument")
    ml.add_argument("--t", type=float, help="time argument for --sin/--cos/matrix modes")
    ml.add_argument("--sin", action="store_true", help="fractional sine at --t")
    ml.add_argument("--cos", action="store_true", help="fractional cosine at --t")
    ml.add_argument("--A", type=str, help="JSON matrix for matrix modes")
    ml.add_argument("--exp", action="store_true", help="alpha-exponential of --A at --t")
    ml.add_argument("--s0", action="store_true", help="state-transition of --A at --t")
    ml.set_defaults(fn=cmd_ml, sin=None, cos=None, exp=None, s0=None)  # None: not given

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
    sy.add_argument("--method", choices=list(_SYNTHESES))
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
    except (InputError, OSError, ValueError, MemoryError) as exc:  # MemoryError: a grid too large
        print(f"input error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except FracctrlError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
