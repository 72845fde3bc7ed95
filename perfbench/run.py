#!/usr/bin/env python3
"""fracctrl benchmark.

    python3 perfbench/run.py --workload steer-closedform --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # the workloads in turn

Run from any directory; fracctrl is imported from ``src/`` of the checkout
that holds this file, and the run fails (non-zero exit, no result) when it
is missing.  One client drives a closed loop: each operation starts when the
previous one has been checked.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs one traced pass and one untraced pass of the same
shape and reports the per-layer metrics.  Human-readable lines come first;
the last line of standard output is the JSON result.  Details (environment,
input summary, failure classes, tail percentile, host speed, per-operation
times) go to ``perfbench/out/``.
Workload and metric names, units and the default run length come from
``BENCHMARK.json`` at the root of the checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread everywhere, children included; set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# One CPU for the harness and every child it starts: moving between CPUs
# made operations about a tenth slower and no steadier.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import probe  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_REPEATS = 5  # fresh set-up processes per run; setup_s is their median


TAIL_RUNGS = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def percentile_tail(times: list) -> tuple[float, float]:
    """The highest percentile of TAIL_RUNGS with at least ten operations
    beyond it, as (value, percentile).  Rungs keep the percentile of a
    workload fixed while its operation count drifts with the host's speed.
    Below twenty operations: the highest percentile with ten beyond it, or,
    with ten or fewer operations, the fastest one."""
    xs = sorted(times)
    n = len(xs)
    for q in TAIL_RUNGS:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            return xs[rank - 1], q
    if n <= 10:
        return xs[0], 0.0
    return xs[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "commit": commit,
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class SetupProbe:
    """Fresh set-up processes for one workload: wall time from spawn to exit,
    and the import time each reports."""

    def __init__(self, workload: str):
        self.workload = workload
        self.walls, self.imports = [], []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        cp = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), self.workload],
                            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=150)
        self.walls.append(time.perf_counter() - t0)
        if cp.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {cp.stderr.strip()[-500:]}")
        self.imports.append(json.loads(cp.stdout.strip().splitlines()[-1])["import_s"])

    def medians(self) -> tuple[float, float]:
        return statistics.median(self.walls), statistics.median(self.imports)


class Run:
    """One workload's operations, executed and checked in a closed loop."""

    def __init__(self, workload: str, seed: int, fc, inproc_cli: bool = False):
        import workloads as wl

        self.wl, self.fc = wl, fc
        self.workload = workload
        if workload == "cli-cold":
            work = os.path.join(OUT, f"work-{os.getpid()}")
            os.makedirs(work, exist_ok=True)
            self.workdir = work
            gen = wl.CliCold(seed, ROOT, work, child_env(), inproc=inproc_cli)
            self.make_pass = gen.make_pass
        elif workload == "kernel-eval":
            gen = wl.KernelEval(seed)
            self.make_pass = lambda p: gen.make_pass(fc, p)
        else:
            self.make_pass = lambda p: wl.steer_closedform_pass(fc, seed, p)
        self.seen_keys = set(probe.WARMUP_KEYS)
        self.records = []
        self.speed = HostSpeed()

    def run_op(self, op, op_id=None, tracer=None) -> dict:
        wl = self.wl
        if tracer is not None:
            tracer.op_id = op_id
        t0 = time.perf_counter()
        try:
            out, outcome = op.run(), None
        except self.fc.FracctrlError as exc:
            name = type(exc).__name__
            outcome = wl.Outcome(False, f"refused:{name}", op.refusal(name) is not None)
        except Exception as exc:  # a crash of the program is a result to report
            outcome = wl.Outcome(False, f"error:{type(exc).__name__}: {str(exc)[:200]}", False)
        dt = time.perf_counter() - t0
        if outcome is None:
            try:
                outcome = op.check(out)
            except Exception as exc:  # an output the check cannot read
                outcome = wl.Outcome(False, f"check:{type(exc).__name__}: {str(exc)[:200]}", False)
        keys = [tuple(k) for k in op.info.get("keys", [])]
        fresh = len(keys) if self.workload == "cli-cold" else len(set(keys) - self.seen_keys)
        self.seen_keys.update(keys)
        rec = {"kind": op.kind, "time": dt, "ok": outcome.ok, "failure": outcome.failure,
               "known": outcome.known, "acc": outcome.acc, "info": op.info, "fresh_keys": fresh}
        self.records.append(rec)
        return rec

    def warm(self, seconds: float) -> None:
        """Run operations of a separate input stream, unrecorded, so that FFT
        plans, allocator arenas and page cache are warm before timing."""
        t_end = time.perf_counter() + seconds
        for op in self.make_pass(WARM_PASS):
            if time.perf_counter() >= t_end:
                break
            try:
                op.run()
            except self.fc.FracctrlError:
                pass
            self.seen_keys.update(tuple(k) for k in op.info.get("keys", []))

    def loop(self, seconds: float, pause=None, pauses: int = 0) -> list:
        """Closed loop over passes: the first pass always completes (unless
        it takes FIRST_PASS_CAP seconds of wall time), so every run sees each
        kind of operation; later passes stop once the operations have been
        busy for ``seconds`` (checks run between operations and are not
        counted) or after ``seconds + CHECK_SLACK`` of wall time.  ``pause``
        is called ``pauses`` times between operations, spread evenly over the
        busy time; the host-speed reference runs between operations too.
        The wall time of both extends the deadlines."""
        start = len(self.records)
        t_start = time.perf_counter()
        t_end, t_cap = t_start + seconds + CHECK_SLACK, t_start + FIRST_PASS_CAP
        busy, p, done = 0.0, 0, 0
        while busy < seconds and time.perf_counter() < t_end:
            for op in self.make_pass(p):
                now = time.perf_counter()
                if now >= t_cap or (p > 0 and (busy >= seconds or now >= t_end)):
                    break
                while done < pauses and busy >= done * seconds / pauses:
                    t0 = time.perf_counter()
                    pause()
                    t_end += time.perf_counter() - t0
                    t_cap += time.perf_counter() - t0
                    done += 1
                busy += self.run_op(op)["time"]
                spent = self.speed.keep_up(busy)
                t_end += spent
                t_cap += spent
            p += 1
        for _ in range(done, pauses):
            pause()
        return self.records[start:]

    def one_pass(self, p: int, tracer=None) -> list:
        start = len(self.records)
        for i, op in enumerate(self.make_pass(p)):
            self.run_op(op, op_id=i, tracer=tracer)
        return self.records[start:]

    def cleanup(self) -> None:
        work = getattr(self, "workdir", None)
        if work and os.path.isdir(work):
            for name in os.listdir(work):
                os.remove(os.path.join(work, name))
            os.rmdir(work)


WARM_PASS = 2**30  # input stream of the warm-up, apart from every timed pass
WARM_SECONDS = 2.0
CHECK_SLACK = 6.0  # wall seconds a run may spend checking beyond its busy time
FIRST_PASS_CAP = 90.0  # keeps a run inside its time limit if the program slows down


def _p50(recs, key):
    """Median over the finite figures (a diverged energy is nan and counts
    in ``acc.nonfinite`` instead); 0 when no operation reports the figure."""
    vals = [r["acc"][key] for r in recs if key in r["acc"] and math.isfinite(r["acc"][key])]
    return statistics.median(vals) if vals else 0.0


def typical_op(times: list, kinds: list) -> float:
    """The median time of each kind of operation, weighted by its count.
    With one kind this is the median; a workload that mixes kinds of unlike
    cost has gaps between their modes, and its plain median falls into a
    gap and jumps with the mix.  A kind is the operation and the size n of
    its system, which sets most of its cost."""
    by_kind = {}
    for t, kind in zip(times, kinds):
        by_kind.setdefault(kind, []).append(t)
    return sum(len(ts) * statistics.median(ts) for ts in by_kind.values()) / len(times)


def quality(recs: list) -> dict:
    """Accuracy medians, failure accounting and work counts of a record set."""
    hist = Counter()
    for r in recs:
        x = r["info"].get("series_arg")
        if x is not None:
            hist["lt1" if x < 1 else "1to4" if x < 4 else "4to10" if x < 10 else "ge10"] += 1
    failed = [r for r in recs if not r["ok"]]
    return {
        "acc.terminal_err_p50": _p50(recs, "terminal_err"),
        "acc.energy_mismatch_p50": _p50(recs, "energy_mismatch"),
        "acc.caputo_residual_p50": _p50(recs, "caputo_residual"),
        "acc.kernel_err_p50": _p50(recs, "kernel_err"),
        "acc.state_err_p50": _p50(recs, "state_err"),
        "acc.nonfinite": sum(not math.isfinite(v) for r in recs for v in r["acc"].values()),
        "fail_ratio": len(failed) / max(1, len(recs)),
        "work.ops": len(recs),
        "work.fresh_keys": sum(r["fresh_keys"] for r in recs),
        **{f"work.series_arg.{b}": hist[b] for b in ("lt1", "1to4", "4to10", "ge10")},
        "_failures": dict(Counter(r["failure"] for r in failed)),
        "_unknown": sum(1 for r in failed if not r["known"]),
        "_known": sum(1 for r in failed if r["known"]),
    }


def input_summary(recs: list) -> dict:
    out = {}
    for key in ("kind", "n", "m", "alpha", "T", "N"):
        c = Counter(str(r["kind"] if key == "kind" else r["info"].get(key)) for r in recs
                    if key == "kind" or key in r["info"])
        out[key] = dict(sorted(c.items()))
    out["lags_from_inputs"] = sum(r["info"].get("lags", 0) for r in recs)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    fc = probe.import_fracctrl()
    setup = SetupProbe(workload)
    probe.warm_up(workload)
    run = Run(workload, seed, fc, inproc_cli=trace)
    try:
        if workload != "cli-cold":  # each CLI operation is a fresh process anyway
            run.warm(WARM_SECONDS)
        if trace:
            from tracing import Tracer

            for _ in range(SETUP_REPEATS):
                setup()
            setup_s, import_s = setup.medians()
            tracer = Tracer(warm_keys=run.seen_keys)
            tracer.install()
            try:
                traced = run.one_pass(0, tracer)
            finally:
                tracer.uninstall()
            plain = run.one_pass(0)  # the same inputs again, untraced
            recs = traced
            per = tracer.summary()
            q = quality(traced)
            main_spans = [s[2] - s[1] for s in tracer.spans if s[0] == "cli.main"]
            per.update({k: v for k, v in q.items() if not k.startswith("_")})
            per["cli.import_s"] = import_s if workload == "cli-cold" else 0.0
            per["cli.main_s"] = statistics.median(main_spans) if main_spans else 0.0
            # per-op ratio, median: robust to the first (cold) run of an input
            per["trace.overhead"] = statistics.median(
                t["time"] / max(u["time"], 1e-12) for t, u in zip(traced, plain))
            per["trace.op_s"] = sum(r["time"] for r in traced)
            per["trace.spans"] = len(tracer.spans)
            metrics = {m["name"]: {"value": float(per.get(m["name"], 0.0)), "unit": m["unit"]}
                       for m in SPEC["per_layer"]}
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl"))
        else:
            # set-up probes spread over the run: the host's speed drifts on
            # a scale of seconds, and probes made back to back share one state
            recs = run.loop(seconds, setup, SETUP_REPEATS)
            setup_s, import_s = setup.medians()
            q = quality(recs)
            kinds = [(r["kind"], r["info"].get("n")) for r in recs]
            times = [r["time"] for r in recs]
            tail, pct = percentile_tail(times)
            measured = {
                "setup_s": setup_s,
                "op_p50_s": typical_op(times, kinds),
                "op_tail_s": tail,
                "ops_per_s": len(times) / sum(times),
            }
            # every time at the reference's nominal speed (see hostspeed.py)
            speed = run.speed
            k = speed.factor()
            values = {name: v / k if name == "ops_per_s" else v * k for name, v in measured.items()}
            who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
            values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
            metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
    finally:
        run.cleanup()
    # ``failed`` counts the failures no known defect explains: a wrong answer,
    # a crash, an undocumented refusal.  The misses of the known defects are
    # expected on these workloads; they count in ``fail_ratio`` and
    # ``known_failed`` and are printed per failure class.
    result = {"correct": q["_unknown"] == 0, "attempted": len(recs),
              "failed": q["_unknown"], "metrics": metrics}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "inputs": input_summary(recs),
        "failures": q["_failures"], "known_failed": q["_known"],
        "quality": {k: v for k, v in q.items() if not k.startswith("_")},
        "setup": {"setup_s": setup_s, "import_s": import_s, "walls": setup.walls},
    }
    if not trace:
        detail["tail"] = {"percentile": pct, "samples": len(times)}
        detail["ops"] = [[r["kind"], r["info"].get("n"), r["time"]] for r in recs]
        detail["host_speed"] = {"factor": k, "reference_p50_s": statistics.median(speed.times),
                                "samples": len(speed.times), "measured": measured}
    return result, detail


def report(workload: str, result: dict, detail: dict) -> None:
    print(f"workload {workload}  seed {detail['seed']}  trace {int(detail['trace'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if not detail["trace"]:
        for name, value in detail["quality"].items():
            print(f"  {name:34s} {value:.6g} {UNITS.get(name, '')}")
        t = detail["tail"]
        print(f"  op_tail_s is p{t['percentile']:.1f} of {t['samples']} operations")
        h = detail["host_speed"]
        print(f"  times at nominal host speed: measured x {h['factor']:.4f} "
              f"(reference p50 {h['reference_p50_s']:.6f} s over {h['samples']} samples)")
        for name, v in h["measured"].items():
            print(f"    measured {name:25s} {v:.6g} {UNITS[name]}")
    for key, mix in detail["inputs"].items():
        print(f"  inputs {key}: {mix}")
    print(f"  failed/attempted {result['failed']}/{result['attempted']}  "
          f"(known-defect failures, not in failed: {detail['known_failed']})")
    for failure, count in sorted(detail["failures"].items()):
        print(f"    {count:4d}  {failure}")


def run_all(args) -> int:
    """The workloads in turn, each in its own child process (so peak RSS
    and caches stay per workload); one client throughout."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOAD_NAMES:
        cp = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = cp.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if cp.returncode != 0:
            print(cp.stderr, file=sys.stderr)
            return cp.returncode
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOAD_NAMES, "all"], required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        probe.import_fracctrl()
    except ImportError as exc:
        print(f"cannot import fracctrl from {probe.SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"result": result, **detail}, fh, indent=2, default=str)
    report(args.workload, result, detail)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
