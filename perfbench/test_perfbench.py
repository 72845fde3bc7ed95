"""Tests of the benchmark itself: every gate fires on a corrupted result,
failures are classified and counted, tracing restores what it patches, and
BENCHMARK.json names every metric with its unit and direction.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from hostspeed import REF_NOMINAL_S, REF_SHARE, HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402

fc = probe.import_fracctrl()

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ------------------------------------------------------------ BENCHMARK.json

def test_benchmark_json_names_every_metric_with_unit_and_direction():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    names = [w["name"] for w in doc["workloads"]]
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


# --------------------------------------------------------------------- gates

def _chain_system():
    return np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])


def test_steering_gates_pass_on_a_good_result_and_fire_on_corruption():
    A, B = _chain_system()
    op = wl._steer_op(fc, "min-energy", A, B, 0.5, 1.0, np.array([1.0, 0.0]), np.zeros(2),
                      [fc.synthesize_min_energy], wl.TERMINAL_TOL)
    out = op.run()
    assert op.check(out).ok
    (res, rep), = out
    missed = [(res, dataclasses.replace(rep, terminal_error_rel=2e-3))]
    got = op.check(missed)
    assert (got.ok, got.failure, got.known) == (False, "gate:terminal_err[cusp]", True)
    # a gross terminal miss is beyond the first-order cusp defect
    gross = [(res, dataclasses.replace(rep, terminal_error_rel=1.0))]
    got = op.check(gross)
    assert (got.ok, got.failure, got.known) == (False, "gate:terminal_err", False)
    # an energy-identity miss on a well-conditioned Gramian is no known defect,
    # and it is not hidden by a known terminal miss beside it
    drift = [(res, dataclasses.replace(rep, energy_mismatch_rel=1e-5, terminal_error_rel=2e-3))]
    got = op.check(drift)
    assert (got.failure, got.known) == ("gate:terminal_err[cusp],energy_mismatch", False)
    # a wrong steering defect is no known defect: the run becomes incorrect
    bad = [(dataclasses.replace(res, f_T=res.f_T + 1e-6), rep)]
    got = op.check(bad)
    assert (got.ok, got.failure, got.known) == (False, "gate:kernel_err", False)


def _rank_op(alpha):
    A, B = _chain_system()
    op = wl._steer_op(fc, "rank", A, B, alpha, 1.0, np.array([1.0, 0.0]), np.zeros(2),
                      [fc.synthesize_rank_based], wl.TERMINAL_TOL_RANK)
    (res, rep), = op.run()
    return lambda **changes: op.check([(res, dataclasses.replace(rep, **changes))])


def test_rank_based_misses_are_known_only_as_documented():
    check = _rank_op(0.7)
    assert check().ok
    got = check(terminal_error_rel=5.0)
    assert (got.ok, got.failure, got.known) == (False, "gate:terminal_err[rank]", True)
    assert not check(terminal_error_rel=math.nan).known
    # the energy diverges only for alpha <= 1/2
    assert not check(energy_mismatch_rel=math.nan).known
    check = _rank_op(0.4)
    got = check(energy_mismatch_rel=math.nan)
    assert (got.failure, got.known) == ("gate:energy_mismatch[diverged]", True)
    got = check(energy_mismatch_rel=1e-3)
    assert (got.failure, got.known) == ("gate:energy_mismatch", False)


def test_refusals_are_known_only_where_documented():
    A, B = _chain_system()
    well = wl.steering_refusal(A, B, 0.5, 1.0, inverse_kernel=False)
    assert well("SingularGramian") is None and well("SingularKernel") is None
    near_singular = np.array([[1.0], [1.0 + 1e-7]])
    ill = wl.steering_refusal(np.zeros((2, 2)), near_singular @ near_singular.T + 1e-12 * np.eye(2),
                              0.5, 1.0, inverse_kernel=True)
    assert ill("SingularGramian") == "SingularGramian" and ill("SingularKernel") == "SingularKernel"
    assert ill("NonConvergence") is None


def test_kernel_gate_fires_and_cancellation_is_told_apart():
    zs = np.array([-1.0, 0.5, 2.0])
    op = wl._ml_scalar_op(fc, "ml_scalar.warm", 0.5, 1.0, zs)
    vals = op.run()
    assert op.check(vals).ok
    got = op.check(vals * (1.0 + 1e-8))
    assert (got.ok, got.failure, got.known) == (False, "gate:kernel_err", False)
    # the same miss where the series cancels beyond double precision is known
    got = wl._kernel_outcome(1e-3, 1e15, wl.EPS)
    assert (got.ok, got.failure, got.known) == (False, "gate:kernel_err[cancellation]", True)
    # ... but not an error far beyond what that cancellation can cost
    assert not wl._kernel_outcome(10.0, 1e15, wl.EPS).known
    # ... nor a miss at a point whose own series does not cancel
    assert not wl._kernel_outcome([1e-3, 1e-3], [1e15, 1.0], wl.EPS).known


def test_cli_gates_fire_on_wrong_stdout_and_bad_exits(tmp_path):
    cli = wl.CliCold(3, run.ROOT, str(tmp_path), run.child_env(), inproc=True)
    ops = {op.kind: op for op in cli.make_pass(0)}
    rc, out, err = ops["ml"].run()
    assert rc == 0 and ops["ml"].check((rc, out, err)).ok
    wrong = f"{float(out) * (1.0 + 1e-9):.15g}\n"
    assert ops["ml"].check((0, wrong, "")).failure == "gate:kernel_err"
    rc, out, err = ops["gramian"].run()
    assert ops["gramian"].check((rc, out, err)).ok
    lines = out.splitlines()
    lines[1] = " ".join(f"{v * 1.001:.17g}" for v in map(float, lines[1].split()))
    assert not ops["gramian"].check((rc, "\n".join(lines), err)).ok
    got = ops["ml"].check((1, "", "Traceback (most recent call last):\n"))
    assert (got.ok, got.known) == (False, False)
    got = ops["ml"].check((3, "", "numeric failure: NonConvergence: no convergence\n"))
    assert (got.ok, got.failure, got.known) == (False, "refused:NonConvergence", False)
    got = ops["ml"].check((0, "not a number\n", ""))
    assert (got.ok, got.known) == (False, False)


def test_reproduce_gate_reads_the_verdict_line(tmp_path):
    cli = wl.CliCold(1, run.ROOT, str(tmp_path), run.child_env(), inproc=True)
    op = next(op for op in cli.make_pass(0) if op.kind == "reproduce-1")
    assert op.check((0, "...\nresult: ALL PASS\n", "")).ok
    assert not op.check((0, "...\nresult: FAILURES present\n", "")).ok


# ---------------------------------------------------------------- accounting

def test_every_failure_counts_and_only_unknown_ones_make_a_run_incorrect():
    r = run.Run("steer-closedform", 1, fc)

    def raises(exc):
        def f():
            raise exc
        return f

    info = {"n": 1}
    r.run_op(wl.Op("a", raises(fc.SingularGramian("refused")), None, info, lambda name: name))
    r.run_op(wl.Op("b", lambda: 1.0, lambda out: wl.Outcome(False, "gate:terminal_err"), info))
    r.run_op(wl.Op("c", lambda: 1.0, lambda out: wl.Outcome(True), info))
    q = run.quality(r.records)
    assert q["fail_ratio"] == pytest.approx(2 / 3) and q["_unknown"] == 0 and q["_known"] == 2
    r.run_op(wl.Op("d", raises(ZeroDivisionError()), None, info))
    r.run_op(wl.Op("e", raises(fc.NonConvergence("no")), None, info))  # undocumented refusal
    q = run.quality(r.records)
    assert q["fail_ratio"] == pytest.approx(4 / 5) and q["_unknown"] == 2 and q["_known"] == 2
    assert q["_failures"] == {"refused:SingularGramian": 1, "gate:terminal_err": 1,
                              "error:ZeroDivisionError: ": 1, "refused:NonConvergence": 1}


def test_setup_probes_are_spread_over_the_loop():
    r = run.Run("steer-closedform", 1, fc)
    r.make_pass = lambda p: [wl.Op("x", lambda: time.sleep(0.005), lambda out: wl.Outcome(True), {})
                             for _ in range(10)]
    seen = []
    recs = r.loop(0.1, lambda: seen.append(len(r.records)), 4)
    assert len(seen) == 4 and seen[0] == 0
    assert seen == sorted(set(seen)) and seen[-1] < len(recs)
    assert r.speed.total >= REF_SHARE * sum(rec["time"] for rec in recs)  # reference kept up


def test_tail_is_the_highest_rung_with_ten_beyond_it():
    times = list(range(1, 101))
    value, pct = run.percentile_tail(times)
    assert value == 90 and pct == pytest.approx(90.0)
    assert sum(t > value for t in times) == 10
    # the percentile stays put while the count drifts between rungs
    assert run.percentile_tail(list(range(1, 301)))[1] == 95.0
    assert run.percentile_tail(list(range(1, 400)))[1] == 95.0
    # below twenty operations: ten beyond, or the fastest
    value, pct = run.percentile_tail(list(range(1, 13)))
    assert value == 2 and pct == pytest.approx(100.0 * 2 / 12)
    assert run.percentile_tail([3.0, 1.0, 2.0]) == (1.0, 0.0)


def test_typical_op_weights_each_kinds_median_by_its_count():
    times = [1.0, 1.2, 1.1, 3.0, 3.4]
    kinds = ["a", "a", "a", "b", "b"]
    assert run.typical_op(times, kinds) == pytest.approx((3 * 1.1 + 2 * 3.2) / 5)
    assert run.typical_op([2.0, 9.0, 1.0], ["a"] * 3) == 2.0


def test_times_are_scaled_by_the_runs_median_reference_time():
    speed = HostSpeed()
    assert speed.times == []
    speed.times = [2 * REF_NOMINAL_S] * 3 + [REF_NOMINAL_S] * 2
    assert speed.factor() == pytest.approx(0.5)  # a host at half speed
    # the reference keeps up with the busy time, and samples at least once
    speed.times, speed.total = [], 0.0
    assert speed.keep_up(0.0) > 0.0 and len(speed.times) == 1
    speed.keep_up(speed.total / REF_SHARE + 1e-3)
    assert len(speed.times) >= 2 and speed.total == pytest.approx(sum(speed.times))


def test_inputs_repeat_for_a_seed_and_change_with_it():
    def digest(seed):
        return [op.info["series_arg"] for op in wl.steer_closedform_pass(fc, seed, 0)]

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


# ------------------------------------------------------------------- tracing

def test_tracer_records_nested_spans_and_restores_bindings():
    import fracctrl.controlsyn as cs

    original = cs.gramian
    tracer = Tracer()
    tracer.install()
    try:
        assert cs.gramian is not original and fc.gramian is not original
        A, B = _chain_system()
        cs.gramian(fc.FracSystem(A, B, alpha=0.5), 1.0)
    finally:
        tracer.uninstall()
    assert cs.gramian is original and fc.gramian is original
    summary = tracer.summary()
    assert summary["controlsyn.gramian.calls"] == 1
    assert summary["mlkernel.ml_matrix_batch.calls"] >= 2
    gram = next(i for i, s in enumerate(tracer.spans) if s[0] == "controlsyn.gramian")
    assert all(s[3] == gram for s in tracer.spans if s[0] == "mlkernel.ml_matrix_batch")
    assert 0.0 <= summary["controlsyn.gramian.self_s"] <= tracer.spans[gram][2] - tracer.spans[gram][1]
