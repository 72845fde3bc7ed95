"""CLI tests: subcommand behaviour, exit codes, problem-file validation,
deterministic artifacts, and the synthesize/simulate round trip."""

import copy
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracctrl import (FracSystem, GridFunction, MLParams, MinEnergyControl,
                      SampledControl, TimeGrid, caputo_residual, ml_matrix, simulate)
import fracctrl.cli as cli
from fracctrl.cli import _ML_PRINT_POLICY, _example2_energy, main

SRC = str(Path(__file__).resolve().parents[1] / "src")
EXAMPLE1_PATH = str(Path(__file__).resolve().parents[1] / "docs" / "example1.json")


def run_cli(args, **kw):
    """``python`` with ``args`` in a fresh process that imports this checkout."""
    env = {**os.environ, "PYTHONPATH": SRC, **kw.pop("env", {})}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=env, **kw)


CHAIN = {"alpha": 0.5, "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]}
STEERING = {"a": [1.0, 0.0], "b": [0.0, 0.0], "T": 10.0}


def one_line_input_error(err):
    """True for a single ``input error:`` line on stderr, with no traceback."""
    return err.startswith("input error:") and err.count("\n") == 1 and "Traceback" not in err


def write_problem(path, **overrides):
    doc = {
        "system": CHAIN,
        "steering": STEERING,
        "numerics": {"grid_steps": 512},
        "control": {"type": "constant", "value": [1.0]},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


class TestMl:
    def test_exponential(self, capsys):
        assert main(["ml", "--alpha", "1", "--beta", "1", "--z", "1"]) == 0
        assert capsys.readouterr().out.strip() == "2.71828182845905"

    def test_fractional_sine(self, capsys):
        assert main(["ml", "--sin", "--alpha", "0.5", "--t", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0.367879441171442"

    def test_zero_argument(self, capsys):
        assert main(["ml", "--alpha", "0.5", "--beta", "0.5", "--z", "0"]) == 0
        assert capsys.readouterr().out.strip() == "0.564189583547756"

    def test_matrix_mode(self, capsys):
        rc = main(["ml", "--alpha", "0.5", "--s0", "--A", "[[0,1],[0,0]]", "--t", "1"])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()
        got = np.array([[float(v) for v in row.split()] for row in rows])
        assert np.allclose(got, [[1.0, 2.0 / np.sqrt(np.pi)], [0.0, 1.0]], rtol=1e-12)

    def test_alpha_exponential_mode(self, capsys):
        # the chain's t^(alpha-1) E_{alpha,alpha}(A t^alpha) at t = 1, alpha = 1/2
        rc = main(["ml", "--alpha", "0.5", "--exp", "--A", "[[0,1],[0,0]]", "--t", "1"])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()
        got = np.array([[float(v) for v in row.split()] for row in rows])
        want = [[1.0 / np.sqrt(np.pi), 1.0], [0.0, 1.0 / np.sqrt(np.pi)]]
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_matrix_overflow_prints_only_the_failure(self):
        # numpy's overflow warning from the series step never reaches stderr
        out = run_cli(["-m", "fracctrl.cli", "ml", "--alpha", "0.5", "--A", "[[-10]]", "--t", "1"])
        assert out.returncode == 3 and out.stdout == ""
        assert out.stderr == "numeric failure: NonConvergence: Mittag-Leffler matrix series terms overflow\n"

    def test_usage_error(self, capsys):
        assert main(["ml", "--alpha", "1"]) == 2

    def test_non_matrix_argument_is_input_error(self, capsys):
        assert main(["ml", "--alpha", "0.5", "--A", "{}", "--t", "1"]) == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("args, message", [
        (["--sin"], "--sin/--cos need --t"),
        (["--A", "not json", "--t", "1"], "--A must be a JSON matrix"),
        # JSON numbers as a problem file reads them: no bool, string or null
        (["--A", "[[true]]", "--t", "1"], "each entry of --A must be a number, got True"),
        (["--A", '[["1"]]', "--t", "1"], "each entry of --A must be a number, got '1'"),
        (["--A", "[[null]]", "--t", "1"], "each entry of --A must be a number, got None"),
        (["--A", "[[1]]"], "matrix evaluation needs --t"),
        (["--t", "1", "--sin", "--cos"], "ml --sin does not read --cos"),
        (["--A", "[[0,1],[0,0]]", "--t", "1", "--exp", "--s0"], "ml --exp does not read --s0"),
        (["--z", "1", "--sin", "--t", "2"], "ml --sin does not read --z"),
        (["--cos", "--beta", "2", "--t", "1"], "ml --cos does not read --beta"),
        (["--s0", "--A", "[[1]]", "--t", "1", "--beta", "2"], "ml --s0 does not read --beta"),
        (["--A", "[[1]]", "--t", "1", "--z", "1"], "ml --A does not read --z"),
        (["--z", "1", "--t", "1"], "ml --z does not read --t"),
        (["--z", "0", "--exp"], "ml --exp does not read --z"),
        (["--exp", "--t", "1"], "--exp/--s0 need --A"),
        (["--t", "1"], "scalar evaluation needs --z"),
    ])
    def test_incomplete_mode_is_input_error(self, capsys, args, message):
        assert main(["ml", "--alpha", "0.5", *args]) == 2
        err = capsys.readouterr().err
        assert one_line_input_error(err) and message in err

    @pytest.mark.parametrize("args, out", [
        (["--alpha", "0.5", "--z", "-6.5"], "0.0858056701049013\n"),
        (["--alpha", "0.37", "--beta", "1.91", "--z", "3.2"], "1819630850.07733\n"),
        (["--cos", "--alpha", "1", "--t", "1"], "0.54030230586814\n"),
        (["--sin", "--alpha", "0.7", "--t", "3"], "0.0041229404104039\n"),
        (["--alpha", "0.5", "--beta", "0.5", "--z", "-1"], "0.136606007391949\n"),
    ])
    def test_scalar_output_pinned(self, capsys, args, out):
        # stdout byte for byte, as first recorded from the per-term stop rule
        assert main(["ml", *args]) == 0
        assert capsys.readouterr() == (out, "")

    def test_general_matrix_mode(self, capsys):
        # E_{alpha,beta}(A t^alpha) with the --beta given, row by row
        rc = main(["ml", "--alpha", "0.6", "--beta", "1.2", "--A", "[[0.1,0.2],[-0.3,0.4]]",
                   "--t", "2"])
        assert rc == 0
        A = np.array([[0.1, 0.2], [-0.3, 0.4]])
        want = ml_matrix(MLParams(0.6, 1.2), A * 2.0**0.6, _ML_PRINT_POLICY)
        assert capsys.readouterr().out == "".join(
            " ".join(f"{v:.15g}" for v in row) + "\n" for row in want)

    @pytest.mark.parametrize("z", ["nan", "inf"])
    def test_non_finite_argument_is_numeric_failure(self, capsys, z):
        assert main(["ml", "--alpha", "0.5", "--z", z]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: NonConvergence:") and "Traceback" not in err

    @pytest.mark.parametrize("orders", [["--alpha", "inf"], ["--alpha", "0.5", "--beta", "inf"]])
    def test_non_finite_order_is_input_error(self, capsys, orders):
        assert main(["ml", *orders, "--z", "1"]) == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("mode", [[], ["--exp"], ["--s0"]])
    @pytest.mark.parametrize("t", ["-1", "-1e-300", "inf", "-inf", "nan"])
    def test_bad_matrix_time_names_t(self, capsys, mode, t):
        # --A once took --t -1 as the real part of the complex (-1)**0.5
        assert main(["ml", "--alpha", "0.5", *mode, "--A", "[[1]]", f"--t={t}"]) == 2
        err = capsys.readouterr().err
        assert one_line_input_error(err) and "--t must be finite and >= 0" in err

    @pytest.mark.parametrize("mode, alpha", [([], "0.5"), (["--exp"], "0.5"), (["--s0"], "0.5"),
                                             ([], "400")])
    def test_overflowing_matrix_argument_prints_only_the_refusal(self, mode, alpha):
        # A t^alpha overflows (or t^alpha alone at alpha = 400): every entry given is
        # finite, so one numeric failure naming the value, no warning
        out = run_cli(["-m", "fracctrl.cli", "ml", "--alpha", alpha, *mode,
                       "--A", "[[1e308]]", "--t", "10"])
        assert (out.returncode, out.stdout) == (3, "")
        assert out.stderr == "numeric failure: NonConvergence: A t^alpha overflows at t=10.0\n"


    @pytest.mark.parametrize("args", [
        ["--alpha", "0.001", "--exp", "--A", "[[0]]", "--t", "1e-320"],
        ["--alpha", "0.001", "--cos", "--t", "1e-320"],
        ["--alpha", "1", "--sin", "--t", "1e308"],
    ])
    def test_overflowing_power_of_t_is_numeric_failure(self, capsys, args):
        # t^(beta-1) or t^(2 alpha) overflows: once a bare OverflowError traceback
        assert main(["ml", *args]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: NonConvergence: t^") and err.count("\n") == 1
        assert "overflows at t=" in err


class TestImport:
    def test_import_is_silent_and_writes_nothing(self, tmp_path):
        # importing the CLI does no work that could warn, print or leave a file
        before = sorted(Path(SRC).rglob("*"))
        out = run_cli(["-W", "error", "-c", "import fracctrl.cli"], cwd=tmp_path,
                      env={"HOME": str(tmp_path), "TMPDIR": str(tmp_path),
                           "PYTHONDONTWRITEBYTECODE": "1"})
        assert (out.returncode, out.stdout, out.stderr) == (0, "", "")
        assert list(tmp_path.iterdir()) == [] and sorted(Path(SRC).rglob("*")) == before

    @pytest.mark.parametrize("cmd", ["ml", "simulate", "synthesize", "reproduce"])
    def test_commands_run_clean_under_warnings_as_errors(self, tmp_path, cmd):
        # the package and its star-imported names load and run in a fresh process
        args = {
            "ml": ["--alpha", "0.6", "--beta", "1.2", "--A", "[[0.1,0.2],[-0.3,0.4]]", "--t", "1"],
            "simulate": [write_problem(tmp_path / "p.json")],  # a constant control
            "synthesize": [EXAMPLE1_PATH, "--method", "rank"],
            "reproduce": ["--example", "2"],
        }[cmd]
        out = run_cli(["-W", "error", "-m", "fracctrl.cli", cmd, *args])
        assert (out.returncode, out.stderr) == (0, "") and out.stdout


class TestSchemaDocs:
    """The problem-file examples in docs/file-formats.md and in the CLI's
    docstring show the fields the CLI reads, with its defaults."""

    @staticmethod
    def examples():
        md = (Path(__file__).parents[1] / "docs" / "file-formats.md").read_text()
        doc = cli.__doc__
        return {"file-formats.md": md.split("```json\n", 1)[1].split("```", 1)[0],
                "cli docstring": doc[doc.index("\n  {\n"):doc.index("\n  }\n") + 4]}

    @pytest.mark.parametrize("where", ["file-formats.md", "cli docstring"])
    def test_example_keys_and_defaults_match_field_table(self, where):
        example = json.loads(re.sub(r"//.*", "", self.examples()[where]))
        assert set(example) == set(cli._FIELDS["problem file"])
        for key, block in example.items():
            if key == "control":  # one control type, with the key that type needs
                assert set(block) == {"type", cli._CONTROL_NEEDS[block["type"]]}
            elif isinstance(block, dict):
                assert set(block) == set(cli._FIELDS[f"{key} block"]), (where, key)
        for key, value in example["numerics"].items():
            assert value == cli._FIELDS["numerics block"][key][1], (where, key)


class TestSimulate:
    def test_constant_control_terminal_state(self, tmp_path, capsys):
        pf = write_problem(tmp_path / "p.json")
        out = tmp_path / "traj.csv"
        assert main(["simulate", pf, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        vals = [float(v) for v in text.splitlines()[0].split(":")[1].split()]
        T = 10.0
        assert vals[0] == pytest.approx(1.0 + T, abs=1e-4)
        assert vals[1] == pytest.approx(2.0 * np.sqrt(T) / np.sqrt(np.pi), abs=1e-4)
        assert out.read_text().splitlines()[0] == "t,x1,x2"

    def test_trajectory_csv_roundtrip_and_determinism(self, tmp_path, capsys):
        # with a "C" block: the y columns too, each column bit for bit what
        # simulate returns, and the same bytes from a second run
        C = [[0.0, 1.0]]
        pf = write_problem(tmp_path / "p.json", system={**CHAIN, "C": C})
        outs = [tmp_path / "traj1.csv", tmp_path / "traj2.csv"]
        for out in outs:
            assert main(["simulate", pf, "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_text().splitlines()[0] == "t,x1,x2,y1"
        sys = FracSystem(CHAIN["A"], CHAIN["B"], C=C, alpha=CHAIN["alpha"])
        grid = TimeGrid(0.0, STEERING["T"], 512)
        u = SampledControl(GridFunction(grid, np.ones((grid.steps + 1, 1))))
        traj = simulate(sys, np.array(STEERING["a"]), u, grid)
        data = np.loadtxt(outs[0], delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(data[:, 0], grid.nodes)
        assert np.array_equal(data[:, 1:3], traj.states)
        assert np.array_equal(data[:, 3:], traj.outputs)

    def test_zero_control_free_response(self, tmp_path, capsys):
        pf = write_problem(tmp_path / "p.json",
                           control={"type": "constant", "value": [0.0]})
        assert main(["simulate", pf]) == 0
        vals = [float(v) for v in
                capsys.readouterr().out.splitlines()[0].split(":")[1].split()]
        assert vals == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_missing_file_is_input_error(self):
        assert main(["simulate", "/nonexistent/problem.json"]) == 2

    def test_unknown_keys_rejected(self, tmp_path):
        pf = write_problem(tmp_path / "p.json", extra={"x": 1})
        assert main(["simulate", pf]) == 2

    @pytest.mark.parametrize("numerics", [
        {"grid_steps": 2.7}, {"grid_steps": 512.0}, {"refine": 1.5},
        {"quad_order": 0}, {"series_max_terms": True}, {"grid_steps": None},
        {"series_rel_tol": [1]}, {"quad_rel_tol": None}, {"series_rel_tol": True},
        {"refine": None}, {"quad_levels": 12}, {"quad_order": 16}, {"quad_rel_tol": 1e-11},
        {"series_rel_tol": 1e-14},
    ])
    def test_malformed_numerics_rejected(self, tmp_path, capsys, numerics):
        pf = write_problem(tmp_path / "p.json", numerics={"grid_steps": 512, **numerics})
        assert main(["simulate", pf]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err
        # retired settings are unknown keys, even where simulate would not read them
        retired = sorted({"refine", "quad_levels", "quad_order", "quad_rel_tol", "series_rel_tol",
                          "series_max_terms"} & set(numerics))
        if retired:
            assert f"unknown keys in numerics block: {retired}" in err

    @pytest.mark.parametrize("block, value", [
        ("numerics", []), ("numerics", None), ("steering", None), ("system", None),
        ("control", 5), ("control", {"type": []}),
        ("control", {"type": "constant", "value": {}}),
        ("control", {"type": "csv", "path": 5}),
        # numbers are JSON numbers, not booleans or strings
        ("system", {**CHAIN, "alpha": True}), ("system", {**CHAIN, "alpha": "0.5"}),
        ("steering", {**STEERING, "T": True}), ("steering", {**STEERING, "T": "10"}),
        # B and C are 2-D matrices
        ("system", {**CHAIN, "B": 1}), ("system", {**CHAIN, "B": [[[0.0]], [[1.0]]]}),
        ("system", {**CHAIN, "C": [[[0.0], [1.0]]]}),
        # no control, an unknown type, a constant that is not numeric or not m long
        ("control", None), ("control", {"type": "ramp"}),
        ("control", {"type": "constant", "value": [{}]}),
        ("control", {"type": "constant", "value": ["a"]}),
        ("control", {"type": "constant", "value": [1.0, 2.0]}),
        ("control", {"type": "constant", "value": [[1], [2, 3]]}),
    ])
    def test_malformed_blocks_rejected(self, tmp_path, capsys, block, value):
        pf = write_problem(tmp_path / "p.json", **{block: value})
        assert main(["simulate", pf]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err
        assert err.count("\n") == 1
        if isinstance(value, dict) and value.get("value") == [[1], [2, 3]]:
            assert err.startswith("input error: constant control value: ")
        if isinstance(value, dict) and value.get("value") in ([{}], ["a"]):
            assert err.startswith("input error: each entry of value in control block "
                                  f"must be a number, got {value['value'][0]!r}")

    @pytest.mark.parametrize("cmd", ["simulate", "gramian"])
    @pytest.mark.parametrize("block, key, value, bad", [
        ("system", "A", [[0.0, True], [0.0, 0.0]], True),
        ("system", "B", [[0.0], ["1"]], "1"),
        ("steering", "a", [1.0, False], False),
        ("control", "value", [True], True),
    ])
    def test_array_entries_are_numbers(self, tmp_path, capsys, cmd, block, key, value, bad):
        blocks = {"system": CHAIN, "steering": STEERING,
                  "control": {"type": "constant", "value": [1.0]}}
        pf = write_problem(tmp_path / "p.json", **{block: {**blocks[block], key: value}})
        assert main([cmd, pf]) == 2
        err = capsys.readouterr().err
        assert one_line_input_error(err)
        assert f"each entry of {key} in {block} block must be a number, got {bad!r}" in err

    @pytest.mark.parametrize("content, message", [
        ("{not json", "problem file is not valid JSON"),
        ("", "problem file is not valid JSON"),
        ("[1, 2]", "problem file must be a JSON object"),
        ("5", "problem file must be a JSON object"),
    ])
    def test_problem_file_not_a_json_object(self, tmp_path, capsys, content, message):
        pf = tmp_path / "p.json"
        pf.write_text(content)
        assert main(["simulate", str(pf)]) == 2
        err = capsys.readouterr().err
        assert one_line_input_error(err) and message in err

    @pytest.mark.parametrize("rows, message", [
        ("t,u1,u2\n" + "".join(f"{t},1,2\n" for t in (0.0, 5.0, 10.0)), "1+1 columns"),
        ("t,u1\n" + "".join(f"{t},1\n" for t in (0.0, 2.0, 5.0, 10.0)), "uniform grid"),
        ("t,u1\n0.0,1\n10.0,1\n", "uniform grid"),
        ("t,u1\n" + "".join(f"{t},1\n" for t in (0.0, 2.5, "nan", 7.5, 10.0)), "uniform grid"),
        ("t,u1\n", "no data rows"),  # refused without numpy's empty-input warning
    ])
    def test_malformed_control_csv_rejected(self, tmp_path, capsys, rows, message):
        csvp = tmp_path / "ctrl.csv"
        csvp.write_text(rows)
        pf = write_problem(tmp_path / "p.json", control={"type": "csv", "path": str(csvp)})
        assert main(["simulate", pf]) == 2
        err = capsys.readouterr().err
        assert one_line_input_error(err) and message in err

    @pytest.mark.filterwarnings("error")
    def test_malformed_synthesis_document_rejected(self, tmp_path, capsys):
        docp = tmp_path / "c.json"
        pf = write_problem(tmp_path / "p.json", control={"type": "synthesized", "path": str(docp)})
        good = {"alpha": 0.5, "T": 10.0, "system": {"A": CHAIN["A"], "B": CHAIN["B"]},
                "control": {"type": "min-energy", "coeff": [0.1, 0.2]}}
        # a sampled control held constant past its last sample, or on [0, inf]
        sampled = {"type": "sampled", "grid": {"t0": 0.0, "t1": 5.0, "steps": 4},
                   "values": [[1.0]] * 5}
        unbounded = {**sampled, "grid": {"t0": 0.0, "t1": float("inf"), "steps": 4}}
        for content in ({}, [], {"control": {"type": "min-energy"}},
                        {**good, "alpha": 5}, {**good, "T": float("nan")},
                        {**good, "control": {"type": "min-energy", "coeff": [float("nan"), 1]}},
                        {**good, "control": sampled}, {**good, "control": unbounded},
                        {**good, "control": {"type": "min-energy", "coeff": [1, 2, 3]}},
                        {**good, "control": {"type": "pinv", "B_pinv": [[0.0, 1.0]], "v": [1.0]}},
                        {**good, "control": {"type": "pinv", "B_pinv": [[1.0]], "v": [1.0, 0.0]}}):
            docp.write_text(json.dumps(content))
            assert main(["simulate", pf]) == 2
            err = capsys.readouterr().err
            # refused by the document's own checks, not by numpy on the way
            assert err.startswith("input error:")
            assert "malformed synthesis document" in err or "must span" in err
        # numbers are JSON numbers, never coerced from a fraction, bool or string
        grid = {"t0": 0.0, "t1": 10.0, "steps": 8}
        for content, message in (
                ({"steps": 8.9}, "steps must be an integer, got 8.9"),
                ({"steps": "8"}, "steps must be an integer, got '8'"),
                ({"t1": "10"}, "TypeError"),
                ({"steps": True}, "steps must be an integer, got True"),
                ({"T": "10"}, "horizon T must be a number, got '10'")):
            spec = {"type": "sampled", "grid": {**grid, **content}, "values": [[1.0]] * 9}
            doc = {**good, "T": content["T"]} if "T" in content else {**good, "control": spec}
            docp.write_text(json.dumps(doc))
            assert main(["simulate", pf]) == 2
            err = capsys.readouterr().err
            assert one_line_input_error(err) and "malformed synthesis document" in err
            assert message in err

    @pytest.mark.parametrize("change, message", [
        ({"alpha": True}, "alpha must be a number, got True"),
        ({"control": {"type": "min-energy", "coeff": [True, False]}},
         "each entry of coeff must be a number, got True"),
        ({"control": {"type": "min-energy", "coeff": ["0.1", "0.2"]}},
         "each entry of coeff must be a number, got '0.1'"),
        ({"control": {"type": "sampled", "grid": {"t0": False, "t1": 10.0, "steps": 8},
                      "values": [[1.0]] * 9}}, "grid t0 must be a number, got False"),
    ])
    def test_synthesis_document_numbers_are_numbers(self, tmp_path, capsys, change, message):
        # each runs as 1, 0 or a parsed string if coerced
        docp = tmp_path / "c.json"
        docp.write_text(json.dumps({"alpha": 0.5, "T": 10.0,
                                    "system": {"A": CHAIN["A"], "B": CHAIN["B"]},
                                    "control": {"type": "min-energy", "coeff": [0.1, 0.2]},
                                    **change}))
        pf = write_problem(tmp_path / "p.json", control={"type": "synthesized", "path": str(docp)})
        assert main(["simulate", pf]) == 2
        err = capsys.readouterr().err
        assert one_line_input_error(err) and "malformed synthesis document" in err
        assert message in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cmd", ["simulate", "gramian"])
    def test_overflow_is_numeric_failure(self, tmp_path, capsys, cmd):
        pf = write_problem(tmp_path / "p.json", steering={**STEERING, "T": 1e308},
                           numerics={"grid_steps": 64})
        assert main([cmd, pf]) == 3
        assert capsys.readouterr().err.startswith("numeric failure:")

    @pytest.mark.parametrize("cmd", ["simulate", "synthesize"])
    def test_unallocatable_grid_is_input_error(self, tmp_path, capsys, cmd):
        # 10**15 steps need 8 PB an array, past a 47-bit address space, so the
        # allocation fails at once under any overcommit setting; never test a
        # grid that could be allocated
        doc = json.loads(Path(EXAMPLE1_PATH).read_text())
        doc["numerics"]["grid_steps"] = 10**15
        pf = tmp_path / "p.json"
        pf.write_text(json.dumps(doc))
        assert main([cmd, str(pf)]) == 2
        err = capsys.readouterr().err
        assert one_line_input_error(err) and "Unable to allocate" in err

    @pytest.mark.parametrize("start, end, rc", [
        (0.0, 5.0, 2), (0.5, 10.0, 2), (0.0, 10.0 - 1e-9, 2), (1e-9, 10.0, 2),
        (0.0, 10.0, 0), (0.0, 10.0 * (1.0 - 1e-13), 0), (0.0, 20.0, 0), (-1.0, 10.0, 0),
    ])
    def test_control_csv_must_span_horizon(self, tmp_path, capsys, start, end, rc):
        # T = 10: a grid that starts late or ends early is refused, not held
        # constant to T; one that reaches beyond [0, T] is read inside it
        csvp = tmp_path / "ctrl.csv"
        rows = "".join(f"{float(t)!r},1.0\n" for t in np.linspace(start, end, 65))
        csvp.write_text("t,u1\n" + rows)
        pf = write_problem(tmp_path / "p.json", control={"type": "csv", "path": str(csvp)})
        assert main(["simulate", pf]) == rc
        err = capsys.readouterr().err
        assert ("must span [0, T]" in err) == (rc == 2)

    def test_constant_control_without_value_rejected(self, tmp_path, capsys):
        pf = write_problem(tmp_path / "p.json", control={"type": "constant"})
        assert main(["simulate", pf]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("steering", [
        {"a": [1.0, 0.0], "b": [0.0, 0.0], "T": float("inf")},
        {"a": [float("nan"), 0.0], "b": [0.0, 0.0], "T": 10.0},
        {"a": [1.0, 0.0], "b": [0.0, float("-inf")], "T": 10.0},
    ])
    def test_non_finite_steering_rejected(self, tmp_path, capsys, steering):
        pf = write_problem(tmp_path / "p.json", steering=steering)
        assert main(["simulate", pf]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err

    def test_bad_alpha_rejected(self, tmp_path):
        pf = write_problem(
            tmp_path / "p.json",
            system={"alpha": 1.5, "A": [[0.0]], "B": [[1.0]]},
            steering={"a": [0.0], "b": [1.0], "T": 1.0},
            control={"type": "constant", "value": [0.0]},
        )
        assert main(["simulate", pf]) == 2


class TestGramian:
    def test_chain_system_report(self, tmp_path, capsys):
        pf = write_problem(tmp_path / "p.json")
        out = tmp_path / "gram.json"
        assert main(["gramian", pf, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "kalman rank = 2 of 2 -> controllable" in text
        assert "consistent" in text
        doc = json.loads(out.read_text())
        assert doc["Q"][0][0] == pytest.approx(50.0, rel=1e-8)
        assert doc["consistent"] is True

    def test_integer_numbers_written_as_floats(self, tmp_path, capsys):
        # a JSON number is read as a float, so an integer T or alpha comes
        # back as 10.0 and 1.0 in the written documents
        pf = write_problem(tmp_path / "p.json", system={**CHAIN, "alpha": 1},
                           steering={**STEERING, "T": 10})
        gram, synth = tmp_path / "g.json", tmp_path / "s.json"
        assert main(["gramian", pf, "--out", str(gram)]) == 0
        assert main(["synthesize", pf, "--out", str(synth)]) == 0
        assert '"T": 10.0,' in gram.read_text()
        assert '"alpha": 1.0,' in synth.read_text() and '"T": 10.0,' in synth.read_text()

    def test_uncontrollable_verdict(self, tmp_path, capsys):
        pf = write_problem(tmp_path / "p.json",
                           system={"alpha": 0.5, "A": [[1.0, 0.0], [0.0, 1.0]],
                                   "B": [[0.0], [0.0]]})
        assert main(["gramian", pf]) == 0
        text = capsys.readouterr().out
        assert "kalman rank = 0 of 2 -> uncontrollable" in text

    def test_random_controllable_system_jointly_reported(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        A = rng.uniform(-1, 1, (2, 2)).tolist()
        B = rng.uniform(-1, 1, (2, 1)).tolist()
        pf = write_problem(tmp_path / "p.json",
                           system={"alpha": 0.7, "A": A, "B": B},
                           steering={"a": [0.0, 0.0], "b": [1.0, 1.0], "T": 1.0})
        assert main(["gramian", pf]) == 0
        text = capsys.readouterr().out
        assert "kalman rank = 2 of 2 -> controllable" in text
        assert "gramian verdict (rcond >= 1e-10) -> controllable" in text
        assert "rank/gramian equivalence: consistent" in text

    @pytest.mark.parametrize("T, steers", [(0.2, True), (0.05, False)])
    def test_verdict_is_min_energy_refusal(self, tmp_path, capsys, T, steers):
        # a 4-state chain whose Gramian rcond is 4.5e-9 at T = 0.2 and 2.6e-12
        # at T = 0.05: the verdict says controllable exactly when min-energy
        # synthesis steers rather than raising SingularGramian
        pf = write_problem(tmp_path / "p.json",
                           system={"alpha": 0.9, "A": np.diag(np.ones(3), 1).tolist(),
                                   "B": [[0.0], [0.0], [0.0], [1.0]]},
                           steering={"a": [1.0] * 4, "b": [0.0] * 4, "T": T},
                           numerics={"grid_steps": 256})
        out = tmp_path / "gram.json"
        assert main(["gramian", pf, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "kalman rank = 4 of 4 -> controllable" in text
        verdict = "controllable" if steers else "uncontrollable"
        assert f"gramian verdict (rcond >= 1e-10) -> {verdict}\n" in text
        assert ("rank/gramian equivalence: consistent" in text) is steers
        doc = json.loads(out.read_text())
        assert doc["controllable_gramian"] is steers and doc["consistent"] is steers
        assert main(["synthesize", pf, "--method", "min-energy"]) == (0 if steers else 3)
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: SingularGramian") is not steers


class TestSynthesize:
    def test_min_energy_energy_value(self, tmp_path, capsys):
        pf = write_problem(tmp_path / "p.json")
        assert main(["synthesize", pf, "--method", "min-energy"]) == 0
        text = capsys.readouterr().out
        energy = float(next(l for l in text.splitlines()
                            if l.startswith("modified energy")).split(":")[1])
        assert energy == pytest.approx(0.18, rel=1e-6)

    def test_scalar_pinv_energy_pi(self, tmp_path, capsys):
        pf = write_problem(
            tmp_path / "p.json",
            system={"alpha": 0.5, "A": [[0.0]], "B": [[1.0]]},
            steering={"a": [0.0], "b": [1.0], "T": 1.0},
        )
        assert main(["synthesize", pf, "--method", "pinv"]) == 0
        text = capsys.readouterr().out
        energy = float(next(l for l in text.splitlines()
                            if l.startswith("modified energy")).split(":")[1])
        assert energy == pytest.approx(np.pi, rel=1e-6)

    def test_zero_defect_zero_energy(self, tmp_path, capsys):
        pf = write_problem(
            tmp_path / "p.json",
            system={"alpha": 0.5, "A": [[0.0, 0.0], [0.0, 0.0]],
                    "B": [[1.0, 0.0], [0.0, 1.0]]},
            steering={"a": [0.3, -0.4], "b": [0.3, -0.4], "T": 1.0},
        )
        assert main(["synthesize", pf]) == 0
        text = capsys.readouterr().out
        energy = float(next(l for l in text.splitlines()
                            if l.startswith("modified energy")).split(":")[1])
        assert energy == 0.0

    def test_unknown_method_rejected(self, tmp_path, capsys):
        pf = write_problem(tmp_path / "p.json", method="bang-bang")
        assert main(["synthesize", pf]) == 2
        err = capsys.readouterr().err
        assert one_line_input_error(err) and "unknown method 'bang-bang'" in err

    def test_pinv_document_feeds_simulate(self, tmp_path, capsys):
        # rank B = n: the exported pinv control, read back, ends bit for bit
        # at the terminal state that verification measured
        square = {"system": {"alpha": 0.6, "A": [[-0.6, 2.5], [0.0, 0.4]],
                             "B": [[0.3, 0.0], [1.0, -0.8]]},
                  "steering": {"a": [1.0, -0.5], "b": [-0.2, 0.4], "T": 2.0}}
        pf = write_problem(tmp_path / "p.json", **square)
        ctrl = tmp_path / "ctrl.json"
        assert main(["synthesize", pf, "--method", "pinv", "--out", str(ctrl)]) == 0
        doc = json.loads(ctrl.read_text())
        assert doc["control"]["type"] == "pinv"
        pf2 = write_problem(tmp_path / "p2.json", **square,
                            control={"type": "synthesized", "path": str(ctrl)})
        capsys.readouterr()
        assert main(["simulate", pf2]) == 0
        x = [float(v) for v in capsys.readouterr().out.splitlines()[0].split(":")[1].split()]
        miss = max(abs(xi - bi) for xi, bi in zip(x, [-0.2, 0.4]))
        assert miss == doc["report"]["terminal_error_abs"]

    @pytest.mark.parametrize("T", [1e300, 1e-300])
    def test_rank_extreme_horizon_numeric_exit(self, tmp_path, capsys, T):
        # the shaping density's normalization ended in an OverflowError (T =
        # 1e300) or a ZeroDivisionError (T = 1e-300) traceback
        pf = write_problem(tmp_path / "p.json", steering={**STEERING, "T": T})
        assert main(["synthesize", pf, "--method", "rank"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: NonConvergence: shaping density")

    def test_singular_gramian_numeric_exit(self, tmp_path):
        pf = write_problem(
            tmp_path / "p.json",
            system={"alpha": 0.5, "A": [[1.0, 0.0], [0.0, 1.0]], "B": [[0.0], [0.0]]},
        )
        assert main(["synthesize", pf, "--method", "min-energy"]) == 3

    def test_roundtrip_and_determinism(self, tmp_path, capsys):
        pf = write_problem(tmp_path / "p.json", numerics={"grid_steps": 256})
        ctrl = tmp_path / "ctrl.json"
        assert main(["synthesize", pf, "--method", "min-energy",
                     "--out", str(ctrl), "--csv", str(tmp_path / "ctrl.csv")]) == 0
        capsys.readouterr()
        doc = json.loads(ctrl.read_text())
        reported = doc["report"]["terminal_error_abs"]

        # identical rerun produces byte-identical artifacts
        ctrl2 = tmp_path / "ctrl2.json"
        assert main(["synthesize", pf, "--method", "min-energy",
                     "--out", str(ctrl2), "--csv", str(tmp_path / "ctrl2.csv")]) == 0
        capsys.readouterr()
        assert ctrl.read_bytes() == ctrl2.read_bytes()
        assert (tmp_path / "ctrl.csv").read_bytes() == (tmp_path / "ctrl2.csv").read_bytes()

        # re-ingest the exported control and reproduce the reported miss
        pf2 = write_problem(tmp_path / "p2.json", numerics={"grid_steps": 256},
                            control={"type": "synthesized", "path": str(ctrl)})
        assert main(["simulate", pf2]) == 0
        vals = [float(v) for v in
                capsys.readouterr().out.splitlines()[0].split(":")[1].split()]
        terminal_err = max(abs(v) for v in vals)  # b = 0
        assert abs(terminal_err - reported) <= 1e-10

    def test_simulate_samples_the_control_once(self, tmp_path, capsys, monkeypatch):
        # the residual reads the samples simulate recorded, and equals
        # caputo_residual of a fresh simulate
        pf = write_problem(tmp_path / "p.json", numerics={"grid_steps": 256})
        ctrl = tmp_path / "ctrl.json"
        assert main(["synthesize", pf, "--out", str(ctrl)]) == 0
        pf2 = write_problem(tmp_path / "p2.json", numerics={"grid_steps": 256},
                            control={"type": "synthesized", "path": str(ctrl)})
        capsys.readouterr()
        calls = []
        sample = MinEnergyControl.sample
        monkeypatch.setattr(MinEnergyControl, "sample",
                            lambda self, t: calls.append(len(t)) or sample(self, t))
        assert main(["simulate", pf2]) == 0
        assert calls == [257]
        monkeypatch.undo()
        u = cli._control_from_dict(json.loads(ctrl.read_text()))
        sys = FracSystem(CHAIN["A"], CHAIN["B"], alpha=CHAIN["alpha"])
        traj = simulate(sys, np.array(STEERING["a"]), u, TimeGrid(0.0, STEERING["T"], 256))
        want = f"caputo residual (interior): {caputo_residual(sys, traj):.15g}"
        assert capsys.readouterr().out.splitlines()[1] == want

    def test_control_csv_reingestion(self, tmp_path, capsys):
        # a sampled control exported as CSV feeds back through simulate
        pf = write_problem(tmp_path / "p.json", numerics={"grid_steps": 256})
        csvp = tmp_path / "ctrl.csv"
        assert main(["synthesize", pf, "--method", "min-energy",
                     "--out", str(tmp_path / "c.json"), "--csv", str(csvp)]) == 0
        capsys.readouterr()
        pf2 = write_problem(tmp_path / "p2.json", numerics={"grid_steps": 256},
                            control={"type": "csv", "path": str(csvp)})
        assert main(["simulate", pf2]) == 0
        vals = [float(v) for v in
                capsys.readouterr().out.splitlines()[0].split(":")[1].split()]
        assert max(abs(v) for v in vals) <= 5e-3  # coarse samples still steer


class TestReproduce:
    def test_example_1(self, capsys):
        assert main(["reproduce", "--example", "1"]) == 0
        assert "ALL PASS" in capsys.readouterr().out

    def test_example_3(self, capsys):
        assert main(["reproduce", "--example", "3"]) == 0
        assert "ALL PASS" in capsys.readouterr().out

    def test_example_2_printed(self, capsys):
        # the energies themselves are pinned by test_example_2_energies
        assert main(["reproduce", "--example", "2"]) == 0
        m = _example2_energy()
        assert capsys.readouterr().out.splitlines() == [
            "worked example 2: rotation system, alpha = 1/2, T = 10, steer (0,1) -> 0",
            f"  minimal energy (exact kernels): {m:.15g}",
            "  published reference value:      0.0911",
            f"  [FAIL] |m - 0.0911| = {abs(m - 0.0911):.4f} (tol 5e-3)",
            "  note: the reference is a four-digit figure from the original",
            "  truncation-sequence table, which is not reproducible from the",
            "  published formulas; see README for the discrepancy analysis.",
            "  cosine-truncation trend (reported without pass/fail; the printed",
            "  truncation formula carries a suspected exponent typo):",
            *(f"    L={L:2d}: m_L = {_example2_energy(L):.15g}" for L in (1, 11, 12)),
        ]

    @pytest.mark.parametrize("L, want", [
        (None, 0.143264167448282), (1, 0.14485070406006),
        (11, 0.143264185797809), (12, 0.143264180706487),
    ])
    def test_example_2_energies(self, L, want):
        # 50-digit values printed by `python tests/oracles.py`
        assert _example2_energy(L) == pytest.approx(want, rel=1e-10)


# Replacement values for one field of docs/example1.json: a fixed, bounded
# pool with no large integer, so that no mutation can ask for a huge grid.
DELETE, UNKNOWN = "<delete the key>", "<add an unknown key beside it>"
FUZZ_VALUES = [None, True, False, -1, 0, 1, 2, 2.5, 1e308, -1e308, float("nan"),
               float("inf"), float("-inf"), "x", [], {}, [1], [[1]], [[[1]]], DELETE, UNKNOWN]
FUZZ_FIELDS = (
    [(block,) for block in ("system", "steering", "numerics", "control", "method")]
    + [("system", key) for key in ("alpha", "A", "B", "C")]
    + [("steering", key) for key in ("a", "b", "T")]
    # series_rel_tol, series_max_terms, quad_rel_tol, quad_levels and quad_order
    # are retired: they probe the unknown-key refusal
    + [("numerics", key) for key in ("grid_steps", "series_rel_tol", "series_max_terms",
                                     "quad_rel_tol", "quad_levels", "quad_order")]
    + [("control", key) for key in ("type", "value", "path")]
)
EXAMPLE1 = json.loads((Path(__file__).parents[1] / "docs" / "example1.json").read_text())


def mutate(doc, field, value):
    *parents, key = field
    block = doc
    for name in parents:
        block = block.get(name) if isinstance(block, dict) else None
    if not isinstance(block, dict):
        return
    if value == DELETE:
        block.pop(key, None)
    elif value == UNKNOWN:
        block["unknown"] = 1
    else:
        block[key] = copy.deepcopy(value)


class TestFuzz:
    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(FUZZ_FIELDS), st.sampled_from(FUZZ_VALUES)),
                    min_size=1, max_size=2))
    def test_mutated_example_exits_cleanly(self, tmp_path_factory, mutations):
        doc = copy.deepcopy(EXAMPLE1)
        doc["numerics"]["grid_steps"] = 64
        for field, value in mutations:
            mutate(doc, field, value)
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(doc))
        for cmd in (["simulate"], ["gramian"], ["synthesize"],
                    ["synthesize", "--method", "pinv"], ["synthesize", "--method", "rank"]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = main([*cmd, str(path)])
            err = err.getvalue()
            assert rc in (0, 2, 3) and "Traceback" not in err, (cmd, rc, err)
            assert rc != 2 or err.startswith("input error:"), (cmd, err)
