"""The command-line interface: output lines, exit codes, file side effects."""
import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import weakref

import pytest

from termsieve import cli, oracle
from termsieve.analysis import AnalysisConfig, AnalysisReport, hsieve
from termsieve.cli import cli_dispatch
from termsieve.dot import export_def_dot, export_dot
from termsieve.policyio import (
    atomic_write, load_policy, parse_policy, serialize_policy,
)

from helpers import (
    FIXTURES, TEST_FIXTURES, chord_ring_policy, circulant_policy, draw_forest,
    policy_graph, recursion_room, ring_policy,
)

EXAMPLE1 = str(FIXTURES / "example1.fmp.json")
F2 = str(FIXTURES / "f2.fmp.json")
F3 = str(FIXTURES / "f3.fmp.json")
F8P = str(FIXTURES / "f8prime.fmp.json")


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_doc(tmp_path, name, **overrides):
    base = {
        "format_version": 1,
        "variables": [{"name": "x", "lower_bound": 0}],
        "qstates": ["q0"],
        "initial": "q0",
        "edges": [{"id": "e1", "from": "q0", "to": "q0", "effects": {"x": 1}}],
    }
    base.update(overrides)
    p = tmp_path / name
    p.write_text(json.dumps(base))
    return str(p)


class TestCheck:
    def test_valid(self, capsys):
        code, out, _ = run(capsys, "check", EXAMPLE1)
        assert code == 0
        assert out == "valid=true\n"

    def test_invalid_lists_violations(self, capsys, tmp_path):
        p = write_doc(tmp_path, "bad.json", initial="ghost")
        code, out, _ = run(capsys, "check", p)
        assert code == 0
        assert "violation code=unknown-initial where=ghost" in out
        assert out.endswith("valid=false\n")

    def test_every_section_reports(self, capsys):
        # one violation or more in each of validate's six sections, in order
        p = str(TEST_FIXTURES / "violations.fmp.json")
        code, out, _ = run(capsys, "check", p)
        assert code == 0
        assert out.splitlines() == [
            "violation code=duplicate-variable where=x",
            "violation code=duplicate-qstate where=q0",
            "violation code=unknown-initial where=start",
            "violation code=guard-empty-interval where=edge e1 guard x",
            "violation code=duplicate-edge-id where=e1",
            "violation code=unknown-qstate where=edge e2 dst=ghost",
            "violation code=undeclared-variable where=edge e2 guard z",
            "violation code=undeclared-variable where=edge e2 action[0] w",
            "violation code=unknown-terminal where=halt",
            "violation code=terminal-has-outgoing where=q1 via e1",
            "violation code=goal-unknown-variable where=v",
            "violation code=goal-empty-interval where=x",
            "valid=false",
        ]

    def test_strict_flips_exit(self, capsys, tmp_path):
        p = write_doc(tmp_path, "bad.json", initial="ghost")
        code, _, _ = run(capsys, "check", p, "--strict")
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/policy.json")
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{oops")
        code, _, err = run(capsys, "check", str(p))
        assert code == 2
        assert "bad-json" in err

    @pytest.mark.parametrize("argv", [
        ("check",), ("check", "--strict"), ("analyze",), ("sieve",),
        ("simulate", "--init", "x=0"), ("oracle", "--grid-max", "0"),
        ("export-dot",),
    ])
    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
        b"[" + b"9" * 5000 + b"]",
    ], ids=["undecodable", "deeply-nested", "oversized-integer"])
    def test_unreadable_document(self, capsys, tmp_path, argv, content):
        p = tmp_path / "doc.json"
        p.write_bytes(content)
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")


class TestAnalyze:
    def test_terminating_line(self, capsys):
        code, out, _ = run(capsys, "analyze", EXAMPLE1)
        assert code == 0
        assert re.fullmatch(
            r"verdict=terminating iterations=1 detail=no-empty-dv "
            r"samples=1 wall_ms=\d+(\.\d+)?\n",
            out,
        )

    def test_unknown_strict(self, capsys):
        code, out, _ = run(capsys, "analyze", F3, "--strict")
        assert code == 1
        assert out.startswith("verdict=unknown iterations=1 "
                              "detail=empty-set-persists")

    def test_unknown_without_strict(self, capsys):
        code, _, _ = run(capsys, "analyze", F3)
        assert code == 0

    def test_trace_built_only_under_trace(self, capsys, monkeypatch):
        def mask(result):
            code, out, err = result
            return code, re.sub(r"wall_ms=\S+", "wall_ms=*", out), err

        want = mask(run(capsys, "analyze", F2))

        def refuse(report):
            raise AssertionError("trace built without --trace")

        monkeypatch.setattr(AnalysisReport, "to_trace_dict", refuse)
        assert mask(run(capsys, "analyze", F2)) == want
        assert want[0] == 0

    def test_trace_file_matches_golden(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code, _, _ = run(capsys, "analyze", F2, "--trace", str(trace))
        assert code == 0
        got = json.loads(trace.read_text())
        got.pop("wall_ms")
        want = json.loads((TEST_FIXTURES / "f2.trace.json").read_text())
        assert got == want

    def test_multi_sample_flags(self, capsys):
        dep = str(TEST_FIXTURES / "def_dependent.fmp.json")
        code, out, _ = run(capsys, "analyze", dep, "--def-samples", "5")
        assert code == 0
        assert out.startswith("verdict=terminating")
        assert "samples=4" in out  # stops after the first success

    def test_emit_dot(self, capsys, tmp_path):
        d = tmp_path / "render"
        code, _, _ = run(capsys, "analyze", F8P, "--emit-dot", str(d))
        assert code == 0
        assert sorted(os.listdir(d)) == [
            "def_000.dot", "def_001.dot", "def_002.dot", "policy.dot"
        ]
        assert (d / "policy.dot").read_text().startswith("digraph policy {")

    def test_path_cap_flag(self, capsys):
        code, out, _ = run(capsys, "analyze", F2, "--path-cap", "1")
        assert code == 0
        assert "detail=resource-cap" in out

    @pytest.mark.parametrize("argv", [
        ("analyze", "--path-cap", "0"),
        ("analyze", "--path-cap", "-3"),
        ("analyze", "--def-samples", "0"),
        ("oracle", "--grid-max", "1", "--max-configs", "0"),
        ("simulate", "--init", "x=1", "--max-steps", "0"),
        ("simulate", "--init", "x=1", "--max-steps", "-4"),
        ("oracle", "--grid-max", "1", "--max-value", "-5"),
    ])
    def test_counts_below_one_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv, EXAMPLE1)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("argv, line", [
        (("analyze", "--path-cap", "abc"),
         "error: argument --path-cap: expected an integer >= 1, got 'abc'"),
        (("oracle", "--grid-max", "x"),
         "error: argument --grid-max: expected an integer >= 0, got 'x'"),
    ])
    def test_counts_that_are_not_integers_are_usage_errors(self, capsys, argv,
                                                           line):
        code, out, err = run(capsys, *argv, EXAMPLE1)
        assert code == 2
        assert err == line + "\n"
        assert out == ""

    def test_long_ring(self, capsys, tmp_path):
        p = str(tmp_path / "ring.json")
        atomic_write(p, serialize_policy(ring_policy(1500)))
        code, out, _ = run(capsys, "analyze", p)
        assert code == 0
        assert out.startswith("verdict=terminating")

    def test_forest_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        # the circulant's trees are 134 levels deep, and the limit allows
        # 100 frames above this one: nothing may recurse once per level
        p = str(tmp_path / "circulant.json")
        atomic_write(p, serialize_policy(circulant_policy(300)))
        dots, trace = tmp_path / "dots", tmp_path / "trace.json"
        with recursion_room(100):
            plain = run(capsys, "analyze", "--path-cap", "100",
                        "--emit-dot", str(dots), p)
            traced = run(capsys, "analyze", "--path-cap", "100",
                         "--trace", str(trace), p)
        code, out, err = plain
        assert code == 0, err
        assert out.startswith("verdict=unknown iterations=1 "
                              "detail=resource-cap")
        assert (dots / "def_000.dot").read_text().count("->") > 130
        # a trace too deep for json is either written or refused cleanly
        code, out, err = traced
        if code == 0:
            assert json.loads(trace.read_text())["detail"] == "resource-cap"
        else:
            assert code == 2 and out == "" and not trace.exists()
            assert err.count("\n") == 1 and err.startswith("error:")

    def test_chorded_ring_reaches_cap(self, capsys, tmp_path):
        p = str(tmp_path / "chords.json")
        atomic_write(p, serialize_policy(chord_ring_policy(80)))
        code, out, _ = run(capsys, "analyze", "--path-cap", "1000", p)
        assert code == 0
        rep = hsieve(load_policy(p), AnalysisConfig(path_cap=1000))
        assert str(rep.verdict) == "unknown(resource-cap)"
        assert out.startswith(
            f"verdict=unknown iterations={len(rep.iterations)} "
            "detail=resource-cap samples=1 wall_ms=")

    def test_action_sets_normalized_on_load(self, capsys, tmp_path):
        p = write_doc(tmp_path, "multi.json", edges=[
            {"id": "e1", "from": "q0", "to": "q0",
             "effects": [{"x": -1}, {"x": -2}]},
        ])
        code, out, _ = run(capsys, "analyze", p)
        assert code == 0
        assert out.startswith("verdict=terminating")

    def test_invalid_policy_rejected(self, capsys, tmp_path):
        p = write_doc(tmp_path, "bad.json", initial="ghost")
        code, _, err = run(capsys, "analyze", p)
        assert code == 2
        assert "violation code=unknown-initial" in err


class TestSieve:
    def test_separation_case(self, capsys):
        code, out, _ = run(capsys, "sieve", EXAMPLE1)
        assert code == 0
        assert out == ("verdict=nonterminating_qualitative "
                       "detail=no-progress-variable\n")
        code, _, _ = run(capsys, "sieve", EXAMPLE1, "--strict")
        assert code == 1

    def test_terminating(self, capsys):
        code, out, _ = run(capsys, "sieve", F2, "--strict")
        assert code == 0
        assert out == "verdict=terminating detail=progress\n"


class TestSimulate:
    def test_line_format_and_determinism(self, capsys):
        code, out1, _ = run(capsys, "simulate", F2, "--init", "x=3,y=2",
                            "--seed", "1")
        assert code == 0
        code, out2, _ = run(capsys, "simulate", F2, "--init", "x=3,y=2",
                            "--seed", "1")
        assert out1 == out2
        lines = out1.strip().split("\n")
        for i, line in enumerate(lines[:-1], start=1):
            assert re.fullmatch(
                rf"step={i} edge=e\d qstate=q0 x=\d+ y=\d+", line)
        assert re.fullmatch(
            r"halted=true steps=\d+ qstate=q0 x=\d+ y=\d+", lines[-1])

    def test_blocked_start(self, capsys, tmp_path):
        p = write_doc(tmp_path, "dec.json", edges=[
            {"id": "e1", "from": "q0", "to": "q0", "effects": {"x": -1}},
        ])
        code, out, _ = run(capsys, "simulate", p, "--init", "x=0")
        assert code == 0
        assert out == "halted=true steps=0 qstate=q0 x=0\n"

    def test_step_budget(self, capsys, tmp_path):
        p = write_doc(tmp_path, "up.json")
        code, out, _ = run(capsys, "simulate", p, "--init", "x=0",
                           "--max-steps", "3")
        assert code == 0
        assert out.strip().split("\n")[-1].startswith("halted=false steps=3")

    def test_init_defaults_to_lower_bounds(self, capsys, tmp_path):
        p = write_doc(tmp_path, "dec.json", edges=[
            {"id": "e1", "from": "q0", "to": "q0", "effects": {"x": -1}},
        ])
        code, out, _ = run(capsys, "simulate", p, "--init", "")
        assert code == 0
        assert "x=0" in out

    def test_bad_inits(self, capsys):
        for init in ("zz=1", "x=wat", "x:3", "x=-5", "x=5,x=0", "x=1,y=2,x=1"):
            code, out, err = run(capsys, "simulate", F2, "--init", init)
            assert code == 2, init
            assert err.startswith("error:")
            assert out == ""

    def test_value_past_digit_limit(self, capsys, tmp_path):
        # each step adds a 4299-digit number; a few steps pass the
        # 4300-digit limit of int-to-str conversion
        p = write_doc(tmp_path, "huge.json", edges=[
            {"id": "e1", "from": "q0", "to": "q0",
             "effects": {"x": 10**4299 - 1}},
        ])
        code, out, err = run(capsys, "simulate", p, "--init", "x=0",
                             "--max-steps", "20")
        assert code == 2
        assert out.startswith("step=1 edge=e1 qstate=q0 x=9")
        assert "halted=" not in out
        assert err.count("\n") == 1 and err.startswith("error:")


class TestOracle:
    def test_all_halt(self, capsys):
        code, out, _ = run(capsys, "oracle", EXAMPLE1, "--grid-max", "2")
        assert code == 0
        assert out == "oracle=all_halt starts=3 all_halt=3 lasso=0 inconclusive=0\n"

    def test_lasso_witness_lines(self, capsys):
        code, out, _ = run(capsys, "oracle", F3, "--grid-max", "1")
        assert code == 0
        assert out.splitlines() == [
            "oracle=lasso_found starts=2 all_halt=0 lasso=2 inconclusive=0",
            "witness start qstate=q0 x=0",
            "witness step edge=e2 qstate=q1 x=1",
            "witness step edge=e3 qstate=q0 x=0",
            "witness cycle_start=0",
        ]

    def test_every_lasso_start_counted(self, capsys):
        code, out, _ = run(capsys, "oracle", F3, "--grid-max", "2")
        assert code == 0
        assert out.splitlines()[0] == (
            "oracle=lasso_found starts=3 all_halt=0 lasso=3 inconclusive=0")

    def test_keeps_one_witness(self, capsys, monkeypatch, tmp_path):
        # every start of `spin` closes a lasso; while a start runs, at most
        # one witness of an earlier start (the first, to be printed) lives
        p = write_doc(tmp_path, "spin.json", edges=[
            {"id": "e1", "from": "q0", "to": "q0", "effects": {}}])
        alive = []
        peak = 0

        def explore(*args, **kwargs):
            nonlocal peak
            peak = max(peak, sum(ref() is not None for ref in alive))
            res = real(*args, **kwargs)
            if res.witness is not None:
                alive.append(weakref.ref(res.witness))
            return res

        real = oracle.explore
        monkeypatch.setattr(oracle, "explore", explore)
        monkeypatch.setattr(cli, "explore", explore)
        code, out, _ = run(capsys, "oracle", p, "--grid-max", "5")
        assert code == 0
        assert out.splitlines()[0] == (
            "oracle=lasso_found starts=6 all_halt=0 lasso=6 inconclusive=0")
        assert len(alive) == 6
        assert peak == 1

    def test_only_the_printed_witness_is_decoded(self, capsys, monkeypatch,
                                                  tmp_path):
        # every start climbs x to the value cap, then q0 -> q1 -> q0 closes
        # a lasso 5002 steps long; only the first start's witness is printed
        p = write_doc(
            tmp_path, "climb.json",
            variables=[{"name": v, "lower_bound": 0} for v in "xyz"],
            qstates=["q0", "q1"],
            edges=[
                {"id": "up", "from": "q0", "to": "q0", "effects": {"x": 1}},
                {"id": "go", "from": "q0", "to": "q1", "effects": {}},
                {"id": "back", "from": "q1", "to": "q0", "effects": {}},
            ])
        decoded = 0
        real = oracle.Packing.config

        def config(self, key):
            nonlocal decoded
            decoded += 1
            return real(self, key)

        monkeypatch.setattr(oracle.Packing, "config", config)
        code, out, _ = run(capsys, "oracle", p, "--grid-max", "3",
                           "--max-value", "5000")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5005
        assert lines[0] == (
            "oracle=lasso_found starts=64 all_halt=0 lasso=64 inconclusive=0")
        assert lines[-1] == "witness cycle_start=5000"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7df8139c3b4c1075d89156ce704b534582f22d8b49ca1da04361cb9474f81e71")
        steps = sum(line.startswith("witness step ") for line in lines)
        assert decoded == steps + 1 == 5003

    def test_lasso_at_a_later_start(self, capsys, tmp_path):
        # x=0 halts in the goal, x=1 spins on e2, x=2 halts outside the
        # goal and x=3 drains to 0: every start is explored and counted
        p = write_doc(
            tmp_path, "later.json",
            edges=[
                {"id": "e1", "from": "q0", "to": "q0",
                 "guard": [{"var": "x", "min": 3}], "effects": {"x": -3}},
                {"id": "e2", "from": "q0", "to": "q0",
                 "guard": [{"var": "x", "min": 1, "max": 1}], "effects": {}},
            ],
            goal={"x": [0, 0]},
        )
        code, out, _ = run(capsys, "oracle", p, "--grid-max", "3", "--strict")
        assert code == 0
        assert out.splitlines() == [
            "oracle=lasso_found starts=4 all_halt=3 lasso=1 inconclusive=0 "
            "goal_fraction=0.6667",
            "witness start qstate=q0 x=1",
            "witness step edge=e2 qstate=q0 x=1",
            "witness cycle_start=0",
        ]

    def test_goal_fraction(self, capsys, tmp_path):
        p = write_doc(
            tmp_path, "goal.json",
            edges=[
                {"id": "m2", "from": "q0", "to": "q0", "effects": {"x": -2}},
                {"id": "m3", "from": "q0", "to": "q0", "effects": {"x": -3}},
            ],
            goal={"x": [0, 0]},
        )
        code, out, _ = run(capsys, "oracle", p, "--grid-max", "1")
        assert code == 0
        assert "goal_fraction=0.5000" in out

    def test_inconclusive_strict(self, capsys, tmp_path):
        p = write_doc(tmp_path, "up.json")
        code, out, _ = run(capsys, "oracle", p, "--grid-max", "0", "--strict")
        assert code == 1
        assert out.startswith("oracle=inconclusive")

    def test_negative_grid(self, capsys):
        code, _, err = run(capsys, "oracle", F2, "--grid-max", "-1")
        assert code == 2
        assert "grid-max" in err

    def test_zero_max_value_is_valid(self, capsys):
        code, out, _ = run(capsys, "oracle", EXAMPLE1, "--grid-max", "1",
                           "--max-value", "0")
        assert code == 0
        assert out.startswith("oracle=all_halt starts=2")

    def test_witness_value_past_digit_limit(self, capsys, tmp_path):
        # `up` climbs to the value cap, 64 times the 4299-digit delta; then
        # a -> b -> a closes a lasso whose witness holds the top value
        p = write_doc(tmp_path, "huge.json", qstates=["a", "b"], initial="a",
                      edges=[
                          {"id": "up", "from": "a", "to": "a",
                           "effects": {"x": 10**4299 - 1}},
                          {"id": "go", "from": "a", "to": "b", "effects": {}},
                          {"id": "back", "from": "b", "to": "a",
                           "effects": {}},
                      ])
        code, out, err = run(capsys, "oracle", p, "--grid-max", "0")
        assert code == 2
        assert out.startswith("oracle=lasso_found starts=1")
        assert "witness cycle_start" not in out
        assert err.count("\n") == 1 and err.startswith("error:")


class TestGenerate:
    ARGS = ("generate", "--qstates", "4", "--vars", "2", "--density", "0.4",
            "--max-delta", "2", "--seed", "11")

    def test_stdout_document(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        fmp = parse_policy(out)
        assert len(fmp.qstates) == 4

    def test_out_file(self, capsys, tmp_path):
        p = tmp_path / "gen.json"
        code, out, _ = run(capsys, *self.ARGS, "--out", str(p))
        assert code == 0
        assert out == ""
        assert load_policy(p).qstates == ("q0", "q1", "q2", "q3")

    def test_matches_stdout(self, capsys, tmp_path):
        _, out, _ = run(capsys, *self.ARGS)
        p = tmp_path / "gen.json"
        run(capsys, *self.ARGS, "--out", str(p))
        assert p.read_text() == out

    def test_infeasible(self, capsys):
        code, _, err = run(capsys, "generate", "--qstates", "6", "--vars", "1",
                           "--density", "0.1", "--max-delta", "1",
                           "--seed", "0")
        assert code == 2
        assert "infeasible" in err

    def test_missing_flag(self, capsys):
        code, _, err = run(capsys, "generate", "--qstates", "4")
        assert code == 2


class TestExportDot:
    def test_policy(self, capsys):
        code, out, _ = run(capsys, "export-dot", EXAMPLE1)
        assert code == 0
        assert out == export_dot(load_policy(EXAMPLE1))

    def test_forest(self, capsys):
        code, out, _ = run(capsys, "export-dot", F3, "--def", "--seed", "0")
        assert code == 0
        f = load_policy(F3)
        assert out == export_def_dot(draw_forest(policy_graph(f), 0))

    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    def test_forest_is_the_first_one_analyze_draws(self, capsys, tmp_path,
                                                  seed):
        d = tmp_path / "render"
        code, _, _ = run(capsys, "analyze", EXAMPLE1, "--seed", seed,
                         "--emit-dot", str(d))
        assert code == 0
        code, out, _ = run(capsys, "export-dot", EXAMPLE1, "--def",
                           "--seed", seed)
        assert code == 0
        assert out == (d / "def_000.dot").read_text()


class TestDispatch:
    def test_no_args(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_python_m(self, tmp_path):
        r = subprocess.run(
            [sys.executable, "-m", "termsieve", "check", EXAMPLE1],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")})
        assert r.returncode == 0, r.stderr
        assert r.stdout == "valid=true\n"

    @pytest.mark.skipif(importlib.util.find_spec("tomllib") is None,
                        reason="the build needs tomli before Python 3.11, "
                               "which an offline install cannot fetch")
    def test_console_script_installed(self, tmp_path):
        """Install the checkout offline into a fresh target and run its script."""
        pytest.importorskip("pip")
        site = tmp_path / "site"
        pip = subprocess.run(
            [sys.executable, "-m", "pip", "install", "--no-index", "--no-deps",
             "--target", str(site), str(FIXTURES.parent)],
            capture_output=True, text=True)
        assert pip.returncode == 0, pip.stdout + pip.stderr
        exe = shutil.which("termsieve", path=str(site / "bin"))
        assert exe, "console script not installed"
        r = subprocess.run([exe, "check", EXAMPLE1], capture_output=True,
                           text=True, cwd=tmp_path,
                           env={**os.environ, "PYTHONPATH": str(site)})
        assert r.returncode == 0
        assert r.stdout == "valid=true\n"
