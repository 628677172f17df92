"""Tests for the command-line interface."""

import pytest

from repro.cli import PROBLEM_CHOICES, build_problem, main
from repro.machine.executor import EXECUTOR_KINDS


class TestInfo:
    def test_lists_problems_and_codes(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in PROBLEM_CHOICES:
            assert name in out
        assert "Voyager" in out and "MARS" in out


class TestSolve:
    @pytest.mark.parametrize("problem", PROBLEM_CHOICES)
    def test_solve_each_problem(self, problem, capsys):
        rc = main(
            [
                "solve",
                "--problem",
                problem,
                "--size",
                "120",
                "--width",
                "12",
                "--procs",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "parallel == seq  : True" in out

    @pytest.mark.parametrize("problem", ["lcs", "sw", "viterbi"])
    def test_omitted_procs_uses_the_chooser(self, problem, capsys):
        # The serial executor counts as one worker: P = 1 always wins.
        args = ["solve", "--problem", problem, "--size", "120", "--width", "12"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "parallel == seq  : True" in out
        assert "processors       : 1" in out
        assert "P choice         : P=1 (predicted sequential" in out

    def test_omitted_procs_on_the_pool_prints_a_bounded_choice(self, capsys):
        args = [
            "solve", "--problem", "viterbi", "--size", "300",
            "--executor", "pool", "--workers", "2",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "parallel == seq  : True" in out
        line = next(ln for ln in out.splitlines() if ln.startswith("P choice"))
        chosen = int(line.split("P=")[1].split()[0])
        assert 1 <= chosen <= 2  # two workers cap the useful P
        assert f"processors       : {chosen}" in out

    def test_explicit_procs_is_honoured(self, capsys):
        args = ["solve", "--problem", "lcs", "--size", "60", "--width", "8",
                "--procs", "5"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "processors       : 5" in out
        assert "P choice" not in out

    def test_reports_metrics(self, capsys):
        main(["solve", "--problem", "lcs", "--size", "200", "--procs", "4"])
        out = capsys.readouterr().out
        assert "fix-up iterations" in out
        assert "critical work" in out
        assert "measured wall" in out
        assert "recovery" in out
        assert "0 worker respawns" in out

    def test_solve_reports_recovery_after_injected_fault(self, capsys, monkeypatch):
        """A worker killed mid-solve (env-driven fault plan) is healed
        transparently: the solve still matches the sequential answer and
        the report counts the respawn."""
        monkeypatch.setenv("REPRO_POOL_FAULTS", "2:0")  # kill during forward
        rc = main(
            [
                "solve",
                "--problem",
                "lcs",
                "--size",
                "100",
                "--width",
                "10",
                "--procs",
                "3",
                "--executor",
                "pool",
                "--workers",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "parallel == seq  : True" in out
        assert "1 worker respawns" in out

    def test_trace_flag_writes_jsonl_and_prints_summary(self, capsys, tmp_path):
        import json

        path = tmp_path / "solve.jsonl"
        rc = main(
            [
                "solve",
                "--problem",
                "lcs",
                "--size",
                "100",
                "--width",
                "10",
                "--procs",
                "3",
                "--executor",
                "pool",
                "--workers",
                "2",
                "--trace",
                str(path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert f"trace            : {path}" in out
        assert "superstep" in out  # the printed trace summary
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "header"
        names = {r.get("name") for r in records[1:]}
        assert {"superstep", "dispatch", "solve-start"} <= names

    @pytest.mark.parametrize("executor", EXECUTOR_KINDS)
    def test_executor_flag(self, executor, capsys):
        rc = main(
            [
                "solve",
                "--problem",
                "lcs",
                "--size",
                "100",
                "--width",
                "10",
                "--procs",
                "3",
                "--executor",
                executor,
                "--workers",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "parallel == seq  : True" in out
        assert f"executor         : {executor}" in out

    def test_unknown_executor_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--problem", "lcs", "--executor", "gpu"])


class TestConvergence:
    def test_reports_table(self, capsys):
        rc = main(
            [
                "convergence",
                "--problem",
                "viterbi",
                "--size",
                "150",
                "--trials",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "median" in out and "5/5" in out


class TestSweep:
    def test_prints_series(self, capsys):
        rc = main(
            [
                "sweep",
                "--problem",
                "lcs",
                "--size",
                "400",
                "--width",
                "16",
                "--procs-list",
                "1,2,4",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "speedup" in out and "efficiency" in out
        assert out.count("\n") >= 5

    def test_sweep_accepts_runtime_flags(self, capsys):
        rc = main(
            [
                "sweep",
                "--problem",
                "lcs",
                "--size",
                "200",
                "--width",
                "10",
                "--procs-list",
                "1,2",
                "--executor",
                "pool",
                "--workers",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "speedup" in out


class TestTrace:
    def test_renders_gantt(self, capsys):
        rc = main(
            [
                "trace",
                "--problem",
                "nw",
                "--size",
                "300",
                "--width",
                "16",
                "--procs",
                "4",
                "--columns",
                "60",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "makespan" in out
        assert out.count("|") >= 8


class TestFactory:
    def test_unknown_problem_rejected(self):
        import argparse

        args = argparse.Namespace(problem="nope", seed=0)
        with pytest.raises(ValueError):
            build_problem(args)

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
