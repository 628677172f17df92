"""Tests for the perf-regression harness (``benchmarks/bench_runner.py``).

The runner is a standalone script outside the package (pytest's
``testpaths`` excludes ``benchmarks/``), so it is loaded here by path.
The end-to-end test runs the real smoke sweep — it is the regression
gate for the BENCH_pool.json contract: schema-versioned document at the
repo root, comparison against the previous file, tracing checks.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

_RUNNER = pathlib.Path(__file__).parent.parent / "benchmarks" / "bench_runner.py"


@pytest.fixture(scope="module")
def runner():
    spec = importlib.util.spec_from_file_location("bench_runner", _RUNNER)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_runner", module)
    spec.loader.exec_module(module)
    return module


def valid_doc(runner):
    return {
        "schema_version": runner.BENCH_SCHEMA_VERSION,
        "kind": "repro-bench",
        "created": "2026-01-01T00:00:00Z",
        "mode": "smoke",
        "host": {"platform": "x", "python": "3", "cpu_count": 1},
        "results": [
            {
                "problem": "lcs",
                "executor": "pool",
                "procs": 2,
                "repeats": 2,
                "wall_seconds": 0.01,
                "wall_seconds_median": 0.012,
                "supersteps": 4,
                "num_barriers": 4,
                "forward_fixup_iterations": 1,
                "bytes_communicated": 1000,
                "total_work_cells": 5000.0,
                "cells_per_second": 500000.0,
            }
        ],
        "checks": {"tracing_disabled_overhead": {"passed": True}},
    }


class TestSchemaValidation:
    def test_valid_document_passes(self, runner):
        runner.validate_bench_doc(valid_doc(runner))

    def test_rejects_non_object(self, runner):
        with pytest.raises(ValueError, match="must be an object"):
            runner.validate_bench_doc([])

    def test_rejects_wrong_schema_version(self, runner):
        doc = valid_doc(runner)
        doc["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            runner.validate_bench_doc(doc)

    def test_rejects_wrong_kind(self, runner):
        doc = valid_doc(runner)
        doc["kind"] = "other"
        with pytest.raises(ValueError, match="kind"):
            runner.validate_bench_doc(doc)

    def test_rejects_missing_result_field(self, runner):
        doc = valid_doc(runner)
        del doc["results"][0]["wall_seconds"]
        with pytest.raises(ValueError, match="wall_seconds"):
            runner.validate_bench_doc(doc)

    def test_rejects_empty_results(self, runner):
        doc = valid_doc(runner)
        doc["results"] = []
        with pytest.raises(ValueError, match="non-empty"):
            runner.validate_bench_doc(doc)

    def test_rejects_check_without_passed(self, runner):
        doc = valid_doc(runner)
        doc["checks"] = {"broken": {}}
        with pytest.raises(ValueError, match="passed"):
            runner.validate_bench_doc(doc)

    def test_committed_bench_file_is_valid(self, runner):
        committed = runner.DEFAULT_OUT
        assert committed.exists(), "BENCH_pool.json must be committed at repo root"
        runner.validate_bench_doc(json.loads(committed.read_text()))


class TestComparison:
    def test_flags_regressions(self, runner):
        old = valid_doc(runner)
        new = valid_doc(runner)
        new["results"][0]["wall_seconds"] = old["results"][0]["wall_seconds"] * 10
        cmp = runner.compare_documents(old, new)
        assert cmp["comparable"]
        assert len(cmp["cells"]) == 1
        assert cmp["regressions"] == cmp["cells"]
        assert cmp["cells"][0]["ratio"] == pytest.approx(10.0)

    def test_within_threshold_is_clean(self, runner):
        old = valid_doc(runner)
        new = valid_doc(runner)
        new["results"][0]["wall_seconds"] = old["results"][0]["wall_seconds"] * 1.1
        cmp = runner.compare_documents(old, new)
        assert cmp["regressions"] == []

    def test_mode_mismatch_not_compared(self, runner):
        old = valid_doc(runner)
        new = valid_doc(runner)
        new["mode"] = "full"
        cmp = runner.compare_documents(old, new)
        assert not cmp["comparable"]
        assert cmp["cells"] == []

    def test_new_cells_are_skipped(self, runner):
        old = valid_doc(runner)
        new = valid_doc(runner)
        new["results"][0]["procs"] = 64  # no matching baseline cell
        cmp = runner.compare_documents(old, new)
        assert cmp["cells"] == []


class TestZeroDurationGuard:
    """Regression tests for the bench-math zero guard.

    Before the fix, a non-positive best-of-N floor produced
    ``cells_per_second: 0.0`` with no marker — indistinguishable from a
    measured rate of zero — and a zero-duration *baseline* row made
    ``compare_documents`` divide by its wall clock.
    """

    def test_positive_floor_is_valid(self, runner):
        cps, valid = runner.throughput_cells_per_second(5000.0, 0.01)
        assert valid
        assert cps == pytest.approx(500000.0)

    def test_zero_floor_marks_invalid(self, runner):
        assert runner.throughput_cells_per_second(5000.0, 0.0) == (0.0, False)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_degenerate_floors_mark_invalid(self, runner, bad):
        assert runner.throughput_cells_per_second(5000.0, bad) == (0.0, False)

    def test_validator_accepts_invalid_row_with_zero_wall(self, runner):
        doc = valid_doc(runner)
        doc["results"][0].update(
            wall_seconds=0.0, cells_per_second=0.0, valid=False
        )
        runner.validate_bench_doc(doc)  # must not raise

    def test_validator_rejects_zero_wall_on_valid_row(self, runner):
        doc = valid_doc(runner)
        doc["results"][0]["wall_seconds"] = 0.0
        with pytest.raises(ValueError, match="positive"):
            runner.validate_bench_doc(doc)

    def test_validator_rejects_non_bool_valid(self, runner):
        doc = valid_doc(runner)
        doc["results"][0]["valid"] = "yes"
        with pytest.raises(ValueError, match="valid"):
            runner.validate_bench_doc(doc)

    def test_comparison_skips_invalid_new_row_loudly(self, runner, capsys):
        old = valid_doc(runner)
        new = valid_doc(runner)
        new["results"][0].update(
            wall_seconds=0.0, cells_per_second=0.0, valid=False
        )
        cmp = runner.compare_documents(old, new)
        assert cmp["cells"] == []
        assert cmp["regressions"] == []
        assert len(cmp["skipped_invalid"]) == 1
        runner._print_comparison(cmp)
        assert "SKIPPED (invalid row)" in capsys.readouterr().out

    def test_comparison_skips_zero_duration_legacy_baseline(self, runner):
        # A pre-guard baseline file can carry wall_seconds == 0 with no
        # ``valid`` marker; comparison must skip it, not divide by it
        # (this raised ZeroDivisionError before the fix).
        old = valid_doc(runner)
        old["results"][0]["wall_seconds"] = 0.0
        new = valid_doc(runner)
        cmp = runner.compare_documents(old, new)
        assert cmp["cells"] == []
        assert len(cmp["skipped_invalid"]) == 1

    def test_comparison_skips_resized_instance_loudly(self, runner, capsys):
        # Growing a benchmark instance (e.g. the xl rows) must not read
        # as a wall-clock regression: rows whose total_work_cells differ
        # are excluded from the ratio check and reported.
        old = valid_doc(runner)
        new = valid_doc(runner)
        new["results"][0]["total_work_cells"] = (
            old["results"][0]["total_work_cells"] * 4
        )
        new["results"][0]["wall_seconds"] = (
            old["results"][0]["wall_seconds"] * 4
        )
        cmp = runner.compare_documents(old, new)
        assert cmp["cells"] == []
        assert cmp["regressions"] == []
        assert len(cmp["skipped_resized"]) == 1
        runner._print_comparison(cmp)
        assert "SKIPPED (instance resized)" in capsys.readouterr().out

    def test_comparison_tolerates_baseline_without_work_cells(self, runner):
        # Legacy baseline rows predate total_work_cells; they still
        # compare on wall clock alone.
        old = valid_doc(runner)
        del old["results"][0]["total_work_cells"]
        new = valid_doc(runner)
        cmp = runner.compare_documents(old, new)
        assert len(cmp["cells"]) == 1
        assert cmp["skipped_resized"] == []


class TestKernelTierCells:
    def test_kernel_tier_joins_comparison_key(self, runner):
        old = valid_doc(runner)
        tier_row = dict(old["results"][0], kernel_tier=True, wall_seconds=0.001)
        old["results"].append(tier_row)
        new = valid_doc(runner)
        new["results"].append(dict(tier_row))
        cmp = runner.compare_documents(old, new)
        assert len(cmp["cells"]) == 2
        by_tier = {c["kernel_tier"]: c for c in cmp["cells"]}
        assert by_tier[False]["old_seconds"] == old["results"][0]["wall_seconds"]
        assert by_tier[True]["old_seconds"] == pytest.approx(0.001)

    def test_validator_rejects_non_bool_kernel_tier(self, runner):
        doc = valid_doc(runner)
        doc["results"][0]["kernel_tier"] = "on"
        with pytest.raises(ValueError, match="kernel_tier"):
            runner.validate_bench_doc(doc)

    def test_classic_grid_pins_kernels_off(self, runner):
        # Baseline continuity: the classic rows must keep timing the
        # dense per-stage path even now that a kernel tier exists.
        import inspect

        sig = inspect.signature(runner._timed_solve)
        assert sig.parameters["use_kernels"].default is False


class TestBaselineLaundering:
    """Regression tests for baseline self-laundering.

    Before the fix, a run that *flagged a regression* exited 1 but
    still overwrote ``--out`` — so the very next run compared against
    the regressed floors and passed.  A failing run must leave the
    committed baseline byte-identical and write its document to the
    ``*.failed.json`` sidecar instead.
    """

    def write_baseline(self, runner, path, **row_overrides):
        doc = valid_doc(runner)
        doc["results"][0].update(row_overrides)
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        path.write_text(payload)
        return payload

    def test_regressed_run_leaves_baseline_untouched(self, runner, tmp_path, capsys):
        out = tmp_path / "BENCH_pool.json"
        baseline_bytes = self.write_baseline(runner, out, wall_seconds=0.001)
        slow = valid_doc(runner)  # 0.01s: 10x over the 0.001s baseline
        assert runner.finalize_run(slow, out) == 1
        assert out.read_text() == baseline_bytes  # byte-identical
        sidecar = runner.failed_sidecar(out)
        assert sidecar.exists()
        runner.validate_bench_doc(json.loads(sidecar.read_text()))
        captured = capsys.readouterr().out
        assert "left untouched" in captured
        assert "--update-baseline" in captured

    def test_passing_run_updates_baseline(self, runner, tmp_path):
        out = tmp_path / "BENCH_pool.json"
        self.write_baseline(runner, out, wall_seconds=0.011)
        doc = valid_doc(runner)
        assert runner.finalize_run(doc, out) == 0
        assert json.loads(out.read_text())["results"][0]["wall_seconds"] == 0.01
        assert not runner.failed_sidecar(out).exists()

    def test_failed_checks_go_to_sidecar(self, runner, tmp_path):
        out = tmp_path / "BENCH_pool.json"
        doc = valid_doc(runner)
        assert runner.finalize_run(doc, out, checks_ok=False) == 1
        assert not out.exists()
        assert runner.failed_sidecar(out).exists()

    def test_update_baseline_overrides_but_keeps_exit_code(self, runner, tmp_path):
        out = tmp_path / "BENCH_pool.json"
        self.write_baseline(runner, out, wall_seconds=0.001)
        slow = valid_doc(runner)
        assert runner.finalize_run(slow, out, update_baseline=True) == 1
        assert json.loads(out.read_text())["results"][0]["wall_seconds"] == 0.01

    def test_mode_mismatch_never_replaces_baseline_silently(self, runner, tmp_path, capsys):
        # A smoke run against a committed full-mode baseline passes (no
        # timings compared) but must not replace it.
        out = tmp_path / "BENCH_pool.json"
        doc_full = valid_doc(runner)
        doc_full["mode"] = "full"
        baseline_bytes = json.dumps(doc_full, indent=2, sort_keys=True) + "\n"
        out.write_text(baseline_bytes)
        smoke = valid_doc(runner)
        assert runner.finalize_run(smoke, out) == 0
        assert out.read_text() == baseline_bytes
        assert runner.failed_sidecar(out).exists()
        assert "mode 'smoke' != baseline mode" in capsys.readouterr().out

    def test_first_run_writes_fresh_baseline(self, runner, tmp_path):
        out = tmp_path / "BENCH_pool.json"
        assert runner.finalize_run(valid_doc(runner), out) == 0
        assert out.exists()


class TestDuplicateCells:
    """Regression tests for silent duplicate-cell collapse.

    ``compare_documents`` used to index rows into a dict keyed by the
    cell identity — two rows sharing a key silently collapsed to
    whichever came last, so a duplicated (and possibly contradictory)
    measurement never reached the report.  Duplicates on either side
    must now surface under ``duplicate_cells`` and fail the comparison.
    """

    def test_baseline_duplicates_surface_and_exclude(self, runner):
        old = valid_doc(runner)
        old["results"].append(dict(old["results"][0], wall_seconds=0.5))
        new = valid_doc(runner)
        cmp = runner.compare_documents(old, new)
        assert cmp["cells"] == []  # ambiguous cell excluded from ratios
        assert len(cmp["duplicate_cells"]) == 1
        dup = cmp["duplicate_cells"][0]
        assert dup["side"] == "baseline"
        assert dup["count"] == 2
        assert (dup["problem"], dup["executor"]) == ("lcs", "pool")

    def test_new_side_duplicates_surface(self, runner):
        old = valid_doc(runner)
        new = valid_doc(runner)
        new["results"].append(dict(new["results"][0]))
        cmp = runner.compare_documents(old, new)
        assert [d["side"] for d in cmp["duplicate_cells"]] == ["new"]

    def test_unique_cells_still_compared_alongside_duplicates(self, runner):
        old = valid_doc(runner)
        other = dict(old["results"][0], executor="serial", procs=1)
        old["results"].append(other)
        old["results"].append(dict(old["results"][0]))  # duplicate lcs/pool
        new = valid_doc(runner)
        new["results"].append(dict(other))
        cmp = runner.compare_documents(old, new)
        assert len(cmp["cells"]) == 1
        assert cmp["cells"][0]["executor"] == "serial"

    def test_print_comparison_reports_failure(self, runner, capsys):
        old = valid_doc(runner)
        new = valid_doc(runner)
        new["results"].append(dict(new["results"][0]))
        runner._print_comparison(runner.compare_documents(old, new))
        out = capsys.readouterr().out
        assert "DUPLICATE (new side)" in out
        assert "comparison FAILED" in out

    def test_find_duplicate_cells_counts(self, runner):
        rows = [valid_doc(runner)["results"][0] for _ in range(3)]
        dups = runner.find_duplicate_cells(rows)
        assert len(dups) == 1
        assert dups[0]["count"] == 3
        assert runner.find_duplicate_cells(rows[:1]) == []

    def test_validator_opt_in_rejects_duplicates(self, runner):
        doc = valid_doc(runner)
        doc["results"].append(dict(doc["results"][0]))
        runner.validate_bench_doc(doc)  # lenient by default (legacy docs)
        with pytest.raises(ValueError, match="duplicate result cell"):
            runner.validate_bench_doc(doc, check_duplicates=True)

    def test_finalize_run_fails_on_duplicate_baseline(self, runner, tmp_path, capsys):
        # A duplicated baseline is not "unusable" — it must fail the
        # comparison loudly, not be skipped.
        out = tmp_path / "BENCH_pool.json"
        old = valid_doc(runner)
        old["results"].append(dict(old["results"][0]))
        out.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
        assert runner.finalize_run(valid_doc(runner), out) == 1
        assert "duplicate cell key(s)" in capsys.readouterr().out


class TestEndToEnd:
    def test_smoke_run_emits_valid_doc_then_compares(self, runner, tmp_path, capsys):
        """The document and the bit-identity verdicts, never a wall-clock
        verdict: those checks keep their thresholds in the bench itself
        (``repro bench record`` and ``--check`` exit 1 when one fails),
        but a loaded host must not fail this test."""
        out = tmp_path / "BENCH_pool.json"
        doc, checks_ok = runner.run_suite(True, 1, None)
        runner.validate_bench_doc(doc)
        assert doc["schema_version"] == runner.BENCH_SCHEMA_VERSION
        assert doc["mode"] == "smoke"
        assert {(r["problem"], r["executor"]) for r in doc["results"]} >= {
            ("lcs", "pool"),
            ("viterbi", "serial"),
        }
        checks = doc["checks"]
        assert set(checks) == {
            "tracing_disabled_overhead",
            "trace_coverage",
            "delta_fixup_reduction",
            "kernel_tier_speedup",
            "fixup_stops_early",
        }
        for check in checks.values():
            assert isinstance(check["passed"], bool)
        assert checks_ok == all(c["passed"] for c in checks.values())
        # Verdicts that do not depend on the clock.
        assert checks["trace_coverage"]["passed"]
        assert checks["delta_fixup_reduction"]["passed"]
        assert checks["kernel_tier_speedup"]["bit_identical"]
        assert all(r["bit_identical"] for r in checks["kernel_tier_speedup"]["rows"])
        assert checks["tracing_disabled_overhead"]["spans_recorded"] == 0

        # Emitted as the baseline whatever the timing verdicts said.
        runner.finalize_run(doc, out, checks_ok=checks_ok, update_baseline=True)
        on_disk = json.loads(out.read_text())
        runner.validate_bench_doc(on_disk)
        assert on_disk["results"] == json.loads(json.dumps(doc["results"]))
        assert "comparison" not in on_disk  # first run: nothing to compare

        # Second run compares cell-by-cell against the first.  (Whether
        # any cell is *flagged* depends on real timing noise — the
        # runner's own exit code carries that verdict; here we pin the
        # comparison mechanics.)
        doc2, _ = runner.run_bench(True, 1, out, trace_path=None)
        cmp = doc2["comparison"]
        assert cmp["comparable"]
        assert len(cmp["cells"]) == len(doc["results"])
        for cell in cmp["cells"]:
            assert cell["regressed"] == (
                cell["ratio"] > runner.REGRESSION_RATIO
            )
        assert "comparison vs previous file" in capsys.readouterr().out

    def test_trace_artifact_written(self, runner, tmp_path):
        trace = tmp_path / "trace.jsonl"
        check = runner._check_trace_coverage(True, str(trace))
        assert check["passed"]
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert any(
            r["type"] == "span" and r["name"] == "dispatch" for r in lines[1:]
        )
