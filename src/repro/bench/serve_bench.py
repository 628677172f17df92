"""Serving-layer smoke benchmark: throughput + cache economics of `repro serve`.

The serve-suite matrix runner behind ``benchmarks/bench_serve.py`` (a
thin path-bootstrap shim) and ``repro bench record --suite serve``.  It
pushes seeded mixed request streams (fresh + near-duplicate, LCS and NW
families) through one :class:`~repro.serve.service.LTDPService` with
its own worker pool, and emits a schema-versioned ``BENCH_serve.json``::

    PYTHONPATH=src python benchmarks/bench_serve.py --smoke
    PYTHONPATH=src python benchmarks/bench_serve.py                # full grid
    PYTHONPATH=src python benchmarks/bench_serve.py --check BENCH_serve.json

Each grid row records request throughput (submission to last response,
verification excluded), cache hit rate, repair cells (``delta_cells``)
and per-request latency.  The ``checks`` section gates on the serving
contract rather than on speed:

- ``bit_identity`` — every ``ok`` answer equals a fresh sequential
  solve (path and score), hit or miss;
- ``cache_delta_path`` — near-duplicates are answered by in-process
  suffix repair of the class's resident answer (hits observed,
  ``delta_cells > 0``);
- ``admission_control`` — an over-capacity burst is rejected
  synchronously with a backpressure reason, never dropped silently;
- ``clean_teardown`` — the drain leaves a closed executor, an empty
  queue and zero live worker processes.

Like the pool suite, a run with failed checks writes its document to a
``*.failed.json`` sidecar instead of replacing ``--out`` (override with
``--update-baseline``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

from repro.bench.matrix import (
    BenchDocumentError,
    load_json_document,
    make_document,
    need,
)
from repro.ltdp.sequential import solve_sequential
from repro.serve import (
    STATUS_OK,
    STATUS_REJECTED,
    LTDPService,
    build_request_stream,
)

__all__ = [
    "DEFAULT_OUT",
    "SERVE_SCHEMA_VERSION",
    "main",
    "run_bench",
    "run_suite",
    "validate_serve_doc",
]

#: Bump on any incompatible change to the emitted JSON document.
SERVE_SCHEMA_VERSION = 1

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]

DEFAULT_OUT = _REPO_ROOT / "BENCH_serve.json"

SEED = 2014  # PPoPP year; fixed so request streams are bit-reproducible.


def _grid(smoke: bool):
    """(row_name, num_requests, problem_size, num_procs, max_workers)."""
    if smoke:
        return [("mixed-small", 60, 32, 2, 2)]
    return [
        ("mixed-small", 120, 32, 2, 2),
        ("mixed-medium", 120, 64, 3, 3),
    ]


def _run_row(name, num_requests, size, num_procs, max_workers) -> dict:
    problems = build_request_stream(num_requests, SEED, size=size)
    service = LTDPService(
        max_workers=max_workers,
        num_procs=num_procs,
        max_queue=num_requests,
        seed=SEED,
    )
    with service:
        t0 = time.perf_counter()
        tickets = [service.submit(p) for p in problems]
        responses = [t.result(timeout=600.0) for t in tickets]
        serve_seconds = time.perf_counter() - t0
        pids = list(service.executor.worker_pids())
    stats = service.stats()

    verified = mismatches = 0
    for problem, response in zip(problems, responses):
        if response.status != STATUS_OK:
            continue
        expected = solve_sequential(problem)
        if (
            response.solution is not None
            and np.array_equal(response.solution.path, expected.path)
            and response.solution.score == expected.score
        ):
            verified += 1
        else:
            mismatches += 1

    total = stats["total"]
    leaked = sum(1 for pid in pids if _pid_alive(pid))
    return {
        "row": name,
        "num_requests": num_requests,
        "problem_size": size,
        "num_procs": num_procs,
        "max_workers": max_workers,
        "serve_seconds": serve_seconds,
        "requests_per_second": (
            num_requests / serve_seconds if serve_seconds > 0 else 0.0
        ),
        "ok": total["ok"],
        "hits": total["hits"],
        "misses": total["misses"],
        "rejected": total["rejected"],
        "errors": total["errors"],
        "hit_rate": total["hits"] / total["ok"] if total["ok"] else 0.0,
        "delta_cells": total["delta_cells"],
        "latency_mean_seconds": total["latency_mean_seconds"],
        "latency_max_seconds": total["latency_max_seconds"],
        "verified": verified,
        "mismatches": mismatches,
        "executor_closed": bool(service.executor.closed),
        "leaked_workers": leaked,
        "pending_after_close": service.pending,
    }


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign pid reuse
        return True
    return True


def _check_admission_control(size: int) -> dict:
    """Over-capacity burst: overflow rejected synchronously with reason."""
    burst = build_request_stream(12, SEED, size=size)
    cap = 5
    service = LTDPService(max_workers=2, num_procs=2, max_queue=cap)
    # Not started: every submit past the cap must bounce immediately.
    tickets = [service.submit(p) for p in burst]
    rejected = [t.result(timeout=0) for t in tickets if t.done]
    reasons_ok = all(
        r.status == STATUS_REJECTED and "backpressure" in r.reason
        for r in rejected
    )
    stats = service.close(drain=False)
    return {
        "burst": len(burst),
        "queue_cap": cap,
        "synchronous_rejections": len(rejected),
        "reasons_named": reasons_ok,
        "passed": len(rejected) == len(burst) - cap and reasons_ok
        and stats["total"]["rejected"] == len(burst),
    }


def _checks_from_rows(rows: list[dict]) -> dict:
    size = rows[0]["problem_size"] if rows else 32
    return {
        "bit_identity": {
            "verified": sum(r["verified"] for r in rows),
            "mismatches": sum(r["mismatches"] for r in rows),
            "passed": bool(rows)
            and all(
                r["mismatches"] == 0 and r["verified"] == r["ok"] for r in rows
            ),
        },
        "cache_delta_path": {
            "hits": sum(r["hits"] for r in rows),
            "delta_cells": sum(r["delta_cells"] for r in rows),
            "passed": bool(rows)
            and all(r["hits"] > 0 and r["delta_cells"] > 0 for r in rows),
        },
        "admission_control": _check_admission_control(size),
        "clean_teardown": {
            "leaked_workers": sum(r["leaked_workers"] for r in rows),
            "passed": bool(rows)
            and all(
                r["executor_closed"]
                and r["leaked_workers"] == 0
                and r["pending_after_close"] == 0
                and r["errors"] == 0
                for r in rows
            ),
        },
    }


# ----------------------------------------------------------------------
# Schema validation (hand-rolled; no jsonschema dependency)
# ----------------------------------------------------------------------

_ROW_FIELDS = {
    "row": str,
    "num_requests": int,
    "problem_size": int,
    "num_procs": int,
    "max_workers": int,
    "serve_seconds": float,
    "requests_per_second": float,
    "ok": int,
    "hits": int,
    "misses": int,
    "rejected": int,
    "errors": int,
    "hit_rate": float,
    "delta_cells": int,
    "latency_mean_seconds": float,
    "latency_max_seconds": float,
    "verified": int,
    "mismatches": int,
    "leaked_workers": int,
}


def validate_serve_doc(doc) -> None:
    """Raise ``ValueError`` unless ``doc`` matches the BENCH_serve schema."""
    if not isinstance(doc, dict):
        raise ValueError(f"document must be an object, got {type(doc).__name__}")
    version = need(doc, "schema_version", int, "document")
    if version != SERVE_SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {version} != supported {SERVE_SCHEMA_VERSION}"
        )
    need(doc, "kind", str, "document")
    if doc["kind"] != "repro-serve-bench":
        raise ValueError(f"kind {doc['kind']!r} != 'repro-serve-bench'")
    need(doc, "mode", str, "document")
    need(doc, "host", dict, "document")
    rows = need(doc, "results", list, "document")
    if not rows:
        raise ValueError("document: 'results' must be non-empty")
    for idx, row in enumerate(rows):
        where = f"results[{idx}]"
        if not isinstance(row, dict):
            raise ValueError(f"{where}: must be an object")
        for key, typ in _ROW_FIELDS.items():
            types = (int, float) if typ is float else typ
            need(row, key, types, where)
        if row["serve_seconds"] <= 0:
            raise ValueError(f"{where}: serve_seconds must be positive")
    checks = need(doc, "checks", dict, "document")
    for name, check in checks.items():
        if not isinstance(check, dict) or "passed" not in check:
            raise ValueError(f"checks[{name!r}]: must be an object with 'passed'")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_suite(smoke: bool) -> tuple[dict, bool]:
    """Run the serving grid + checks; returns ``(document, checks_ok)``."""
    mode = "smoke" if smoke else "full"
    print(f"serve bench: mode={mode}")
    rows = []
    for name, num_requests, size, num_procs, max_workers in _grid(smoke):
        row = _run_row(name, num_requests, size, num_procs, max_workers)
        rows.append(row)
        print(
            f"  {name:<14s} {row['num_requests']:>4d} reqs  "
            f"{row['requests_per_second']:7.1f} req/s  "
            f"hit rate {row['hit_rate']:.0%}  "
            f"{row['delta_cells']} delta cells  "
            f"p_max {row['latency_max_seconds'] * 1e3:.1f} ms"
        )

    print("checks:")
    checks = _checks_from_rows(rows)
    for name, check in checks.items():
        print(f"  {name}: {'pass' if check['passed'] else 'FAIL'} {check}")

    doc = make_document("repro-serve-bench", SERVE_SCHEMA_VERSION, mode, rows, checks)
    return doc, all(c["passed"] for c in checks.values())


def run_bench(smoke: bool, out: pathlib.Path, *,
              update_baseline: bool = False) -> tuple[dict, int]:
    """Run the serving grid + checks, emit ``out``, return (doc, exit code).

    Same write policy as the pool suite: a run with failed checks lands
    in the ``*.failed.json`` sidecar, never in ``out``, unless
    re-baselining is requested explicitly.
    """
    doc, checks_ok = run_suite(smoke)
    validate_serve_doc(doc)
    exit_code = 0 if checks_ok else 1
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if checks_ok or update_baseline:
        out.write_text(payload)
        print(f"wrote {out}")
    else:
        sidecar = out.with_suffix(".failed.json")
        sidecar.write_text(payload)
        print(f"baseline {out} left untouched (checks failed); wrote {sidecar}")
        print("  (re-baseline intentionally with --update-baseline)")
    return doc, exit_code


def check_document(path) -> int:
    """``--check``: validate an existing document, exit cleanly on junk."""
    try:
        doc = load_json_document(path)
        validate_serve_doc(doc)
    except BenchDocumentError as exc:
        print(f"bench check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"bench check failed: {path}: {exc}", file=sys.stderr)
        return 1
    print(
        f"{path}: valid repro-serve-bench document "
        f"(schema v{doc['schema_version']}, {len(doc['results'])} rows, "
        f"mode={doc['mode']})"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single small row (CI-sized, ~seconds)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help=f"output document (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="replace --out even when checks fail (explicit re-baselining)",
    )
    parser.add_argument(
        "--check",
        metavar="PATH",
        default=None,
        help="validate an existing document against the schema and exit",
    )
    args = parser.parse_args(argv)

    if args.check:
        return check_document(args.check)

    _, exit_code = run_bench(
        args.smoke, args.out, update_baseline=args.update_baseline
    )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
