"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``info``
    List the shipped problems, convolutional codes and machine presets.
``solve``
    Build a synthetic instance of a chosen problem family, solve it
    sequentially and in parallel, verify they agree, report metrics.
    Without ``--procs`` the cost model picks ``P`` and the report
    prints its predicted sequential and parallel seconds.
``convergence``
    Run the Table-1 protocol (steps to rank-1 convergence) on a chosen
    instance.
``sweep``
    Processor sweep: speedup/efficiency series under the calibrated
    cost model (the Fig 7-10 machinery, one instance at a time).
``trace``
    ASCII Gantt chart of one parallel run's BSP schedule.
``lint``
    Static analysis: enforce the semiring, determinism and protocol
    contracts (rules REP001-REP005, see ``docs/static_analysis.md``).
``serve``
    Request-serving selftest: stream ≥100 mixed decode/align requests
    through one service (each class at the ``P`` the cost model picks,
    in-process or on the resident worker pool), answering
    near-duplicates by repairing the resident answer, verifying every
    answer against a sequential solve (see ``docs/serving.md``).
``bench``
    Longitudinal perf intelligence: ``record`` a suite run into the
    append-only JSONL history, ``compare`` two bench documents,
    ``trend``/``report`` the per-cell rolling median/MAD verdicts, and
    ``check`` document/history schemas (see ``docs/benchmarking.md``).

All instances are generated from seeded synthetic workloads, so every
invocation is reproducible via ``--seed``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from repro.analysis.speedup import scaling_sweep
from repro.analysis.tables import format_series, format_table
from repro.datagen.hmms import make_hmm_workload
from repro.datagen.packets import make_received_packet
from repro.datagen.sequences import homologous_pair, random_dna, random_series
from repro.ltdp.convergence import measure_convergence_steps
from repro.kernels import get_backend, kernel_tier_enabled
from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.ltdp.engine.inprocess import SequentialAnswer
from repro.ltdp.sequential import solve_sequential
from repro.machine.cluster import SimCluster
from repro.machine.executor import EXECUTOR_KINDS, Executor, get_executor
from repro.machine.cost_model import (
    CostModel,
    ProcChoice,
    calibrate_cell_cost,
    choose_num_procs,
)
from repro.machine.trace import Tracer, render_gantt
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.smith_waterman import SmithWatermanProblem
from repro.problems.convolutional import STANDARD_CODES
from repro.problems.dtw import DTWProblem
from repro.problems.seam import SeamCarvingProblem

__all__ = ["main", "build_problem"]

PROBLEM_CHOICES = ("lcs", "nw", "sw", "viterbi", "hmm", "dtw", "seam")


def build_problem(args: argparse.Namespace):
    """Instantiate the synthetic problem described by CLI arguments."""
    rng = np.random.default_rng(args.seed)
    kind = args.problem
    if kind in ("lcs", "nw"):
        a, b = homologous_pair(args.size, rng, divergence=args.divergence)
        cls = LCSProblem if kind == "lcs" else NeedlemanWunschProblem
        return cls(a, b, width=args.width)
    if kind == "sw":
        query = random_dna(max(4, args.width), rng)
        db = random_dna(args.size, rng)
        return SmithWatermanProblem(query, db)
    if kind == "viterbi":
        code = STANDARD_CODES[args.code]
        _, problem = make_received_packet(
            code, args.size, rng, error_rate=args.error_rate
        )
        return problem
    if kind == "hmm":
        _, _, problem = make_hmm_workload(
            max(2, args.width), 6, args.size, rng, peakedness=4.0
        )
        return problem
    if kind == "dtw":
        x = random_series(args.size, rng)
        y = random_series(args.size, rng)
        return DTWProblem(x, y, width=args.width)
    if kind == "seam":
        return SeamCarvingProblem(rng.random((args.size, max(4, args.width))))
    raise ValueError(f"unknown problem {kind!r}")


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _add_runtime_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        default="serial",
        help="superstep runtime: serial (simulated), thread or pool "
        "(persistent workers)",
    )
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cap on real OS workers for thread/pool executors",
    )


def _build_executor(args: argparse.Namespace) -> Executor:
    """Executor described by ``--executor`` / ``--workers``."""
    if args.executor == "serial":
        return get_executor("serial")
    return get_executor(args.executor, max_workers=args.workers)


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", choices=PROBLEM_CHOICES, default="lcs")
    p.add_argument("--size", type=int, default=1000, help="stages / sequence length")
    p.add_argument("--width", type=int, default=32, help="band width / state count")
    p.add_argument("--divergence", type=float, default=0.1)
    p.add_argument("--code", choices=sorted(STANDARD_CODES), default="Voyager")
    p.add_argument("--error-rate", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)


def cmd_info(_args: argparse.Namespace) -> int:
    rows = [
        ["lcs", "banded longest common subsequence (row stages)"],
        ["nw", "banded Needleman-Wunsch global alignment (row stages)"],
        ["sw", "affine-gap Smith-Waterman local alignment (column stages)"],
        ["viterbi", "convolutional-code ML decoding (trellis stages)"],
        ["hmm", "hidden-Markov-model Viterbi inference"],
        ["dtw", "banded dynamic time warping"],
        ["seam", "minimum-energy seam carving"],
    ]
    print(format_table(["problem", "description"], rows, title="LTDP problems"))
    code_rows = [
        [c.name, c.constraint_length, f"1/{c.rate_denominator}", c.num_states]
        for c in STANDARD_CODES.values()
    ]
    print()
    print(
        format_table(
            ["code", "K", "rate", "states"], code_rows, title="Convolutional codes"
        )
    )
    return 0


#: ``repro solve``'s processor ceiling when ``--procs`` is not given.
SOLVE_PROCS_CEILING = 8


def _choose_procs(problem, executor: Executor) -> ProcChoice:
    """The cost model's P for ``problem``, calibrated by one in-process solve."""
    get_backend()  # keep the backend load out of the measured sweep
    answer = SequentialAnswer(problem, use_kernels=kernel_tier_enabled(None, problem))
    return choose_num_procs(
        answer.forward_seconds, SOLVE_PROCS_CEILING, problem, executor
    )


def cmd_solve(args: argparse.Namespace) -> int:
    problem = build_problem(args)
    seq = solve_sequential(problem)
    tracer = Tracer() if args.trace else None
    # The with-block guarantees pool workers are reaped on every exit
    # path, including solver errors and ^C.
    with _build_executor(args) as executor:
        choice = None
        num_procs = args.procs
        if num_procs is None:
            choice = _choose_procs(problem, executor)
            num_procs = choice.num_procs
        options = ParallelOptions(
            num_procs=num_procs,
            seed=args.seed,
            executor=executor,
            tracer=tracer,
        )
        par = solve_parallel(problem, options)
    ok = bool(np.array_equal(seq.path, par.path)) and abs(seq.score - par.score) < 1e-9
    m = par.metrics
    print(f"problem          : {args.problem} ({problem.num_stages} stages)")
    print(f"score            : {seq.score}")
    print(f"parallel == seq  : {ok}")
    print(f"executor         : {args.executor}")
    print(f"processors       : {m.num_procs}")
    if choice is not None:
        print(
            f"P choice         : P={choice.num_procs} (predicted sequential "
            f"{choice.seq_seconds:.6f} s, parallel {choice.parallel_seconds:.6f} s "
            f"at P={choice.parallel_procs})"
        )
    print(f"fix-up iterations: {m.forward_fixup_iterations}")
    print(f"critical work    : {m.critical_path_work:.0f} cells")
    print(f"total work       : {m.total_work:.0f} cells")
    print(f"sequential work  : {problem.total_cells():.0f} cells")
    print(f"measured wall    : {m.wall_time:.4f} s over {len(m.supersteps)} supersteps")
    print(
        f"recovery         : {m.worker_respawns} worker respawns, "
        f"{m.dispatch_retries} dispatch retries, "
        f"{m.replayed_supersteps} supersteps replayed"
    )
    if tracer is not None:
        tracer.dump_jsonl(args.trace)
        print(f"trace            : {args.trace}")
        print(tracer.format_summary())
    return 0 if ok else 1


def cmd_convergence(args: argparse.Namespace) -> int:
    problem = build_problem(args)
    study = measure_convergence_steps(
        problem, num_trials=args.trials, seed=args.seed, name=args.problem
    )
    print(
        format_table(
            ["problem", "width", "min", "median", "max", "converged"],
            [study.row()],
            title="Steps to converge to rank 1",
        )
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    problem = build_problem(args)
    mid = max(1, problem.num_stages // 2)
    v = np.asarray(problem.initial_vector(), dtype=float).copy()
    v[~np.isfinite(v)] = 0.0
    if v.size != problem.stage_width(mid - 1):
        v = np.zeros(problem.stage_width(mid - 1))
    cell_cost = calibrate_cell_cost(
        lambda: problem.apply_stage(mid, v), problem.stage_cost(mid), min_seconds=0.02
    )
    procs = [int(x) for x in args.procs_list.split(",")]
    with _build_executor(args) as executor:
        cluster = SimCluster.stampede(1, cell_cost=cell_cost).with_executor(
            executor
        )
        curve = scaling_sweep(problem, cluster, procs, seed=args.seed)
    print(
        format_series(
            "P",
            procs,
            {
                "time[s]": [f"{p.time_seconds:.3e}" for p in curve.points],
                "speedup": [round(p.speedup, 2) for p in curve.points],
                "efficiency": [round(p.efficiency, 3) for p in curve.points],
                "fixup": [p.fixup_iterations for p in curve.points],
            },
            title=f"{args.problem}: scaling sweep (cell cost {cell_cost:.2e} s)",
        )
    )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.runner import execute_lint

    return execute_lint(args)


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.cli import execute_bench

    return execute_bench(args)


def cmd_serve(args: argparse.Namespace) -> int:
    if not args.selftest:
        print(
            "repro serve: pass --selftest to run the batched-serving demo "
            "(the in-process API is repro.serve.LTDPService)",
            file=sys.stderr,
        )
        return 2
    from repro.serve import run_selftest

    report = run_selftest(
        num_requests=args.requests,
        num_procs=args.procs,
        max_workers=args.workers,
        max_queue=args.queue,
        seed=args.seed,
        log=print,
    )
    return 0 if report.passed else 1


def cmd_trace(args: argparse.Namespace) -> int:
    problem = build_problem(args)
    with _build_executor(args) as executor:
        options = ParallelOptions(
            num_procs=args.procs, seed=args.seed, executor=executor
        )
        par = solve_parallel(problem, options)
    print(render_gantt(par.metrics, CostModel(cell_cost=1e-7), columns=args.columns))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rank-convergence LTDP parallelization (PPoPP 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list problems, codes and presets")

    p_solve = sub.add_parser("solve", help="solve one synthetic instance")
    _add_problem_args(p_solve)
    _add_runtime_args(p_solve)
    p_solve.add_argument(
        "--procs",
        type=_positive_int,
        default=None,
        help="processors, honoured as given; omitted, the cost model picks "
        f"P <= {SOLVE_PROCS_CEILING} from one in-process solve",
    )
    p_solve.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a JSONL span trace of the parallel solve (per-superstep "
        "and, on the pool executor, per-worker dispatch/compute breakdown) "
        "and print its summary",
    )

    p_conv = sub.add_parser("convergence", help="Table-1 convergence protocol")
    _add_problem_args(p_conv)
    p_conv.add_argument("--trials", type=int, default=20)

    p_sweep = sub.add_parser("sweep", help="processor scaling sweep")
    _add_problem_args(p_sweep)
    _add_runtime_args(p_sweep)
    p_sweep.add_argument("--procs-list", default="1,2,4,8,16,32,64")

    p_trace = sub.add_parser("trace", help="ASCII Gantt of one parallel run")
    _add_problem_args(p_trace)
    _add_runtime_args(p_trace)
    p_trace.add_argument("--procs", type=int, default=8)
    p_trace.add_argument("--columns", type=int, default=100)

    p_serve = sub.add_parser(
        "serve",
        help="batched request serving, in-process or on the resident pool "
        "(selftest)",
    )
    p_serve.add_argument(
        "--selftest",
        action="store_true",
        help="serve a seeded mixed request stream and verify every answer "
        "bit-identical to a sequential solve",
    )
    p_serve.add_argument(
        "--requests",
        type=_positive_int,
        default=120,
        metavar="N",
        help="requests in the generated stream (default 120)",
    )
    p_serve.add_argument("--procs", type=_positive_int, default=3)
    p_serve.add_argument(
        "--workers",
        type=_positive_int,
        default=3,
        metavar="N",
        help="persistent pool workers",
    )
    p_serve.add_argument(
        "--queue",
        type=_positive_int,
        default=None,
        metavar="N",
        help="admission-control queue bound (default: accept the whole stream)",
    )
    p_serve.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser(
        "bench",
        help="longitudinal perf intelligence: record/compare/trend/report/check",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    def _add_trend_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--history",
            type=pathlib.Path,
            default=None,
            metavar="PATH",
            help="history JSONL file (default ./BENCH_history.jsonl)",
        )
        p.add_argument(
            "--suite", choices=("pool", "serve"), default=None,
            help="restrict to one suite (default: all present)",
        )
        p.add_argument(
            "--mode", choices=("smoke", "full"), default=None,
            help="restrict to one mode (default: all present)",
        )
        p.add_argument("--window", type=_positive_int, default=8,
                       help="baseline window: trailing samples behind the confirm tail")
        p.add_argument("--confirm", type=_positive_int, default=3,
                       help="consecutive recent samples that must all shift")
        p.add_argument("--min-samples", type=_positive_int, default=6,
                       help="below this many runs a cell is insufficient-history")
        p.add_argument("--z-threshold", type=float, default=3.5,
                       help="robust z-score each confirm sample must exceed")
        p.add_argument("--min-effect", type=float, default=1.25,
                       help="minimum recent/baseline median ratio for a verdict")

    p_brecord = bench_sub.add_parser(
        "record",
        help="run a suite and append one record to the JSONL history",
    )
    p_brecord.add_argument("--suite", choices=("pool", "serve"), default="pool")
    p_brecord.add_argument("--mode", choices=("smoke", "full"), default="smoke")
    p_brecord.add_argument(
        "--repeats", type=_positive_int, default=3,
        help="timed repetitions per cell (pool suite)",
    )
    p_brecord.add_argument(
        "--history", type=pathlib.Path, default=None, metavar="PATH",
        help="history JSONL file to append to (default ./BENCH_history.jsonl)",
    )
    p_brecord.add_argument(
        "--baseline", type=pathlib.Path, default=None, metavar="PATH",
        help="read-only comparison baseline (default ./BENCH_pool.json "
        "or ./BENCH_serve.json by suite)",
    )
    p_brecord.add_argument(
        "--out", type=pathlib.Path, default=None, metavar="PATH",
        help="also write the run document here (plain artifact, not a baseline)",
    )
    p_brecord.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline with this run's document (explicit re-baselining)",
    )
    p_brecord.add_argument(
        "--trace", metavar="PATH", default=None,
        help="dump the coverage check's JSONL trace here (pool suite)",
    )

    p_bcompare = bench_sub.add_parser(
        "compare",
        help="cell-by-cell ratio comparison of two bench documents",
    )
    p_bcompare.add_argument("old", help="baseline document (JSON)")
    p_bcompare.add_argument("new", help="candidate document (JSON)")
    p_bcompare.add_argument(
        "--ratio", type=float, default=1.6,
        help="regression threshold on new/old wall-clock (default 1.6)",
    )

    p_btrend = bench_sub.add_parser(
        "trend",
        help="per-cell rolling median/MAD verdicts over the history",
    )
    _add_trend_args(p_btrend)
    p_btrend.add_argument(
        "--format", dest="fmt", choices=("text", "markdown"), default="text"
    )
    p_btrend.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any cell has a sustained-regression verdict",
    )

    p_breport = bench_sub.add_parser(
        "report",
        help="markdown trend report + history summary (CI artifact)",
    )
    _add_trend_args(p_breport)
    p_breport.add_argument(
        "--out", type=pathlib.Path, default=None, metavar="PATH",
        help="write the markdown report here (default: stdout)",
    )

    p_bcheck = bench_sub.add_parser(
        "check",
        help="schema-validate bench documents (*.json) and history files (*.jsonl)",
    )
    p_bcheck.add_argument("paths", nargs="+", help="files to validate")

    p_lint = sub.add_parser(
        "lint",
        help="static analysis: semiring / determinism / protocol / concurrency contracts",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    p_lint.add_argument(
        "--format", dest="fmt", choices=("text", "json"), default="text"
    )
    p_lint.add_argument(
        "--select", default=None, metavar="CODES", help="rule codes to run"
    )
    p_lint.add_argument(
        "--fix",
        action="store_true",
        help="apply autofixable findings (REP001) in place",
    )
    p_lint.add_argument("--list-rules", action="store_true")
    p_lint.add_argument(
        "--report-unused-waivers",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="report stale suppressions as REP000 (default: on)",
    )
    p_lint.add_argument(
        "--check-report",
        default=None,
        metavar="PATH",
        help="validate a --format json report against the current schema",
    )

    args = parser.parse_args(argv)
    handlers = {
        "info": cmd_info,
        "solve": cmd_solve,
        "convergence": cmd_convergence,
        "sweep": cmd_sweep,
        "trace": cmd_trace,
        "serve": cmd_serve,
        "bench": cmd_bench,
        "lint": cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
