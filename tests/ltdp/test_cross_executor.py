"""Cross-executor equivalence: every runtime is bit-identical.

The plan/runtime split means all three executors run the *same*
declarative superstep specs; only where they execute differs.  This
suite pins that down for every shipped problem family: ``path``,
``score`` and the fix-up iteration counts must match the serial
baseline bit-for-bit — no tolerance — on the thread and
persistent-pool runtimes alike.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.datagen.hmms import make_hmm_workload
from repro.datagen.packets import make_received_packet
from repro.datagen.sequences import homologous_pair, random_dna, random_series
from repro.ltdp.matrix_problem import random_matrix_problem
from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.machine.executor import get_executor
from repro.machine.pool import PoolProcessExecutor
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.smith_waterman import SmithWatermanProblem
from repro.problems.convolutional import VOYAGER
from repro.problems.dtw import DTWProblem
from repro.problems.seam import SeamCarvingProblem

NUM_PROCS = 3
SEED = 11

# Instances are deliberately small: each (problem, executor) cell runs a
# full parallel solve, and the process-backed runtimes pay real OS cost.


def build_problems():
    rng = np.random.default_rng(99)
    problems = {}

    problems["matrix"] = random_matrix_problem(48, 8, rng, integer=True)

    _, viterbi = make_received_packet(VOYAGER, 60, rng, error_rate=0.03)
    problems["viterbi"] = viterbi

    _, _, hmm = make_hmm_workload(6, 4, 60, rng, peakedness=3.0)
    problems["hmm"] = hmm

    a, b = homologous_pair(60, rng, divergence=0.08)
    problems["lcs"] = LCSProblem(a, b, width=10)
    problems["nw"] = NeedlemanWunschProblem(a, b, width=10)

    q = random_dna(12, rng)
    db = random_dna(120, rng)
    db[60:72] = q
    # Smith-Waterman tracks a stage objective, exercising the backward
    # repartition (and the pool's pred redistribution).
    problems["sw"] = SmithWatermanProblem(q, db)

    problems["dtw"] = DTWProblem(
        random_series(60, rng), random_series(60, rng), width=10
    )
    problems["seam"] = SeamCarvingProblem(rng.random((50, 12)))
    return problems


PROBLEMS = build_problems()


def solve_with(problem, executor):
    opts = ParallelOptions(num_procs=NUM_PROCS, seed=SEED, executor=executor)
    return solve_parallel(problem, opts)


@pytest.fixture(scope="module")
def serial_solutions():
    return {name: solve_with(p, get_executor("serial")) for name, p in PROBLEMS.items()}


@pytest.mark.parametrize("kind", ["thread", "pool"])
@pytest.mark.parametrize("name", list(PROBLEMS))
def test_executor_bit_identical_to_serial(name, kind, serial_solutions):
    base = serial_solutions[name]
    ex = get_executor(kind, max_workers=2)
    try:
        got = solve_with(PROBLEMS[name], ex)
    finally:
        ex.close()

    np.testing.assert_array_equal(got.path, base.path)
    assert got.score == base.score  # bit-identical, not approx
    assert got.objective_stage == base.objective_stage
    assert got.objective_cell == base.objective_cell

    assert base.metrics is not None and got.metrics is not None
    assert (
        got.metrics.forward_fixup_iterations
        == base.metrics.forward_fixup_iterations
    )
    assert (
        got.metrics.backward_fixup_iterations
        == base.metrics.backward_fixup_iterations
    )
    assert got.metrics.fixup_stages == base.metrics.fixup_stages
    assert got.metrics.converged_first_iteration == (
        base.metrics.converged_first_iteration
    )


@pytest.mark.parametrize("kind", ["thread", "pool"])
@pytest.mark.parametrize("name", list(PROBLEMS))
def test_metrics_accounting_invariant_across_executors(name, kind, serial_solutions):
    """Work/communication accounting is a property of the *plan*, not of
    where it runs: every executor must report the same barrier count,
    per-processor work, fix-up recomputation stages and boundary bytes
    as the serial baseline.  Thread + pool pin both state-placement
    strategies."""
    base = serial_solutions[name].metrics
    ex = get_executor(kind, max_workers=2)
    try:
        got = solve_with(PROBLEMS[name], ex).metrics
    finally:
        ex.close()

    assert got.num_barriers == base.num_barriers
    assert got.work_by_processor() == base.work_by_processor()
    assert got.fixup_stages == base.fixup_stages
    assert got.bytes_communicated == base.bytes_communicated
    assert [s.label for s in got.supersteps] == [s.label for s in base.supersteps]
    assert [s.resolved_phase() for s in got.supersteps] == [
        s.resolved_phase() for s in base.supersteps
    ]


#: Workloads for the delta-mode identity sweep: the two sparse-kernel
#: problems (LCS / NW run §4.7 as actual computation), the matrix
#: problem (dense kernel + modeled delta accounting), and
#: Smith-Waterman (objective phase + backward repartition on top).
DELTA_WORKLOADS = ["lcs", "nw", "matrix", "sw"]


@pytest.mark.parametrize("kind", ["serial", "thread", "pool"])
@pytest.mark.parametrize("name", DELTA_WORKLOADS)
def test_delta_mode_bit_identical_everywhere(name, kind, serial_solutions):
    """§4.7 delta mode is an optimization, never a semantic: with
    ``use_delta=True`` every executor must reproduce the sequential
    path and score bit-for-bit — sparse boundary diffs, resident-state
    sparse kernels and convergence-aware skipping included."""
    _assert_delta_mode_bit_identical(name, kind, serial_solutions, None)


@pytest.mark.parametrize("kind", ["serial", "thread", "pool"])
@pytest.mark.parametrize("name", ["lcs", "nw"])
def test_delta_mode_per_stage_sparse_path_bit_identical(
    name, kind, serial_solutions
):
    """The same sweep with the kernel tier off, so LCS / NW fix-ups run
    the per-stage sparse kernel against resident state — the fallback
    whenever no block kernel accepts a range."""
    _assert_delta_mode_bit_identical(name, kind, serial_solutions, False)


def _assert_delta_mode_bit_identical(name, kind, serial_solutions, use_kernels):
    from repro.ltdp.sequential import solve_sequential

    problem = PROBLEMS[name]
    seq = solve_sequential(problem)
    base = serial_solutions[name]
    ex = get_executor(kind, max_workers=2)
    try:
        got = solve_parallel(
            problem,
            ParallelOptions(
                num_procs=NUM_PROCS,
                seed=SEED,
                executor=ex,
                use_delta=True,
                use_kernels=use_kernels,
            ),
        )
    finally:
        ex.close()

    np.testing.assert_array_equal(got.path, seq.path)
    assert got.score == seq.score
    np.testing.assert_array_equal(got.path, base.path)
    assert got.score == base.score
    # Delta mode may skip work and shrink messages, but never changes
    # the superstep structure's convergence behaviour.
    assert (
        got.metrics.forward_fixup_iterations
        == base.metrics.forward_fixup_iterations
    )


@pytest.fixture(scope="module")
def spawn_pool():
    """One spawn-start-method pool shared by the whole module: workers
    are spawned once (spawn is slow) and reused across solves, which is
    the pool's contract anyway."""
    if "spawn" not in mp.get_all_start_methods():
        pytest.skip("spawn start method unavailable")
    with PoolProcessExecutor(max_workers=2, start_method="spawn") as ex:
        yield ex


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_pool_spawn_start_method_bit_identical(name, spawn_pool, serial_solutions):
    """The cross-executor guarantee must hold under ``spawn`` too: no
    fork-only assumptions (inherited globals, unpicklable worker
    payloads) may hide in the pool protocol or the spec plumbing."""
    base = serial_solutions[name]
    got = solve_with(PROBLEMS[name], spawn_pool)

    np.testing.assert_array_equal(got.path, base.path)
    assert got.score == base.score
    assert got.objective_stage == base.objective_stage
    assert got.objective_cell == base.objective_cell
    assert (
        got.metrics.forward_fixup_iterations
        == base.metrics.forward_fixup_iterations
    )
    assert got.metrics.fixup_stages == base.metrics.fixup_stages


def test_pool_stage_vectors_match():
    """The pool runtime also reproduces the gathered stage vectors."""
    problem = PROBLEMS["matrix"]
    opts_kwargs = dict(num_procs=NUM_PROCS, seed=SEED, keep_stage_vectors=True)
    base = solve_parallel(problem, ParallelOptions(**opts_kwargs))
    ex = get_executor("pool", max_workers=2)
    try:
        got = solve_parallel(
            problem, ParallelOptions(executor=ex, **opts_kwargs)
        )
    finally:
        ex.close()
    np.testing.assert_array_equal(got.path, base.path)
    assert got.score == base.score
    assert base.stage_vectors is not None and got.stage_vectors is not None
    assert len(got.stage_vectors) == len(base.stage_vectors)
    for mine, theirs in zip(got.stage_vectors, base.stage_vectors):
        np.testing.assert_array_equal(mine, theirs)
