"""The sequential LTDP algorithm — paper Figure 2.

Forward phase: iterate ``s_i = A_i ⨂ s_{i-1}`` keeping the predecessor
products ``p_i = A_i ⋆ s_{i-1}``.  Backward phase: follow predecessors
from subproblem 0 of the last stage.

This is both the correctness reference for the parallel algorithm and
the baseline whose (modeled or measured) runtime defines speedup.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ZeroVectorError
from repro.ltdp.problem import LTDPProblem, LTDPSolution
from repro.machine.metrics import RunMetrics, SuperstepRecord
from repro.semiring.tropical import NEG_INF
from repro.semiring.vector import is_zero_vector

__all__ = [
    "forward_sequential",
    "backward_sequential",
    "sequential_metrics",
    "solve_sequential",
]


def forward_sequential(
    problem: LTDPProblem, *, keep_stage_vectors: bool = False
) -> tuple[
    np.ndarray,
    list[np.ndarray | None],
    list[np.ndarray | None] | None,
    tuple[float, int, int] | None,
]:
    """Run the forward phase; return ``(s_n, pred, stage_vectors, best_objective)``.

    ``pred[i]`` for ``1 ≤ i ≤ n`` holds the predecessor product at stage
    ``i`` (``pred[0]`` is ``None``).  ``stage_vectors[i]`` is ``s_i``
    when requested (index 0 = the initial vector), else ``None``.
    For ``tracks_stage_objective`` problems ``best_objective`` is the
    running ``(value, stage, cell)`` reduction (earliest stage wins
    ties); otherwise ``None``.
    """
    n = problem.num_stages
    s = problem.initial_vector()
    pred: list[np.ndarray | None] = [None] * (n + 1)
    vectors: list[np.ndarray | None] | None = None
    if keep_stage_vectors:
        vectors = [s.copy()]
    best: tuple[float, int, int] | None = None
    if problem.tracks_stage_objective:
        val, cell = problem.stage_objective(0, s)
        best = (val, 0, cell)
    for i in range(1, n + 1):
        s, p = problem.apply_stage_with_pred(i, s)
        if is_zero_vector(s):
            raise ZeroVectorError(
                f"stage {i} produced an all--inf vector; the instance has a "
                "trivial transformation (see paper §4.5)"
            )
        pred[i] = p
        if vectors is not None:
            vectors.append(s.copy())
        if best is not None:
            val, cell = problem.stage_objective(i, s)
            if val > best[0]:
                best = (val, i, cell)
    return s, pred, vectors, best


def backward_sequential(
    pred: list[np.ndarray | None],
    *,
    start_stage: int | None = None,
    start_cell: int = 0,
) -> np.ndarray:
    """Follow predecessors from ``start_cell`` of ``start_stage`` (default:
    subproblem 0 of the last stage, Fig 2 lines 9-12).

    Returns ``path`` with ``path[i]`` = optimal subproblem index at
    stage ``i`` (length ``n + 1``).  Entries beyond ``start_stage`` are
    left 0 (used by stage-objective problems, whose answer can end at
    any stage).
    """
    n = len(pred) - 1
    if start_stage is None:
        start_stage = n
    path = np.zeros(n + 1, dtype=np.int64)
    path[start_stage] = start_cell
    x = start_cell
    for i in range(start_stage, 0, -1):
        p = pred[i]
        assert p is not None, f"missing predecessor product for stage {i}"
        x = int(p[x])
        path[i - 1] = x
    return path


def best_stage_objective(
    problem: LTDPProblem, indexed_vectors
) -> tuple[float, int, int]:
    """Reduce per-stage objectives: ``(value, stage, cell)`` of the optimum.

    ``indexed_vectors`` yields ``(stage_index, vector)`` pairs.
    Tie-break: earliest stage, then the cell the problem's own
    (shift-invariant) ``stage_objective`` reports.
    """
    best_val = NEG_INF
    best_stage = 0
    best_cell = 0
    for i, v in indexed_vectors:
        val, cell = problem.stage_objective(i, v)
        if val > best_val:
            best_val, best_stage, best_cell = val, i, cell
    return best_val, best_stage, best_cell


def sequential_metrics(problem: LTDPProblem, work: float) -> RunMetrics:
    """The single-processor :class:`RunMetrics` of a sequential solve.

    One forward record (``work``: every cell once, as the forward sweep
    summed it) and one backward record (one traceback step per stage),
    so the cost model prices a sequential run consistently with
    parallel ones.
    """
    metrics = RunMetrics(
        num_procs=1,
        num_stages=problem.num_stages,
        stage_width=problem.max_stage_width(),
    )
    metrics.record(SuperstepRecord(label="forward", work=[work], phase="forward"))
    metrics.record(
        SuperstepRecord(
            label="backward", work=[float(problem.num_stages)], phase="backward"
        )
    )
    return metrics


def solve_sequential(
    problem: LTDPProblem,
    *,
    keep_stage_vectors: bool = False,
    with_metrics: bool = False,
) -> LTDPSolution:
    """Solve an LTDP instance with the sequential algorithm (Fig 2).

    This is the dense per-stage loop and never touches the kernel tier:
    it is the oracle every faster path is checked against.  With
    ``with_metrics`` the run is recorded as a single-processor
    :class:`RunMetrics` so the cost model can price it consistently
    with parallel runs.
    """
    final, pred, vectors, best = forward_sequential(
        problem, keep_stage_vectors=keep_stage_vectors
    )
    if best is not None:
        score, obj_stage, obj_cell = best
        path = backward_sequential(pred, start_stage=obj_stage, start_cell=obj_cell)
    else:
        score, obj_stage, obj_cell = float(final[0]), None, None
        path = backward_sequential(pred)
    solution = LTDPSolution(
        path=path,
        score=float(score),
        final_vector=final,
        stage_vectors=vectors,
        objective_stage=obj_stage,
        objective_cell=obj_cell,
    )
    if with_metrics:
        solution.metrics = sequential_metrics(problem, problem.total_cells())
    return solution
