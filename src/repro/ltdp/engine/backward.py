"""Objective-reduction and backward-phase planners (paper Fig 5).

Like :mod:`repro.ltdp.engine.forward`, this module only *plans*: it
emits :class:`ObjectiveSpec` / :class:`BackwardInitSpec` /
:class:`BackwardFixupSpec` supersteps, applies the returned path
updates to the driver-owned path array, and records metrics.  The
per-iteration message is a single path index (8 bytes) per neighbour
pair — the backward phase's entire communication.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.exceptions import ConvergenceError, ProblemDefinitionError
from repro.ltdp.engine.runtime import SuperstepRuntime
from repro.ltdp.engine.specs import (
    BackwardFixupSpec,
    BackwardInitSpec,
    ObjectiveSpec,
)
from repro.ltdp.partition import StageRange, partition_stages
from repro.ltdp.problem import LTDPProblem
from repro.machine.metrics import CommEvent, RunMetrics, SuperstepRecord

__all__ = ["objective_phase", "backward_parallel_phase"]


def _apply_segment(path: np.ndarray, result) -> None:
    """Install a backward spec's path entries: one slice assignment."""
    start, entries = result.path_segment
    path[start : start + len(entries)] = entries


def objective_phase(
    problem: LTDPProblem,
    ranges: Sequence[StageRange],
    opts,
    runtime: SuperstepRuntime,
    metrics: RunMetrics,
) -> tuple[float, int, int]:
    """Reduce the shift-invariant per-stage objective across processors.

    One extra superstep: each processor scans its own stored stage
    vectors (processor 1 also covers stage 0); the global reduction
    breaks ties toward the earliest stage — the same deterministic rule
    the sequential solver uses.
    """
    specs = [
        ObjectiveSpec(
            proc=rg.proc, lo=rg.lo, hi=rg.hi, include_initial=rg.proc == 1
        )
        for rg in ranges
    ]
    t0 = time.perf_counter()
    results = runtime.run(specs, label="objective")
    wall = time.perf_counter() - t0
    metrics.record(
        SuperstepRecord(
            label="objective",
            work=[r.work for r in results],
            wall_seconds=wall,
            phase="forward",
            step=runtime.step_no,
        )
    )
    best_val, best_stage, best_cell = None, 0, 0
    for result in results:
        if result.objective is None:
            continue
        val, stage, cell = result.objective
        if best_val is None or val > best_val or (val == best_val and stage < best_stage):
            best_val, best_stage, best_cell = val, stage, cell
    if best_val is None:
        raise ProblemDefinitionError(
            "objective reduction over "
            f"{len(results)} processors covering stages 0..{ranges[-1].hi} "
            "produced no candidate: every ObjectiveSpec returned None, so "
            f"{type(problem).__name__}.stage_objective yielded no value for "
            "any stage — a tracks_stage_objective problem must define the "
            "objective on at least one stage"
        )
    return best_val, best_stage, best_cell


def backward_parallel_phase(
    problem: LTDPProblem,
    ranges: Sequence[StageRange],
    opts,
    runtime: SuperstepRuntime,
    metrics: RunMetrics,
    *,
    start_stage: int | None = None,
    start_cell: int = 0,
) -> np.ndarray:
    """Fig 5: parallel predecessor traversal with its own fix-up loop.

    ``path[i]`` = optimal subproblem index at stage ``i``.  Every
    processor starts its traversal assuming index 0 at its right
    boundary (Fig 5 line 8); the last processor's assumption is exact
    by the solution convention (or it starts from the objective cell
    for stage-objective problems).  Fix-up re-traverses from the right
    neighbour's corrected boundary until an entry matches (Lemma 5
    ensures this happens once the backward partial products reach
    rank 1).
    """
    n = problem.num_stages
    total_procs = len(ranges)
    if start_stage is None:
        start_stage = n
    path = np.zeros(n + 1, dtype=np.int64)
    path[start_stage] = start_cell
    if start_stage == 0:
        return path
    # The traceback only covers stages 1..start_stage; repartition them
    # over the same processor pool (idle processors contribute 0 work).
    b_ranges = partition_stages(start_stage, total_procs)
    num_procs = len(b_ranges)
    runtime.prepare_backward(b_ranges, ranges)
    runtime.install_path(path)

    def pad(work_rows: list[float]) -> list[float]:
        return work_rows + [0.0] * (total_procs - len(work_rows))

    specs = [
        BackwardInitSpec(
            proc=rg.proc,
            lo=rg.lo,
            hi=rg.hi,
            start_index=start_cell if rg.proc == num_procs else 0,
        )
        for rg in b_ranges
    ]
    t0 = time.perf_counter()
    results = runtime.run(specs, label="backward")
    wall = time.perf_counter() - t0
    for result in results:
        _apply_segment(path, result)
    metrics.record(
        SuperstepRecord(
            label="backward",
            # The runtime's reported work, not the planned stage count —
            # the same convention every other superstep record follows.
            work=pad([result.work for result in results]),
            wall_seconds=wall,
            phase="backward",
            step=runtime.step_no,
        )
    )

    if num_procs == 1:
        return path

    max_iters = (
        opts.max_fixup_iterations
        if opts.max_fixup_iterations is not None
        else num_procs + 1
    )
    iteration = 0
    # Convergence-aware scheduling, mirroring the forward loop: a
    # processor whose last traversal converged and whose boundary index
    # is unchanged would deterministically reproduce its stored path
    # segment, so it is dropped from the superstep entirely.
    last_bidx: dict[int, int] = {}
    last_bconv: dict[int, bool] = {}
    while True:
        iteration += 1
        if iteration > max_iters:
            raise ConvergenceError(
                f"backward fix-up did not converge within {max_iters} iterations"
            )
        # Processors 1..P-1 re-traverse from the boundary index owned by
        # their right neighbour's region (snapshot = barrier semantics).
        specs = []
        for rg in b_ranges[:-1]:
            bidx = int(path[rg.hi])
            if last_bconv.get(rg.proc, False) and last_bidx.get(rg.proc) == bidx:
                continue
            specs.append(
                BackwardFixupSpec(
                    proc=rg.proc, lo=rg.lo, hi=rg.hi, boundary_index=bidx
                )
            )
            last_bidx[rg.proc] = bidx
        if not specs:
            # Defensive: the loop normally exits via all_conv below.
            iteration -= 1
            break
        comm = [
            CommEvent(src=sp.proc + 1, dst=sp.proc, num_bytes=8) for sp in specs
        ]
        label = f"bwd-fixup[{iteration}]"
        t0 = time.perf_counter()
        results = runtime.run(specs, label=label)
        wall = time.perf_counter() - t0
        work_row = [0.0] * total_procs  # non-dispatched processors idle
        all_conv = True
        for result in results:
            _apply_segment(path, result)
            work_row[result.proc - 1] = result.work
            last_bconv[result.proc] = result.converged
            all_conv &= result.converged
        metrics.bwd_fixup_dispatched.append(len(specs))
        metrics.record(
            SuperstepRecord(
                label=label,
                work=work_row,
                comm=comm,
                wall_seconds=wall,
                phase="backward",
                step=runtime.step_no,
            )
        )
        if all_conv:
            break
    metrics.backward_fixup_iterations = iteration
    return path

