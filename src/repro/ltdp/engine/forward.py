"""Forward-phase planner (paper Fig 4): initial pass + fix-up loop.

This module *plans* — it builds :class:`ForwardInitSpec` /
:class:`ForwardFixupSpec` lists, snapshots the boundary vectors that
cross each barrier, hands the specs to the runtime, and keeps the
metrics ledger.  All numeric work happens inside the specs, wherever
the runtime runs them.

The driver-visible product of the phase is the ``finals`` map: each
processor's range-final stage vector as of the last barrier.  It is the
complete inter-processor state of the forward phase (the only vectors
the paper's algorithm ever communicates), which is what lets the pool
runtime keep everything else worker-resident.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.exceptions import ConvergenceError
from repro.kernels import kernel_tier_enabled
from repro.ltdp.delta import changed_delta_count, encode_boundary_diff
from repro.ltdp.engine.runtime import SuperstepRuntime
from repro.ltdp.engine.specs import (
    DeltaRepairSpec,
    ForwardFixupSpec,
    ForwardInitSpec,
)
from repro.ltdp.partition import StageRange
from repro.ltdp.problem import LTDPProblem
from repro.machine.metrics import CommEvent, RunMetrics, SuperstepRecord

__all__ = [
    "plan_initial_pass",
    "plan_fixup_round",
    "forward_phase",
    "repair_forward_phase",
]


def plan_initial_pass(
    ranges: Sequence[StageRange],
    opts,
    *,
    capture_state: bool = False,
    use_kernels: bool = False,
) -> list[ForwardInitSpec]:
    """Fig 4 lines 6-11: every processor sweeps its range from s0 / nz."""
    seed_seq = np.random.SeedSequence(opts.seed)
    child_seeds = seed_seq.spawn(len(ranges))
    return [
        ForwardInitSpec(
            proc=rg.proc,
            lo=rg.lo,
            hi=rg.hi,
            seed=child,
            nz_low=opts.nz_low,
            nz_high=opts.nz_high,
            nz_integer=opts.nz_integer,
            capture_state=capture_state,
            use_kernels=use_kernels,
        )
        for rg, child in zip(ranges, child_seeds)
    ]


def plan_fixup_round(
    ranges: Sequence[StageRange],
    finals: dict[int, np.ndarray],
    opts,
    tol: float,
    *,
    sparse: bool = False,
    last_input: dict[int, np.ndarray] | None = None,
    last_converged: dict[int, bool] | None = None,
    use_kernels: bool = False,
) -> tuple[list[ForwardFixupSpec], list[CommEvent], int]:
    """One fix-up superstep: snapshot boundaries, emit specs + comm events.

    Barrier semantics: every processor reads its left neighbour's final
    stage vector *as stored at the start of the iteration* — the copy
    here is that snapshot.

    Convergence-aware scheduling (Fig 4's early exit): a processor that
    converged last round *and* whose input boundary is bit-identical to
    the one it already consumed is dropped from the superstep entirely —
    no spec, no message.  Its re-run would deterministically reproduce
    its stored state and converge again, so skipping it cannot change
    any result.

    In delta mode, a re-dispatched processor is shipped a
    :class:`~repro.ltdp.delta.BoundaryDiff` against its resident input
    copy whenever the diff is smaller than the dense vector.

    Returns ``(specs, comm, changed_deltas)`` where ``changed_deltas``
    is the round's total §4.7 changed-delta count over the dispatched
    boundaries (dense first dispatches count their full width).
    ``last_input`` is updated in place with the dispatched snapshots.
    """
    last_input = {} if last_input is None else last_input
    last_converged = {} if last_converged is None else last_converged
    specs: list[ForwardFixupSpec] = []
    comm: list[CommEvent] = []
    changed_total = 0
    crossover = getattr(opts, "delta_crossover", 0.25)
    for rg in ranges[1:]:
        new_in = np.array(finals[rg.proc - 1], copy=True)
        prev = last_input.get(rg.proc)
        diffable = prev is not None and prev.shape == new_in.shape
        if (
            last_converged.get(rg.proc, False)
            and diffable
            and np.array_equal(prev, new_in)
        ):
            continue  # converged, nothing new arrived: stays correct
        boundary: np.ndarray | None = new_in
        diff = None
        num_bytes = 8 * new_in.size
        if opts.use_delta and diffable:
            changed_total += changed_delta_count(prev, new_in)
            cand = encode_boundary_diff(prev, new_in)
            if cand.num_bytes < num_bytes:
                diff, boundary, num_bytes = cand, None, cand.num_bytes
        elif opts.use_delta:
            changed_total += int(new_in.size)  # first dispatch ships dense
        specs.append(
            ForwardFixupSpec(
                proc=rg.proc,
                lo=rg.lo,
                hi=rg.hi,
                boundary=boundary,
                boundary_diff=diff,
                tol=tol,
                use_delta=opts.use_delta,
                sparse=sparse,
                crossover=crossover,
                use_kernels=use_kernels,
            )
        )
        comm.append(CommEvent(src=rg.proc - 1, dst=rg.proc, num_bytes=num_bytes))
        last_input[rg.proc] = new_in
    return specs, comm, changed_total


def _fixup_loop(
    problem: LTDPProblem,
    ranges: Sequence[StageRange],
    opts,
    runtime: SuperstepRuntime,
    metrics: RunMetrics,
    finals: dict[int, np.ndarray],
    *,
    sparse: bool,
    last_input: dict[int, np.ndarray],
    last_converged: dict[int, bool],
    use_kernels: bool = False,
) -> int:
    """Fig 4 lines 13-27: fix-up supersteps until every processor converges.

    Mutates ``finals`` / ``last_input`` / ``last_converged`` in place
    (callers that keep solves resident — the serve layer — carry these
    dicts across requests) and returns the number of fix-up iterations
    dispatched.
    """
    num_procs = len(ranges)
    if num_procs == 1:
        return 0
    max_iters = (
        opts.max_fixup_iterations
        if opts.max_fixup_iterations is not None
        else num_procs + 1
    )
    tol = problem.parallel_tol
    iteration = 0
    while True:
        iteration += 1
        if iteration > max_iters:
            raise ConvergenceError(
                f"forward fix-up did not converge within {max_iters} iterations"
            )
        specs, comm, changed = plan_fixup_round(
            ranges,
            finals,
            opts,
            tol,
            sparse=sparse,
            last_input=last_input,
            last_converged=last_converged,
            use_kernels=use_kernels,
        )
        if not specs:
            # Every processor is converged on an unchanged input.  The
            # initial-pass loop normally exits via all_conv below before
            # planning an empty round; a repair whose perturbation died
            # inside the repaired ranges lands here on its first round.
            iteration -= 1
            break
        label = f"fixup[{iteration}]"
        t0 = time.perf_counter()
        results = runtime.run(specs, label=label)
        wall = time.perf_counter() - t0
        work_row = [0.0] * num_procs  # non-dispatched processors idle
        all_conv = True
        for result in results:
            finals[result.proc] = result.boundary
            work_row[result.proc - 1] = result.work
            metrics.fixup_stages[result.proc] = (
                metrics.fixup_stages.get(result.proc, 0) + result.stages_done
            )
            last_converged[result.proc] = result.converged
            all_conv &= result.converged
        metrics.fixup_dispatched.append(len(specs))
        if opts.use_delta:
            metrics.fixup_changed_deltas.append(changed)
        metrics.record(
            SuperstepRecord(
                label=label,
                work=work_row,
                comm=comm,
                wall_seconds=wall,
                phase="forward",
                step=runtime.step_no,
            )
        )
        if all_conv:
            break
    return iteration


def forward_phase(
    problem: LTDPProblem,
    ranges: Sequence[StageRange],
    opts,
    runtime: SuperstepRuntime,
    metrics: RunMetrics,
    *,
    last_input: dict[int, np.ndarray] | None = None,
    last_converged: dict[int, bool] | None = None,
) -> dict[int, np.ndarray]:
    """Run the full forward phase; returns each processor's final vector.

    ``last_input`` / ``last_converged`` are the convergence-aware
    scheduling state (the input boundary each processor consumed at its
    last dispatch, and whether it converged there).  Callers that keep
    the solve resident pass their own dicts so a later
    :func:`repair_forward_phase` can continue from them; by default the
    state is loop-local, exactly as before.
    """
    num_procs = len(ranges)
    # Sparse fix-up kernels run only where they are bit-exact: the
    # problem must advertise support (integral scores).
    sparse = opts.use_delta and getattr(problem, "supports_sparse_fixup", False)
    # Raw-speed kernel tier: selected per problem through the same
    # capability mechanism as resident state (see repro.kernels).
    use_kernels = kernel_tier_enabled(opts, problem)

    # -- initial pass (one superstep) ----------------------------------
    specs = plan_initial_pass(
        ranges, opts, capture_state=sparse, use_kernels=use_kernels
    )
    t0 = time.perf_counter()
    results = runtime.run(specs, label="forward")
    wall = time.perf_counter() - t0
    finals: dict[int, np.ndarray] = {}
    work_row = []
    for result, rg in zip(results, ranges):
        finals[rg.proc] = result.boundary
        work_row.append(result.work)
    metrics.record(
        SuperstepRecord(
            label="forward",
            work=work_row,
            wall_seconds=wall,
            phase="forward",
            step=runtime.step_no,
        )
    )

    # -- fix-up loop (Fig 4 lines 13-27) -------------------------------
    if num_procs == 1:
        return finals
    iteration = _fixup_loop(
        problem,
        ranges,
        opts,
        runtime,
        metrics,
        finals,
        sparse=sparse,
        last_input={} if last_input is None else last_input,
        last_converged={} if last_converged is None else last_converged,
        use_kernels=use_kernels,
    )
    metrics.forward_fixup_iterations = iteration
    metrics.converged_first_iteration = iteration == 1
    return finals


def repair_forward_phase(
    problem: LTDPProblem,
    ranges: Sequence[StageRange],
    opts,
    runtime: SuperstepRuntime,
    metrics: RunMetrics,
    *,
    finals: dict[int, np.ndarray],
    last_input: dict[int, np.ndarray],
    last_converged: dict[int, bool],
    dirty_stages: set[int],
) -> dict[int, np.ndarray]:
    """Repair a resident forward solve against a mutated problem.

    The serve layer's cache-hit path: instead of re-running the initial
    pass, each processor whose range contains a dirty stage (a stage
    whose transform differs from the resident canonical solve) sweeps
    once with a :class:`DeltaRepairSpec` — one block-kernel sweep where
    the kernel tier accepts the range, else dense recompute at the dirty
    stages and sparse §4.7 repair elsewhere — and the ordinary fix-up
    loop then propagates whatever survived past the range boundaries.
    The runtime's worker-side problem must already be rebound to
    ``problem`` (see ``PoolRuntime.rebind_problem``).

    Requires the resident state produced by a previous
    :func:`forward_phase` / ``repair_forward_phase`` on the same ranges:
    ``finals``, plus the scheduling dicts those calls maintained.  All
    three are mutated in place.  Returns the repaired ``finals``.
    """
    num_procs = len(ranges)
    sparse = opts.use_delta and getattr(problem, "supports_sparse_fixup", False)
    use_kernels = kernel_tier_enabled(opts, problem)
    tol = problem.parallel_tol
    crossover = getattr(opts, "delta_crossover", 0.25)
    dirty_by_proc: dict[int, list[int]] = {}
    for rg in ranges:
        mine = sorted(i for i in dirty_stages if rg.lo < i <= rg.hi)
        if mine:
            dirty_by_proc[rg.proc] = mine
    if dirty_by_proc:
        specs: list[DeltaRepairSpec] = []
        comm: list[CommEvent] = []
        for rg in ranges:
            mine = dirty_by_proc.get(rg.proc)
            if mine is None:
                continue
            # Repair input: processor 1 restarts from the exact initial
            # vector; everyone else from their left neighbour's resident
            # final (unchanged so far — the repair wave moves rightward).
            if rg.proc == 1:
                new_in = np.asarray(problem.initial_vector(), dtype=np.float64)
            else:
                new_in = np.array(finals[rg.proc - 1], copy=True)
            prev = last_input.get(rg.proc)
            diffable = prev is not None and prev.shape == new_in.shape
            boundary: np.ndarray | None = new_in
            diff = None
            num_bytes = 8 * new_in.size
            if opts.use_delta and diffable:
                cand = encode_boundary_diff(prev, new_in)
                if cand.num_bytes < num_bytes:
                    diff, boundary, num_bytes = cand, None, cand.num_bytes
            specs.append(
                DeltaRepairSpec(
                    proc=rg.proc,
                    lo=rg.lo,
                    hi=rg.hi,
                    boundary=boundary,
                    boundary_diff=diff,
                    tol=tol,
                    use_delta=opts.use_delta,
                    sparse=sparse,
                    crossover=crossover,
                    use_kernels=use_kernels,
                    dirty=tuple(mine),
                )
            )
            comm.append(
                CommEvent(src=rg.proc - 1, dst=rg.proc, num_bytes=num_bytes)
            )
            last_input[rg.proc] = new_in
        t0 = time.perf_counter()
        results = runtime.run(specs, label="repair")
        wall = time.perf_counter() - t0
        work_row = [0.0] * num_procs
        repaired = 0
        for result in results:
            finals[result.proc] = result.boundary
            work_row[result.proc - 1] = result.work
            metrics.fixup_stages[result.proc] = (
                metrics.fixup_stages.get(result.proc, 0) + result.stages_done
            )
            last_converged[result.proc] = result.converged
            repaired += result.repaired_deltas
        metrics.fixup_dispatched.append(len(specs))
        if opts.use_delta:
            # For the repair round this counts the delta-space cells the
            # sweeps actually changed against the resident state — the
            # serve layer's "the hit really took the repair path" signal.
            metrics.fixup_changed_deltas.append(repaired)
        metrics.record(
            SuperstepRecord(
                label="repair",
                work=work_row,
                comm=comm,
                wall_seconds=wall,
                phase="forward",
                step=runtime.step_no,
            )
        )
    iteration = _fixup_loop(
        problem,
        ranges,
        opts,
        runtime,
        metrics,
        finals,
        sparse=sparse,
        last_input=last_input,
        last_converged=last_converged,
        use_kernels=use_kernels,
    )
    metrics.forward_fixup_iterations = iteration
    metrics.converged_first_iteration = iteration <= 1
    return finals
