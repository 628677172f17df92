"""Entry point of the parallel LTDP engine: options + ``solve_parallel``.

The driver wires the plan layer (phase planners emitting declarative
superstep specs) to the runtime layer (where the specs execute):

1. partition stages over virtual processors;
2. pick a runtime from the executor's capabilities —
   :class:`~repro.ltdp.engine.runtime.LocalRuntime` for closure-running
   executors (serial / thread / fork-per-task),
   :class:`~repro.ltdp.engine.poolrt.PoolRuntime` for the persistent
   :class:`~repro.machine.pool.PoolProcessExecutor`;
3. run the forward phase, the optional objective reduction, and the
   backward phase, collecting :class:`~repro.machine.metrics.RunMetrics`
   (simulated work *and* real wall-clock per superstep);
4. price the exact score and assemble the :class:`LTDPSolution`.

Results are bit-identical across every runtime: all cross-processor
inputs are snapshotted into the specs at each barrier (exactly what the
paper's barriers guarantee), and the spec execution bodies are shared
code.

The *exact-score epilogue* (ours, not in the paper) recovers the true
optimal value ``s_n[0]`` by pricing the traced path edge by edge: the
parallel forward phase only guarantees vectors parallel to the truth,
so the final vector's entries are offset by an unknown constant, but
path edge weights are offset-free.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ProblemDefinitionError
from repro.kernels import kernel_tier_enabled
from repro.ltdp.engine.backward import (
    backward_parallel_phase,
    backward_serial_phase,
    objective_phase,
)
from repro.ltdp.engine.forward import forward_phase
from repro.ltdp.engine.runner import DeliveryPolicy
from repro.ltdp.engine.runtime import LocalRuntime, SuperstepRuntime
from repro.ltdp.partition import partition_stages
from repro.ltdp.problem import LTDPProblem, LTDPSolution
from repro.ltdp.sequential import solve_sequential
from repro.machine.executor import Executor, SerialExecutor, executor_capability
from repro.machine.metrics import RunMetrics
from repro.machine.trace import Tracer
from repro.semiring.tropical import NEG_INF

__all__ = [
    "ParallelOptions",
    "solve_parallel",
    "run_solve_phases",
    "edge_weight_by_probe",
]

#: Shared no-op context for untraced phase blocks (nullcontext is stateless).
_NULL_CTX = nullcontext()


@dataclass
class ParallelOptions:
    """Knobs of the parallel solver.

    Attributes
    ----------
    num_procs:
        Requested processor count ``P`` (clamped to the stage count).
    executor:
        Where superstep tasks run; default serial (deterministic sim).
        Executors advertising ``supports_resident_state`` (the
        persistent worker pool) get the state-resident runtime.
    seed:
        Seeds the random ``nz`` start vectors (Fig 4 line 8).  The same
        seed gives the same vectors regardless of executor.
    nz_low, nz_high:
        Range of the entries of the ``nz`` vectors.
    nz_integer:
        Draw integer ``nz`` entries (default) so that integer-scored
        problems stay bit-exact; set False for continuous entries.
    use_delta:
        Run fix-up supersteps in §4.7 delta mode.  Boundary messages
        become sparse diffs (anchor offset + changed positions) against
        the receiver's resident copy whenever that is smaller, and
        problems with a sparse stage kernel (``supports_sparse_fixup``
        — banded LCS / Needleman–Wunsch) repair their resident stage
        vectors sparsely, diffing in delta space so only changed-delta
        neighbourhoods are recomputed, falling back to the dense kernel
        past ``delta_crossover``.  With the kernel tier on, those
        problems sweep each fix-up range in one block-kernel dispatch
        instead, which recomputes every stage densely.  Results are
        bit-identical to dense mode; the recorded work is the cells
        actually computed (touched cells on the per-stage sparse path,
        full stages on a block sweep), or the modeled delta cost for
        problems without a sparse kernel.
    delta_crossover:
        Changed-input fraction above which a sparse fix-up stage defers
        to the dense kernel (the crossover point where repairing the
        scan stops being cheaper than recomputing it).
    max_fixup_iterations:
        Safety bound; default ``P + 1`` (the loop provably terminates
        within ``P`` iterations — worst case it devolves to sequential).
    exact_score:
        Run the path-pricing epilogue so ``solution.score`` equals the
        true ``s_n[0]`` (costs one ``edge_weight`` per stage).
    parallel_backward:
        Use the Fig 5 parallel backward phase; else traceback serially.
    keep_stage_vectors:
        Return the stored per-stage vectors (each parallel to the true
        one) on the solution object.
    tracer:
        Optional :class:`~repro.machine.trace.Tracer` collecting real
        wall-clock spans of the solve (per-superstep, and per-worker
        dispatch breakdown on the pool runtime).  ``None`` (default)
        keeps every instrumentation site on its one-check fast path.
        Only multi-processor solves are traced; ``num_procs=1``
        devolves to the sequential solver.
    runners:
        Concurrent instruction runners pulling from the shared work
        queue (CLI ``--runners``).  1 (default) keeps the classic
        one-batch-per-barrier superstep loop; ``> 1`` spins up a
        :class:`~repro.ltdp.engine.runner.RunnerCrew` so a superstep's
        instructions execute concurrently as the queue releases them.
        Results are bit-identical either way.
    delivery:
        Optional :class:`~repro.ltdp.engine.runner.DeliveryPolicy`
        perturbing instruction delivery (duplicates, LIFO order) — the
        redelivery test suite's fault-injection knob.  A non-default
        policy forces the runner-crew path even with ``runners=1``.
    use_kernels:
        Raw-speed kernel tier (:mod:`repro.kernels`) tri-state.
        ``None`` (default, auto) dispatches whole stage-blocks through a
        registered block kernel whenever the executor declares the
        ``block_kernels`` capability and the problem's exact type has
        one, honouring the ``REPRO_KERNELS`` environment switch;
        ``False`` forces the dense per-stage path; ``True`` forces the
        tier on (ignoring the environment switch).  Results are
        bit-identical either way — every kernel dispatch is gated by an
        exactness cross-check with automatic dense fallback.
    """

    num_procs: int = 2
    executor: Executor = field(default_factory=SerialExecutor)
    seed: int | None = 0
    nz_low: float = -10.0
    nz_high: float = 10.0
    nz_integer: bool = True
    use_delta: bool = False
    delta_crossover: float = 0.25
    max_fixup_iterations: int | None = None
    exact_score: bool = True
    parallel_backward: bool = True
    keep_stage_vectors: bool = False
    tracer: Tracer | None = None
    runners: int = 1
    delivery: DeliveryPolicy | None = None
    use_kernels: bool | None = None

    def __post_init__(self) -> None:
        if self.num_procs < 1:
            raise ValueError(f"num_procs must be >= 1, got {self.num_procs}")
        if self.runners < 1:
            raise ValueError(f"runners must be >= 1, got {self.runners}")
        if not self.nz_low < self.nz_high:
            raise ValueError("require nz_low < nz_high")
        if not 0.0 < self.delta_crossover <= 1.0:
            raise ValueError(
                f"delta_crossover must be in (0, 1], got {self.delta_crossover}"
            )


def edge_weight_by_probe(problem: LTDPProblem, i: int, j: int, k: int) -> float:
    """``A_i[j, k]`` recovered by applying stage ``i`` to the unit vector at ``k``.

    O(width) fallback used when a problem does not override
    ``edge_weight``; all shipped problems provide O(1) overrides.
    """
    w_in = problem.stage_width(i - 1)
    unit = np.full(w_in, NEG_INF)
    unit[k] = 0.0
    return float(problem.apply_stage(i, unit)[j])


def _edge_weight(problem: LTDPProblem, i: int, j: int, k: int) -> float:
    fn = getattr(problem, "edge_weight", None)
    if fn is not None:
        return float(fn(i, j, k))
    return edge_weight_by_probe(problem, i, j, k)


def _price_path(
    problem: LTDPProblem, path: np.ndarray, *, use_kernels: bool = False
) -> float:
    """Exact objective of a traced path: ``s_0[path[0]] + Σ_i A_i[path[i], path[i-1]]``."""
    if use_kernels:
        from repro.kernels import price_path_fast

        # Vectorized pricing over the preplanned edge-weight layout;
        # kernels only return a value when the summation is provably
        # exact in any order (integral weights), so this equals the
        # sequential scalar loop below bit-for-bit.
        fast = price_path_fast(problem, np.asarray(path))
        if fast is not None:
            return fast
    s0 = problem.initial_vector()
    total = float(s0[path[0]])
    for i in range(1, problem.num_stages + 1):
        total += _edge_weight(problem, i, int(path[i]), int(path[i - 1]))
    return total


def _make_runtime(
    executor: Executor,
    problem: LTDPProblem,
    ranges,
    tracer: Tracer | None = None,
    runners: int = 1,
    delivery: DeliveryPolicy | None = None,
) -> SuperstepRuntime:
    """Runtime selection: resident-state executors get the pool runtime."""
    if executor_capability(executor, "resident_state"):
        from repro.ltdp.engine.poolrt import PoolRuntime

        return PoolRuntime(
            executor,
            problem,
            ranges,
            tracer=tracer,
            runners=runners,
            delivery=delivery,
        )
    return LocalRuntime(
        executor, problem, tracer=tracer, runners=runners, delivery=delivery
    )


def run_solve_phases(
    problem: LTDPProblem,
    options: ParallelOptions,
    ranges,
    runtime: SuperstepRuntime,
    metrics: RunMetrics,
    *,
    forward_fn=None,
) -> LTDPSolution:
    """Run forward → objective → backward → score on a caller-owned runtime.

    The phase pipeline of :func:`solve_parallel`, split out so the serve
    layer can drive it repeatedly against one resident
    :class:`~repro.ltdp.engine.poolrt.PoolRuntime` (amortizing runtime
    construction and worker-state shipping across requests).  The caller
    owns the runtime's lifecycle — no ``finish()`` here — and, for pool
    executors, the folding of recovery-counter deltas into ``metrics``.

    ``forward_fn`` overrides the forward phase (the serve layer
    substitutes :func:`~repro.ltdp.engine.forward.repair_forward_phase`
    on cache hits); it must return the ``finals`` map that
    :func:`~repro.ltdp.engine.forward.forward_phase` would.
    """
    tracer = options.tracer
    with tracer.span("phase", phase="forward") if tracer else _NULL_CTX:
        if forward_fn is None:
            finals = forward_phase(problem, ranges, options, runtime, metrics)
        else:
            finals = forward_fn()

    obj_stage: int | None = None
    obj_cell: int | None = None
    obj_value: float | None = None
    if problem.tracks_stage_objective:
        with tracer.span("phase", phase="objective") if tracer else _NULL_CTX:
            obj_value, obj_stage, obj_cell = objective_phase(
                problem, ranges, options, runtime, metrics
            )

    # Explicit sentinel check: ``obj_cell or 0`` conflated "no objective
    # cell" (None) with a legitimate objective optimum at cell 0.
    start_cell = 0 if obj_cell is None else obj_cell
    with tracer.span("phase", phase="backward") if tracer else _NULL_CTX:
        if options.parallel_backward:
            path = backward_parallel_phase(
                problem,
                ranges,
                options,
                runtime,
                metrics,
                start_stage=obj_stage,
                start_cell=start_cell,
            )
        else:
            path = backward_serial_phase(
                problem,
                runtime,
                metrics,
                len(ranges),
                start_stage=obj_stage,
                start_cell=start_cell,
            )

    final = np.asarray(finals[ranges[-1].proc])
    if obj_value is not None:
        # The shift-invariant objective is exact even on offset vectors.
        score = float(obj_value)
    elif options.exact_score:
        score = _price_path(
            problem, path, use_kernels=kernel_tier_enabled(options, problem)
        )
    else:
        score = float(final[0])

    stage_vectors = None
    if options.keep_stage_vectors:
        stage_vectors = [np.asarray(v) for v in runtime.stage_vectors()]

    return LTDPSolution(
        path=path,
        score=score,
        final_vector=final,
        metrics=metrics,
        stage_vectors=stage_vectors,
        objective_stage=obj_stage,
        objective_cell=obj_cell,
    )


def solve_parallel(
    problem: LTDPProblem,
    options: ParallelOptions | None = None,
    **kwargs,
) -> LTDPSolution:
    """Solve an LTDP instance with the paper's parallel algorithm.

    ``kwargs`` are convenience overrides for :class:`ParallelOptions`
    fields, e.g. ``solve_parallel(prob, num_procs=8, seed=42)``.

    Returns an :class:`LTDPSolution` whose ``path`` is identical to the
    sequential algorithm's (deterministic tie-breaking makes this an
    equality, not just co-optimality) and whose ``metrics`` record the
    real per-processor work for the cost model.
    """
    if options is None:
        options = ParallelOptions(**kwargs)
    elif kwargs:
        raise TypeError("pass either a ParallelOptions object or keyword overrides")

    n = problem.num_stages
    if n < 1:
        raise ProblemDefinitionError("problem must have at least one stage")

    ranges = partition_stages(n, options.num_procs)
    num_procs = len(ranges)
    if num_procs == 1:
        solution = solve_sequential(
            problem,
            keep_stage_vectors=options.keep_stage_vectors,
            with_metrics=True,
        )
        return solution

    metrics = RunMetrics(
        num_procs=num_procs,
        num_stages=n,
        # The *max* stage width, matching the Table 1 convention
        # (convergence.py): the final stage of selector-terminated
        # problems has width 1, which would misreport throughput.
        stage_width=problem.max_stage_width(),
    )
    # Snapshot the pool's self-healing counters (if any) before the
    # runtime touches the workers, so the metrics report exactly the
    # respawns/retries/replays this solve caused.
    recovery = getattr(options.executor, "recovery_stats", None)
    recovery_base = recovery.snapshot() if recovery is not None else None
    tracer = options.tracer
    if tracer:
        tracer.event(
            "solve-start",
            problem=type(problem).__name__,
            num_stages=n,
            num_procs=num_procs,
            executor=type(options.executor).__name__,
        )
    runtime = _make_runtime(
        options.executor,
        problem,
        ranges,
        tracer,
        runners=options.runners,
        delivery=options.delivery,
    )
    try:
        solution = run_solve_phases(problem, options, ranges, runtime, metrics)
    finally:
        runtime.finish()
        if recovery is not None and recovery_base is not None:
            metrics.worker_respawns += recovery.respawns - recovery_base.respawns
            metrics.dispatch_retries += recovery.retries - recovery_base.retries
            metrics.replayed_supersteps += (
                recovery.replayed_supersteps - recovery_base.replayed_supersteps
            )

    return solution
