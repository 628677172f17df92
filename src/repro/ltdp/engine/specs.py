"""Declarative superstep specs — the *plan* half of the plan/runtime split.

The parallel LTDP algorithm (paper Figs 4/5) is pure BSP: each
superstep is a set of per-processor jobs whose cross-processor inputs
were all snapshotted at the previous barrier.  This module captures one
such job as a :class:`SuperstepSpec` — a frozen dataclass naming the
stage range, the boundary input carried across the barrier, and (for
fix-up supersteps) the convergence predicate parameters.  Specs are
pure data: picklable, free of closures, and independent of *where* they
run.

Runtimes (see :mod:`repro.ltdp.engine.runtime` and
:mod:`repro.ltdp.engine.poolrt`) execute a spec by calling
:meth:`SuperstepSpec.execute` against a :class:`StageStore` — an
abstract view of the per-stage vectors the executing processor can see.
``execute`` never mutates the store; all writes are collected in the
returned :class:`SpecResult` and applied after the barrier, which is
exactly what makes serial / thread / forked-process / persistent-pool
execution bit-identical.

The store contract mirrors the paper's data distribution: a spec only
ever reads stages inside its own ``(lo .. hi]`` range (resident on its
processor) plus the boundary value embedded in the spec itself (the
one message its left/right neighbour sent at the barrier).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from repro.exceptions import ZeroVectorError
from repro.ltdp.delta import BoundaryDiff, changed_delta_count, delta_fixup_work
from repro.ltdp.problem import LTDPProblem
from repro.semiring.vector import are_parallel, is_zero_vector, random_nonzero_vector

__all__ = [
    "StageStore",
    "SpecResult",
    "SuperstepSpec",
    "ForwardInitSpec",
    "ForwardFixupSpec",
    "DeltaRepairSpec",
    "ObjectiveSpec",
    "BackwardInitSpec",
    "BackwardFixupSpec",
]


class StageStore(Protocol):
    """What a spec may read while executing: its processor's resident state."""

    def get_s(self, i: int) -> np.ndarray:
        """Stored stage vector ``s_i`` (as of the last barrier)."""
        ...

    def get_pred(self, i: int) -> np.ndarray:
        """Stored predecessor vector of stage ``i``."""
        ...

    def get_path(self, i: int) -> int:
        """Stored backward-path entry at stage ``i`` (as of the last barrier)."""
        ...

    def get_fixup_state(self, i: int):
        """Resident §4.7 delta state: stage ``i``'s cached kernel
        evaluation (``None`` when the stage has not been evaluated with
        state capture yet)."""
        ...

    def get_fixup_input(self, lo: int) -> np.ndarray | None:
        """The input boundary last consumed by a fix-up sweep starting
        at stage ``lo`` — the resident base a :class:`BoundaryDiff`
        applies to.  ``None`` before the first fix-up dispatch."""
        ...


@dataclass
class SpecResult:
    """Everything one spec execution produced.

    ``s_updates`` / ``pred_updates`` are the stage-resident writes: a
    runtime with worker-resident state applies them *in the worker* and
    strips them before replying, so only ``boundary`` (one stage-width
    vector) and the scalar fields cross the wire per superstep — the
    paper's O(boundary) communication model.  ``path_updates`` are the
    backward phase's output (integers, i.e. the answer itself) and are
    always returned to the driver.
    """

    proc: int
    work: float = 0.0
    s_updates: dict[int, np.ndarray] = field(default_factory=dict)
    pred_updates: dict[int, np.ndarray] = field(default_factory=dict)
    path_updates: dict[int, int] = field(default_factory=dict)
    stages_done: int = 0
    converged: bool = True
    #: The executing processor's range-final stage vector after this
    #: superstep — the only vector its right neighbour ever needs.
    boundary: np.ndarray | None = None
    #: ``(value, stage, cell)`` candidate from an :class:`ObjectiveSpec`.
    objective: tuple[float, int, int] | None = None
    #: Resident §4.7 delta state: per-stage cached kernel evaluations
    #: produced by this spec (stage-resident, stripped on the pool wire).
    fixup_state_updates: dict[int, object] = field(default_factory=dict)
    #: ``(lo, boundary)`` — the input boundary this fix-up sweep
    #: consumed, stored resident so the next round's
    #: :class:`~repro.ltdp.delta.BoundaryDiff` can apply against it.
    fixup_input: tuple[int, np.ndarray] | None = None
    #: Delta-space cells this sweep actually changed relative to the
    #: resident stage vectors (§4.7 accounting; reported by
    #: :class:`DeltaRepairSpec` so a serve-layer cache hit can prove it
    #: repaired rather than recomputed).  Scalar — crosses the pool wire.
    repaired_deltas: int = 0

    def stripped(self) -> "SpecResult":
        """Copy with the stage-resident payloads removed (pool wire format)."""
        return replace(self, s_updates={}, pred_updates={}, fixup_state_updates={}, fixup_input=None)


@dataclass(frozen=True)
class SuperstepSpec:
    """One processor's job within one barrier-delimited superstep."""

    proc: int  # 1-based processor id, matching the paper
    lo: int  # exclusive lower stage bound
    hi: int  # inclusive upper stage bound

    def stages(self) -> range:
        return range(self.lo + 1, self.hi + 1)

    def execute(self, problem: LTDPProblem, store: StageStore) -> SpecResult:
        raise NotImplementedError


@dataclass(frozen=True)
class ForwardInitSpec(SuperstepSpec):
    """Fig 4 lines 6-11: sweep the range from ``s_0`` (proc 1) or ``nz``.

    ``seed`` is the processor's spawned :class:`numpy.random.SeedSequence`
    child; the same child produces the same ``nz`` vector on every
    runtime, which is what keeps runs reproducible across executors.
    """

    seed: np.random.SeedSequence | None = None
    nz_low: float = -10.0
    nz_high: float = 10.0
    nz_integer: bool = True
    #: Cache each stage's kernel evaluation state for later sparse
    #: fix-up (set when the problem has a sparse kernel and delta mode
    #: is on).  Costs memory, never changes the computed vectors.
    capture_state: bool = False
    #: Dispatch the whole range through the raw-speed kernel tier when a
    #: registered kernel accepts it (bit-identical by gate; see
    #: :mod:`repro.kernels`).  Falls back to the dense loop on ``None``.
    use_kernels: bool = False

    def execute(self, problem: LTDPProblem, store: StageStore) -> SpecResult:
        if self.proc == 1:
            v = problem.initial_vector()
        else:
            rng = np.random.default_rng(self.seed)
            v = random_nonzero_vector(
                problem.stage_width(self.lo),
                rng,
                low=self.nz_low,
                high=self.nz_high,
                integer=self.nz_integer,
            )
        out_s: dict[int, np.ndarray] = {}
        out_pred: dict[int, np.ndarray] = {}
        out_states: dict[int, object] = {}
        work = 0.0
        if self.use_kernels:
            from repro.kernels import block_sweep

            sweep = block_sweep(
                problem, self.lo, self.hi, v, capture_state=self.capture_state
            )
            if sweep is not None:
                if sweep.zero_index is not None:
                    raise ZeroVectorError(
                        f"stage {self.lo + 1 + sweep.zero_index} produced an "
                        "all--inf vector during the parallel forward pass"
                    )
                for r, i in enumerate(self.stages()):
                    out_s[i] = sweep.values[r]
                    out_pred[i] = sweep.preds[r]
                    if self.capture_state:
                        out_states[i] = sweep.states[r]
                    # Sequential accumulation mirrors the dense loop's
                    # float summation order exactly.
                    work += float(sweep.costs[r])
                return SpecResult(
                    proc=self.proc,
                    work=work,
                    s_updates=out_s,
                    pred_updates=out_pred,
                    boundary=out_s[self.hi],
                    fixup_state_updates=out_states,
                )
        for i in self.stages():
            if self.capture_state:
                v, p, st = problem.apply_stage_with_state(i, v)
                out_states[i] = st
            else:
                v, p = problem.apply_stage_with_pred(i, v)
            if is_zero_vector(v):
                raise ZeroVectorError(
                    f"stage {i} produced an all--inf vector during the "
                    "parallel forward pass"
                )
            out_s[i] = v
            out_pred[i] = p
            work += problem.stage_cost(i)
        return SpecResult(
            proc=self.proc,
            work=work,
            s_updates=out_s,
            pred_updates=out_pred,
            boundary=out_s[self.hi],
            fixup_state_updates=out_states,
        )


@dataclass(frozen=True)
class ForwardFixupSpec(SuperstepSpec):
    """Fig 4 lines 13-27: re-sweep from the left neighbour's boundary.

    ``boundary`` is the neighbour's range-final vector as advertised at
    the barrier — shipped either dense or, in delta mode, as a
    :class:`~repro.ltdp.delta.BoundaryDiff` against the input boundary
    the processor consumed last round (resident in its store).  The
    convergence predicate is tropical parallelism against the stored
    vectors (:meth:`is_converged`), with the problem's tolerance baked
    into the spec.

    With ``use_kernels`` the whole range is swept in one block-kernel
    dispatch (capturing §4.7 state when ``sparse``); the per-stage loop
    is the fallback when no kernel accepts the range.  On that loop, in
    delta mode (``use_delta``), problems with a sparse kernel
    (``sparse``) propagate only the changed positions through each
    resident stage via
    :meth:`~repro.ltdp.problem.LTDPProblem.apply_stage_sparse`, falling
    back to the dense kernel past the ``crossover`` changed fraction.
    Sparse-kernel problems charge the cells actually computed on either
    path (full stages on a block sweep); delta-mode sweeps of problems
    without a sparse kernel charge the modeled §4.7 cost
    (:func:`~repro.ltdp.delta.delta_fixup_work`).
    """

    boundary: np.ndarray | None = None
    tol: float = 0.0
    use_delta: bool = False
    #: Sparse alternative to ``boundary``: applied to the resident copy
    #: of last round's input boundary (``store.get_fixup_input(lo)``).
    boundary_diff: BoundaryDiff | None = None
    #: Keep §4.7 per-stage state resident and run the problem's sparse
    #: fix-up kernel on the per-stage path (delta mode + the problem
    #: advertises ``supports_sparse_fixup``).
    sparse: bool = False
    #: Changed-input fraction above which the sparse kernel defers to
    #: the dense one.
    crossover: float = 0.25
    #: Dispatch through the raw-speed kernel tier first.  In sparse mode
    #: the block sweep captures fresh §4.7 state for every stage it
    #: computes, so it needs none of the resident state.
    use_kernels: bool = False

    #: Phase name in zero-vector errors.
    _what = "fix-up"
    #: Report ``repaired_deltas`` (repair specs only: the per-stage
    #: count costs a delta encode of both vectors).
    _counts_repairs = False

    def is_converged(self, new: np.ndarray, stored: np.ndarray) -> bool:
        """The fix-up convergence predicate (§4.2 rank convergence)."""
        return are_parallel(new, stored, tol=self.tol)

    def _dirty(self) -> frozenset[int]:
        """Stages whose transform changed under the resident state."""
        return frozenset()

    def execute(self, problem: LTDPProblem, store: StageStore) -> SpecResult:
        if self.boundary_diff is not None:
            base = store.get_fixup_input(self.lo)
            if base is None:
                raise ZeroVectorError(
                    f"processor {self.proc} received a boundary diff but "
                    "has no resident input boundary to apply it to"
                )
            v = self.boundary_diff.apply(base)
        else:
            v = np.asarray(self.boundary, dtype=np.float64)
        if self.use_kernels:
            result = self._execute_block(problem, store, v)
            if result is not None:
                return result
        return self._execute_stages(problem, store, v)

    def _execute_stages(self, problem, store, v) -> SpecResult:
        """Per-stage sweep: sparse §4.7 repair where the resident state
        allows it, dense otherwise."""
        in_boundary = v
        dirty = self._dirty()
        # Stage indices, not tropical values: with nothing dirty the
        # convergence exit may fire from the first stage.
        last_dirty = max(dirty, default=self.lo)
        new_s: dict[int, np.ndarray] = {}
        new_pred: dict[int, np.ndarray] = {}
        new_states: dict[int, object] = {}
        work = 0.0
        stages_done = 0
        converged = False
        repaired = 0
        for i in self.stages():
            sparse_cells: float | None = None
            if self.sparse and i not in dirty:
                res = problem.apply_stage_sparse(
                    i, v, store.get_fixup_state(i), self.crossover
                )
                if res is not None:
                    v, p, st, sparse_cells = res
                    new_states[i] = st
            if sparse_cells is None:
                if self.sparse:
                    # Dirty stage, no cache yet, or past crossover: dense
                    # recompute with state capture so the next round can
                    # go sparse against the current transform.
                    v, p, st = problem.apply_stage_with_state(i, v)
                    new_states[i] = st
                else:
                    v, p = problem.apply_stage_with_pred(i, v)
            if is_zero_vector(v):
                raise ZeroVectorError(
                    f"stage {i} produced an all--inf vector in {self._what}"
                )
            new_pred[i] = p
            old = store.get_s(i)
            if sparse_cells is not None:
                work += sparse_cells
            elif self.use_delta and not self.sparse:
                work += delta_fixup_work(old, v)
            else:
                work += problem.stage_cost(i)
            stages_done += 1
            if self._counts_repairs and old.shape == v.shape:
                repaired += changed_delta_count(old, v)
            if i > last_dirty and self.is_converged(v, old):
                converged = True
                break
            new_s[i] = v
        return self._result(
            store, in_boundary, new_s, new_pred, new_states,
            work, stages_done, converged, repaired,
        )

    def _execute_block(self, problem, store, v) -> SpecResult | None:
        """Kernel-tier sweep: one dispatch, then the same per-stage
        convergence/zero/work walk as :meth:`_execute_stages`, in
        stage order.  ``None`` when no kernel accepts the range."""
        from repro.kernels import block_sweep

        sweep = block_sweep(problem, self.lo, self.hi, v, capture_state=self.sparse)
        if sweep is None:
            return None
        last_dirty = max(self._dirty(), default=self.lo)
        new_s: dict[int, np.ndarray] = {}
        new_pred: dict[int, np.ndarray] = {}
        new_states: dict[int, object] = {}
        work = 0.0
        stages_done = 0
        converged = False
        repaired = 0
        for r, i in enumerate(self.stages()):
            if r == sweep.zero_index:
                raise ZeroVectorError(
                    f"stage {i} produced an all--inf vector in {self._what}"
                )
            nv = sweep.values[r]
            new_pred[i] = sweep.preds[r]
            if self.sparse:
                new_states[i] = sweep.states[r]
            old = store.get_s(i)
            if self.use_delta and not self.sparse:
                work += delta_fixup_work(old, nv)
            else:
                # Cells the kernel actually computed: a block sweep is
                # dense even in sparse mode.
                work += float(sweep.costs[r])
            stages_done += 1
            if self._counts_repairs:
                repaired += changed_delta_count(old, nv)
            if i > last_dirty and self.is_converged(nv, old):
                converged = True
                break
            new_s[i] = nv
        return self._result(
            store, v, new_s, new_pred, new_states,
            work, stages_done, converged, repaired,
        )

    def _result(
        self, store, in_boundary, new_s, new_pred, new_states,
        work, stages_done, converged, repaired,
    ) -> SpecResult:
        # On early convergence the stored suffix (including the range
        # final) is untouched, so the advertised boundary is the stored
        # one; otherwise the sweep rewrote through the end of the range.
        boundary = new_s[self.hi] if self.hi in new_s else store.get_s(self.hi)
        return SpecResult(
            proc=self.proc,
            work=work,
            s_updates=new_s,
            pred_updates=new_pred,
            stages_done=stages_done,
            converged=converged,
            boundary=boundary,
            fixup_state_updates=new_states,
            fixup_input=(self.lo, in_boundary) if self.use_delta else None,
            repaired_deltas=repaired,
        )


@dataclass(frozen=True)
class DeltaRepairSpec(ForwardFixupSpec):
    """Repair a *resident* solve against a mutated problem (serve cache hit).

    The serve layer keeps a canonical solve resident in the workers and
    answers a near-duplicate request — same family and shape, a few
    mutated stages — by rebinding the worker-side problem and sweeping
    each dirtied range once with this spec.  It is a
    :class:`ForwardFixupSpec` with three twists:

    - ``dirty`` names the stages whose transform changed.  The block
      sweep recomputes every stage densely and captures fresh §4.7
      state anyway; on the per-stage fallback the dirty stages are
      forced dense (their cached state describes the *old* transform
      and must be refreshed) while clean stages keep the sparse path,
      which costs ~nothing while the propagated boundary is unchanged.
    - The rank-convergence early exit is suppressed until the sweep has
      passed the last dirty stage: before it, "new vector parallel to
      stored" only means the perturbation has not been *reached* yet,
      not that it has died out.
    - ``repaired_deltas`` in the result counts the delta-space cells the
      sweep actually changed — the serve layer's proof that a cache hit
      took the repair path.

    Past the last dirty stage the transforms match the resident state
    again, so the standard fix-up argument applies unchanged and the
    downstream ranges are handled by the ordinary fix-up loop.
    """

    dirty: tuple[int, ...] = ()

    _what = "delta repair"
    _counts_repairs = True

    def _dirty(self) -> frozenset[int]:
        return frozenset(self.dirty)


@dataclass(frozen=True)
class ObjectiveSpec(SuperstepSpec):
    """Scan the resident stage vectors for the shift-invariant objective.

    Processor 1 additionally covers stage 0 (``include_initial``), the
    same convention as the sequential solver's reduction.
    """

    include_initial: bool = False

    def execute(self, problem: LTDPProblem, store: StageStore) -> SpecResult:
        start = 0 if self.include_initial else self.lo + 1
        best: tuple[float, int, int] | None = None
        for i in range(start, self.hi + 1):
            val, cell = problem.stage_objective(i, np.asarray(store.get_s(i)))
            if best is None or val > best[0]:
                best = (val, i, cell)
        work = float(
            sum(problem.stage_objective_cost(i) for i in range(start, self.hi + 1))
        )
        return SpecResult(proc=self.proc, work=work, objective=best)


@dataclass(frozen=True)
class BackwardInitSpec(SuperstepSpec):
    """Fig 5 initial traversal: follow predecessors right-to-left.

    ``start_index`` is 0 for interior processors (Fig 5 line 8's
    assumption) and the objective cell for the last processor.
    """

    start_index: int = 0

    def execute(self, problem: LTDPProblem, store: StageStore) -> SpecResult:
        x = self.start_index
        out: dict[int, int] = {}
        for i in range(self.hi, self.lo, -1):
            x = int(store.get_pred(i)[x])
            out[i - 1] = x
        return SpecResult(
            proc=self.proc,
            work=float(self.hi - self.lo),
            path_updates=out,
        )


@dataclass(frozen=True)
class BackwardFixupSpec(SuperstepSpec):
    """Fig 5 fix-up: re-traverse from the right neighbour's corrected index.

    Convergence predicate: the traversal agrees with the stored path
    entry (Lemma 5 — guaranteed once the backward partial products
    reach rank 1).
    """

    boundary_index: int = 0

    def execute(self, problem: LTDPProblem, store: StageStore) -> SpecResult:
        x = self.boundary_index
        updates: dict[int, int] = {}
        work = 0.0
        converged = False
        for i in range(self.hi, self.lo, -1):
            x = int(store.get_pred(i)[x])
            work += 1.0
            if store.get_path(i - 1) == x:
                converged = True
                break
            updates[i - 1] = x
        return SpecResult(
            proc=self.proc,
            work=work,
            path_updates=updates,
            converged=converged,
        )
