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
exactly what makes serial / thread / persistent-pool execution
bit-identical.

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
from repro.ltdp.delta import BoundaryDiff, delta_fixup_work
from repro.ltdp.problem import LTDPProblem
from repro.semiring.vector import (
    are_parallel,
    first_parallel_row,
    is_zero_vector,
    random_nonzero_vector,
)

__all__ = [
    "StageStore",
    "SpecResult",
    "SuperstepSpec",
    "ForwardInitSpec",
    "ForwardFixupSpec",
    "ObjectiveSpec",
    "BackwardInitSpec",
    "BackwardFixupSpec",
    "FIXUP_FIRST_CHUNK",
]

#: Stages in the first chunk of a kernel-tier fix-up sweep; each later
#: chunk doubles.  Small enough that a sweep converging within a few
#: dozen stages (the common case, §4.2) computes little past its
#: convergence stage, while a sweep that never converges still runs in
#: O(log range) dispatches.
FIXUP_FIRST_CHUNK = 64


@dataclass(eq=False, slots=True)
class StageBlock:
    """Consecutive stages ``start .. stop - 1`` as one 2-D array.

    Row ``r`` of ``rows`` is stage ``start + r``.  With ``widths`` row
    ``r`` counts only its first ``widths[r]`` entries (banded stages
    change width near the band edges; the rest is padding).  Blocks are
    immutable: nothing ever writes into ``rows`` once a block exists,
    so a row handed out stays valid after later applies.
    """

    start: int
    rows: np.ndarray
    widths: np.ndarray | None = None

    @property
    def stop(self) -> int:
        return self.start + len(self.rows)

    def row(self, i: int) -> np.ndarray:
        """Stage ``i``'s row (a view, trimmed to its width)."""
        r = i - self.start
        if self.widths is None:
            return self.rows[r]
        return self.rows[r, : self.widths[r]]

    def sub(self, a: int, b: int) -> "StageBlock":
        """The view of stages ``a .. b - 1``."""
        if a == self.start and b == self.stop:
            return self
        ra, rb = a - self.start, b - self.start
        widths = None if self.widths is None else self.widths[ra:rb]
        return StageBlock(a, self.rows[ra:rb], widths)

    def items(self):
        """``(stage, row)`` pairs in stage order."""
        for i in range(self.start, self.stop):
            yield i, self.row(i)

    @classmethod
    def stack(cls, start: int, rows: list, dtype) -> "StageBlock":
        """One block from per-stage rows (padded when widths differ)."""
        widths = np.array([len(r) for r in rows], dtype=np.int64)
        W = int(widths.max())
        if widths.min() == W:
            return cls(start, np.array(rows, dtype=dtype))
        out = np.zeros((len(rows), W), dtype=dtype)
        for r, row in enumerate(rows):
            out[r, : len(row)] = row
        return cls(start, out, widths)


class StageStore(Protocol):
    """What a spec may read while executing: its processor's resident state."""

    def get_s(self, i: int) -> np.ndarray:
        """Stored stage vector ``s_i`` (as of the last barrier)."""
        ...

    def s_blocks(self, a: int, b: int) -> list[StageBlock]:
        """Stored stage vectors of stages ``a .. b - 1`` as block views,
        in stage order (one per resident segment they span)."""
        ...

    def pred_blocks(self, a: int, b: int) -> list[StageBlock]:
        """Stored predecessors of stages ``a .. b - 1``, like :meth:`s_blocks`."""
        ...

    def get_path(self, i: int) -> int:
        """Stored backward-path entry at stage ``i`` (as of the last barrier)."""
        ...

    def path_slice(self, a: int, b: int) -> np.ndarray:
        """Stored backward-path entries of stages ``a .. b - 1`` (int64)."""
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

    ``s_blocks`` / ``pred_blocks`` are the stage-resident writes, one
    :class:`StageBlock` per contiguous run: a runtime with
    worker-resident state applies them *in the worker* and strips them
    before replying, so only ``boundary`` (one stage-width vector) and
    the scalar fields cross the wire per superstep — the paper's
    O(boundary) communication model.  ``path_segment`` is the backward
    phase's output (integers, i.e. the answer itself) and is always
    returned to the driver.
    """

    proc: int
    work: float = 0.0
    s_blocks: list[StageBlock] = field(default_factory=list)
    pred_blocks: list[StageBlock] = field(default_factory=list)
    #: ``(first stage, int64 entries)``: the path entries this backward
    #: spec wrote, stages ``first .. first + len - 1``.
    path_segment: tuple[int, np.ndarray] | None = None
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

    def stripped(self) -> "SpecResult":
        """Copy with the stage-resident payloads removed (pool wire format)."""
        return replace(self, s_blocks=[], pred_blocks=[], fixup_state_updates={}, fixup_input=None)

    def s_rows(self) -> dict[int, np.ndarray]:
        """The stage vectors written, by stage."""
        return {i: row for block in self.s_blocks for i, row in block.items()}

    def pred_rows(self) -> dict[int, np.ndarray]:
        """The predecessor vectors written, by stage."""
        return {i: row for block in self.pred_blocks for i, row in block.items()}


def _accumulate(total: float, costs) -> float:
    """``total + costs[0] + costs[1] + …`` added left to right, exactly
    the per-stage loop's float summation order."""
    if not len(costs):
        return total
    acc = np.empty(len(costs) + 1, dtype=np.float64)
    acc[0] = total
    acc[1:] = costs
    return float(np.cumsum(acc)[-1])


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
    """Fig 4 lines 6-11: sweep the range from ``s_lo`` (proc 1) or ``nz``.

    Processor 1 starts from the stored ``s_lo``: ``s_0`` in a solve
    (every store holds it), any exact stored vector when the in-process
    answer re-sweeps a suffix.  ``seed`` is the processor's spawned
    :class:`numpy.random.SeedSequence` child; the same child produces
    the same ``nz`` vector on every runtime, which is what keeps runs
    reproducible across executors.
    """

    seed: np.random.SeedSequence | None = None
    nz_low: float = -10.0
    nz_high: float = 10.0
    nz_integer: bool = True
    #: Cache each stage's kernel evaluation state for later sparse
    #: fix-up (set when the problem has a sparse kernel and delta mode
    #: is on).  Only the per-stage loop captures; a kernel-tier sweep
    #: stores no state, and the fix-up recomputes such stages densely
    #: with capture.  Never changes the computed vectors.
    capture_state: bool = False
    #: Dispatch the whole range through the raw-speed kernel tier when a
    #: registered kernel accepts it (bit-identical by gate; see
    #: :mod:`repro.kernels`).  Falls back to the dense loop on ``None``.
    use_kernels: bool = False

    def execute(self, problem: LTDPProblem, store: StageStore) -> SpecResult:
        if self.proc == 1:
            v = store.get_s(self.lo)
        else:
            rng = np.random.default_rng(self.seed)
            v = random_nonzero_vector(
                problem.stage_width(self.lo),
                rng,
                low=self.nz_low,
                high=self.nz_high,
                integer=self.nz_integer,
            )
        if self.use_kernels:
            from repro.kernels import block_sweep

            sweep = block_sweep(problem, self.lo, self.hi, v)
            if sweep is not None:
                if sweep.zero_index is not None:
                    raise ZeroVectorError(
                        f"stage {self.lo + 1 + sweep.zero_index} produced an "
                        "all--inf vector in the forward pass"
                    )
                start = self.lo + 1
                return SpecResult(
                    proc=self.proc,
                    work=_accumulate(0.0, sweep.costs),
                    s_blocks=[StageBlock(start, sweep.values, sweep.widths)],
                    pred_blocks=[StageBlock(start, sweep.preds, sweep.widths)],
                    boundary=sweep.value(len(sweep) - 1),
                )
        out_s: list[np.ndarray] = []
        out_pred: list[np.ndarray] = []
        out_states: dict[int, object] = {}
        work = 0.0
        for i in self.stages():
            if self.capture_state:
                v, p, st = problem.apply_stage_with_state(i, v)
                out_states[i] = st
            else:
                v, p = problem.apply_stage_with_pred(i, v)
            if is_zero_vector(v):
                raise ZeroVectorError(
                    f"stage {i} produced an all--inf vector in the forward pass"
                )
            out_s.append(v)
            out_pred.append(p)
            work += problem.stage_cost(i)
        return SpecResult(
            proc=self.proc,
            work=work,
            s_blocks=[StageBlock.stack(self.lo + 1, out_s, np.float64)],
            pred_blocks=[StageBlock.stack(self.lo + 1, out_pred, np.int64)],
            boundary=out_s[-1],
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

    With ``use_kernels`` the range is swept in growing block-kernel
    chunks that stop at the first chunk holding a converged stage; the
    per-stage loop is the fallback when a kernel declines a chunk.  A
    block sweep is dense and leaves the resident §4.7 state alone.  On
    the per-stage loop, in delta mode (``use_delta``), problems with a
    sparse kernel (``sparse``) propagate only the changed positions
    through each resident stage via
    :meth:`~repro.ltdp.problem.LTDPProblem.apply_stage_sparse`, falling
    back to the dense kernel past the ``crossover`` changed fraction and
    recomputing densely, with capture, any stage with no resident state.
    A resident state a block sweep has since superseded is still one
    complete evaluation of its stage, so repairing against it stays
    exact.  Sparse-kernel problems charge the cells actually computed on
    either path (full stages on a block sweep); delta-mode sweeps of
    problems without a sparse kernel charge the modeled §4.7 cost
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
    #: Dispatch through the raw-speed kernel tier first.  A block sweep
    #: is dense: it neither reads nor writes the resident §4.7 state.
    use_kernels: bool = False

    def is_converged(self, new: np.ndarray, stored: np.ndarray) -> bool:
        """The fix-up convergence predicate (§4.2 rank convergence)."""
        return are_parallel(new, stored, tol=self.tol)

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
        new_s: list[np.ndarray] = []
        new_pred: list[np.ndarray] = []
        new_states: dict[int, object] = {}
        work = 0.0
        converged = False
        for i in self.stages():
            sparse_cells: float | None = None
            if self.sparse:
                res = problem.apply_stage_sparse(
                    i, v, store.get_fixup_state(i), self.crossover
                )
                if res is not None:
                    v, p, st, sparse_cells = res
                    new_states[i] = st
            if sparse_cells is None:
                if self.sparse:
                    # No cache yet, or past crossover: dense recompute
                    # with state capture so the next round can go sparse.
                    v, p, st = problem.apply_stage_with_state(i, v)
                    new_states[i] = st
                else:
                    v, p = problem.apply_stage_with_pred(i, v)
            if is_zero_vector(v):
                raise ZeroVectorError(
                    f"stage {i} produced an all--inf vector in fix-up"
                )
            new_pred.append(p)
            old = store.get_s(i)
            if sparse_cells is not None:
                work += sparse_cells
            elif self.use_delta and not self.sparse:
                work += delta_fixup_work(old, v)
            else:
                work += problem.stage_cost(i)
            if self.is_converged(v, old):
                converged = True
                break
            new_s.append(v)
        start = self.lo + 1
        s_blocks = [StageBlock.stack(start, new_s, np.float64)] if new_s else []
        pred_blocks = [StageBlock.stack(start, new_pred, np.int64)]
        return self._result(
            store, in_boundary, s_blocks, pred_blocks, new_states,
            work, len(new_pred), converged,
        )

    def _execute_block(self, problem, store, v) -> SpecResult | None:
        """Kernel-tier sweep in growing chunks that stops at convergence.

        The first chunk covers :data:`FIXUP_FIRST_CHUNK` stages and each
        later one twice the previous, each continuing from the last row
        of the one before (a chunk that would leave a single stage takes
        it too: a lone range-final selector stage is one no kernel
        accepts).  Each chunk is one gated :func:`block_sweep`, and the
        sweep ends with the first chunk that holds a converged row, so
        wall-clock follows ``stages_done`` (paper Fig 4) instead of the
        whole range.  The stop test compares the chunk's rows with the
        stored blocks of the same stages, array against array.
        Zero/convergence/work bookkeeping matches :meth:`_execute_stages`
        row for row, in stage order.  ``None`` when a kernel declines any
        chunk: the caller then re-runs the whole range on the dense path.
        """
        from repro.kernels import block_sweep

        s_blocks: list[StageBlock] = []
        pred_blocks: list[StageBlock] = []
        work = 0.0
        stages_done = 0
        converged = False
        charge_delta = self.use_delta and not self.sparse
        lo, x, size = self.lo, v, FIXUP_FIRST_CHUNK
        while lo < self.hi and not converged:
            hi = min(lo + size, self.hi)
            if self.hi - hi == 1:
                hi = self.hi
            sweep = block_sweep(problem, lo, hi, x)
            if sweep is None:
                return None
            stop = self._first_converged(store, lo, sweep)
            if sweep.zero_index is not None and (stop is None or sweep.zero_index <= stop):
                raise ZeroVectorError(
                    f"stage {lo + 1 + sweep.zero_index} produced an all--inf "
                    "vector in fix-up"
                )
            rows = hi - lo if stop is None else stop + 1
            end = lo + 1 + rows
            new = StageBlock(lo + 1, sweep.values, sweep.widths).sub(lo + 1, end)
            pred_blocks.append(StageBlock(lo + 1, sweep.preds, sweep.widths).sub(lo + 1, end))
            if stop is None:
                s_blocks.append(new)
            elif stop:
                s_blocks.append(new.sub(lo + 1, end - 1))  # not the converged row
            if charge_delta:
                for i, nv in new.items():
                    work += delta_fixup_work(store.get_s(i), nv)
            else:
                # Cells the kernel actually computed: a block sweep is
                # dense even in sparse mode.
                work = _accumulate(work, sweep.costs[:rows])
            stages_done += rows
            converged = stop is not None
            lo, x, size = hi, sweep.value(len(sweep) - 1), 2 * size
        return self._result(
            store, v, s_blocks, pred_blocks, {}, work, stages_done, converged
        )

    def _first_converged(self, store, lo, sweep) -> int | None:
        """First row of ``sweep`` (stages ``lo + 1 ..``) parallel to the
        stored vector of its stage, or ``None``."""
        for old in store.s_blocks(lo + 1, lo + 1 + len(sweep)):
            a, b = old.start - lo - 1, old.stop - lo - 1
            widths = old.widths if sweep.widths is None else sweep.widths[a:b]
            hit = first_parallel_row(sweep.values[a:b], old.rows, self.tol, widths)
            if hit is not None:
                return a + hit
        return None

    def _result(
        self, store, in_boundary, s_blocks, pred_blocks, new_states,
        work, stages_done, converged,
    ) -> SpecResult:
        # On early convergence the stored suffix (including the range
        # final) is untouched, so the advertised boundary is the stored
        # one; otherwise the sweep rewrote through the end of the range.
        if s_blocks and s_blocks[-1].stop == self.hi + 1:
            boundary = s_blocks[-1].row(self.hi)
        else:
            boundary = store.get_s(self.hi)
        return SpecResult(
            proc=self.proc,
            work=work,
            s_blocks=s_blocks,
            pred_blocks=pred_blocks,
            stages_done=stages_done,
            converged=converged,
            boundary=boundary,
            fixup_state_updates=new_states,
            fixup_input=(self.lo, in_boundary) if self.use_delta else None,
        )


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


def _trace(store: StageStore, lo: int, hi: int, x: int, ref=None) -> tuple[np.ndarray, int | None]:
    """Fig 5 walk over stages ``hi .. lo + 1`` from index ``x``.

    Returns ``(out, stop)``: ``out[r]`` is the path entry of stage
    ``lo + r`` (``x = pred_{lo+1+r}[x]``), and with ``ref`` (the stored
    entries of the same stages) the walk ends at the first ``r``, from
    the top, with ``out[r] == ref[r]`` (``stop = r``; ``None`` when it
    never does).  Each resident predecessor segment is walked by one
    compiled :func:`~repro.kernels.backend.traceback` call.
    """
    from repro.kernels.backend import traceback

    out = np.empty(hi - lo, dtype=np.int64)
    for block in reversed(store.pred_blocks(lo + 1, hi + 1)):
        a, b = block.start - lo - 1, block.stop - lo - 1
        stop = traceback(block.rows, x, out[a:b], None if ref is None else ref[a:b])
        if stop is not None:
            return out, a + stop
        x = int(out[a])
    return out, None


@dataclass(frozen=True)
class BackwardInitSpec(SuperstepSpec):
    """Fig 5 initial traversal: follow predecessors right-to-left.

    ``start_index`` is 0 for interior processors (Fig 5 line 8's
    assumption) and the objective cell for the last processor.
    """

    start_index: int = 0

    def execute(self, problem: LTDPProblem, store: StageStore) -> SpecResult:
        out, _ = _trace(store, self.lo, self.hi, self.start_index)
        return SpecResult(
            proc=self.proc,
            work=float(self.hi - self.lo),
            path_segment=(self.lo, out),
        )


@dataclass(frozen=True)
class BackwardFixupSpec(SuperstepSpec):
    """Fig 5 fix-up: re-traverse from the right neighbour's corrected index.

    Convergence predicate: the traversal agrees with the stored path
    entry (Lemma 5 — guaranteed once the backward partial products
    reach rank 1).  The agreeing entry itself is not rewritten.
    """

    boundary_index: int = 0

    def execute(self, problem: LTDPProblem, store: StageStore) -> SpecResult:
        ref = store.path_slice(self.lo, self.hi)
        out, stop = _trace(store, self.lo, self.hi, self.boundary_index, ref)
        first = 0 if stop is None else stop + 1
        return SpecResult(
            proc=self.proc,
            work=float(len(out) - first + (stop is not None)),
            path_segment=(self.lo + first, out[first:]),
            converged=stop is not None,
        )
