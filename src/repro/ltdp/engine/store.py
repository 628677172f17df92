"""The state-store layer: who *owns* stage state, behind one interface.

Both runtimes hold stage state behind :class:`StateStore` — the
:class:`~repro.ltdp.engine.specs.StageStore` read protocol plus
idempotent post-barrier application — so the program layer and the
specs can treat "where the vectors live" as a deployment detail:

- :class:`DriverStore` — all stages in the driver process, shared by
  every spec (safe because specs only read their own range and all
  writes are buffered in :class:`~repro.ltdp.engine.specs.SpecResult`
  objects applied after the barrier);
- :class:`WorkerStore` — one slot's stages resident inside a pool
  worker, plus the per-instruction result cache that makes repeat
  delivery of an instruction a worker-side no-op.

Both hold stage vectors and predecessors as immutable 2-D segments
(:class:`Segments` of :class:`~repro.ltdp.engine.specs.StageBlock`):
``apply`` adopts each result block whole, a later segment shadows the
rows it covers, and reads return row views of the newest segment.  Nothing is written in place, so a row handed out —
as a neighbour's boundary or as a delta-mode ``fixup_input`` — never
changes afterwards.  Specs read whole runs of stages with
``s_blocks`` / ``pred_blocks`` (the fix-up stop test and the compiled
traceback work on those arrays directly).

Idempotency contract (numpywren's ``FailureTests``): ``apply`` tagged
with an instruction sequence number applies **at most once** per seq —
a re-delivered instruction's second application is dropped, so
duplicate delivery can never double-install an update.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.ltdp.engine.specs import SpecResult, StageBlock
from repro.ltdp.problem import LTDPProblem

__all__ = ["StateStore", "DriverStore", "WorkerStore", "Segments"]


class Segments:
    """Stage rows held as non-overlapping :class:`StageBlock` segments.

    :meth:`put` adopts a block whole; older segments keep only the
    stages it does not cover (as views — no row is copied or written),
    so a later segment shadows the rows it covers and every row handed
    out earlier stays unchanged.
    """

    __slots__ = ("_starts", "_blocks")

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._blocks: list[StageBlock] = []

    def put(self, block: StageBlock) -> None:
        a, b = block.start, block.stop
        if a >= b:
            return
        kept: list[StageBlock] = []
        for seg in self._blocks:
            if seg.stop <= a or seg.start >= b:
                kept.append(seg)
                continue
            if seg.start < a:
                kept.append(seg.sub(seg.start, a))
            if seg.stop > b:
                kept.append(seg.sub(b, seg.stop))
        kept.append(block)
        kept.sort(key=lambda seg: seg.start)
        self._blocks = kept
        self._starts = [seg.start for seg in kept]

    def _find(self, i: int) -> StageBlock | None:
        k = bisect_right(self._starts, i) - 1
        if k >= 0 and i < self._blocks[k].stop:
            return self._blocks[k]
        return None

    def __contains__(self, i: int) -> bool:
        return self._find(i) is not None

    def get(self, i: int) -> np.ndarray:
        seg = self._find(i)
        if seg is None:
            raise KeyError(i)
        return seg.row(i)

    def blocks(self, a: int, b: int) -> list[StageBlock]:
        """Views covering stages ``a .. b - 1`` in stage order
        (``KeyError`` naming the first stage not held)."""
        out: list[StageBlock] = []
        nxt = a
        for seg in self._blocks[max(0, bisect_right(self._starts, a) - 1) :]:
            if seg.start >= b:
                break
            if seg.stop <= nxt:
                continue
            if seg.start > nxt:
                break
            out.append(seg.sub(nxt, min(b, seg.stop)))
            nxt = out[-1].stop
        if nxt < b:
            raise KeyError(nxt)
        return out

    def held(self) -> list[StageBlock]:
        """Every segment, in stage order."""
        return list(self._blocks)


class StateStore:
    """Stage-state ownership: :class:`StageStore` reads + idempotent writes.

    Stage vectors and predecessors live in :class:`Segments` (``s`` /
    ``pred``) in both subclasses; the subclasses differ in what else
    they own (the driver's path array vs a worker's path segment and
    reply cache).  This base owns the seq-idempotency guard and the
    block reads.
    """

    def __init__(self, problem: LTDPProblem) -> None:
        self.problem = problem
        #: Instruction seqs whose results were already applied here.
        self._applied_seqs: set[int] = set()
        self.s = Segments()
        self.s.put(StageBlock(0, problem.initial_vector()[None, :]))
        self.pred = Segments()
        #: Resident §4.7 delta state: stage → cached kernel evaluation.
        self.fixup_state: dict[int, object] = {}
        #: Range-lo → input boundary last consumed by a fix-up sweep
        #: there (the base vector boundary diffs apply against).
        self.fixup_input: dict[int, np.ndarray] = {}

    def apply(self, result: SpecResult, seq: int | None = None) -> None:
        """Install a spec's stage-resident writes, at most once per ``seq``.

        ``seq=None`` (the in-process answer's in-line specs) always
        applies: nothing there is ever delivered twice.
        """
        if seq is not None:
            if seq in self._applied_seqs:
                return
            self._applied_seqs.add(seq)
        for block in result.s_blocks:
            self.s.put(block)
        for block in result.pred_blocks:
            self.pred.put(block)
        if result.fixup_state_updates:
            self.fixup_state.update(result.fixup_state_updates)
        if result.fixup_input is not None:
            lo, vec = result.fixup_input
            self.fixup_input[lo] = vec
        self._apply_path(result)

    def _apply_path(self, result: SpecResult) -> None:
        raise NotImplementedError

    # -- StageStore protocol -------------------------------------------
    def get_s(self, i: int) -> np.ndarray:
        return self.s.get(i)

    def s_blocks(self, a: int, b: int) -> list[StageBlock]:
        return self.s.blocks(a, b)

    def pred_blocks(self, a: int, b: int) -> list[StageBlock]:
        return self.pred.blocks(a, b)

    def get_fixup_state(self, i: int):
        return self.fixup_state.get(i)

    def get_fixup_input(self, lo: int) -> np.ndarray | None:
        return self.fixup_input.get(lo)

    def rows(self, n: int) -> list[np.ndarray | None]:
        """Stage vectors ``0 .. n`` as a list (``None`` where nothing is
        held)."""
        out: list[np.ndarray | None] = [None] * (n + 1)
        for seg in self.s.held():
            for i, row in seg.items():
                out[i] = row
        return out


class DriverStore(StateStore):
    """All-stages store living in the driver process (one per solve).

    The single-address-space incarnation of the paper's distributed
    stores: the stage vectors and predecessors of every stage, plus the
    backward path array once the backward phase begins.  The serial /
    thread runtimes share one instance.
    """

    def __init__(self, problem: LTDPProblem) -> None:
        super().__init__(problem)
        #: The backward path array; installed by the driver when the
        #: backward phase starts (it owns path assembly for all runtimes).
        self.path: np.ndarray | None = None

    def get_path(self, i: int) -> int:
        assert self.path is not None, "backward phase not started"
        return int(self.path[i])

    def path_slice(self, a: int, b: int) -> np.ndarray:
        assert self.path is not None, "backward phase not started"
        return self.path[a:b]

    def _apply_path(self, result: SpecResult) -> None:
        """Path segments are deliberately *not* applied here: the driver
        owns the path array (shared with this store) and applies them
        itself, uniformly for local and pool runtimes."""


class WorkerStore(StateStore):
    """One slot's resident state inside a pool worker.

    Besides the stage blocks, this store owns the slot's backward path
    entries and the worker-side half of the idempotent-instruction
    contract: :attr:`results` caches the stripped reply of every
    instruction executed against this slot, so a re-delivered
    instruction returns the cached reply instead of executing twice
    (see ``_w_run_instr`` in :mod:`repro.ltdp.engine.poolrt`).  The §4.7
    state and fix-up inputs never cross the wire: specs write them via
    SpecResult and :meth:`~repro.ltdp.engine.specs.SpecResult.stripped`
    drops them from the reply.
    """

    def __init__(self, problem: LTDPProblem) -> None:
        super().__init__(problem)
        #: Backward path entries, allocated by the first path segment.
        self.path: np.ndarray | None = None
        #: Instruction seq → stripped reply already produced by this
        #: slot (the duplicate-delivery no-op cache).
        self.results: dict[int, SpecResult] = {}

    def get_path(self, i: int) -> int:
        return int(self.path[i])

    def path_slice(self, a: int, b: int) -> np.ndarray:
        return self.path[a:b]

    def _apply_path(self, result: SpecResult) -> None:
        if result.path_segment is None:
            return
        start, entries = result.path_segment
        if self.path is None:
            self.path = np.zeros(self.problem.num_stages + 1, dtype=np.int64)
        self.path[start : start + len(entries)] = entries
