"""The state-store layer: who *owns* stage state, behind one interface.

Before this layer existed, state ownership was welded to spec
execution: :class:`LocalRuntime` owned a driver-resident ``EngineState``
and the pool runtime owned an unrelated per-slot worker store, each
with its own ``apply`` discipline.  The refactor pulls both behind
:class:`StateStore` — the :class:`~repro.ltdp.engine.specs.StageStore`
read protocol plus idempotent post-barrier application — so the program
and runner layers can treat "where the vectors live" as a deployment
detail:

- :class:`DriverStore` — all stages in the driver process, shared by
  every spec (safe because specs only read their own range and all
  writes are buffered in :class:`~repro.ltdp.engine.specs.SpecResult`
  objects applied after the barrier);
- :class:`WorkerStore` — one slot's stages resident inside a pool
  worker, plus the per-instruction result cache that makes repeat
  delivery of an instruction a worker-side no-op.

Idempotency contract (numpywren's ``FailureTests``): ``apply`` tagged
with an instruction sequence number applies **at most once** per seq —
a re-delivered instruction's second application is dropped, so
duplicate delivery can never double-install an update.
"""

from __future__ import annotations

import numpy as np

from repro.ltdp.engine.specs import SpecResult
from repro.ltdp.problem import LTDPProblem

__all__ = ["StateStore", "DriverStore", "WorkerStore"]


class StateStore:
    """Stage-state ownership: :class:`StageStore` reads + idempotent writes.

    Subclasses supply the storage (driver lists vs per-slot dicts); this
    base owns the seq-idempotency guard shared by both.
    """

    def __init__(self) -> None:
        #: Instruction seqs whose results were already applied here.
        self._applied_seqs: set[int] = set()

    def apply(self, result: SpecResult, seq: int | None = None) -> None:
        """Install a spec's stage-resident writes, at most once per ``seq``.

        ``seq=None`` (legacy superstep-loop path) always applies —
        the classic barrier loop never re-delivers.
        """
        if seq is not None:
            if seq in self._applied_seqs:
                return
            self._applied_seqs.add(seq)
        self._apply(result)

    def _apply(self, result: SpecResult) -> None:
        raise NotImplementedError


class DriverStore(StateStore):
    """All-stages store living in the driver process (one per solve).

    The single-address-space incarnation of the paper's distributed
    stores: one slot per stage for the solution vector and the
    predecessor vector, plus the backward path array once the backward
    phase begins.  The serial / thread runtimes share one instance.
    """

    def __init__(self, problem: LTDPProblem) -> None:
        super().__init__()
        n = problem.num_stages
        self.s: list[np.ndarray | None] = [None] * (n + 1)
        self.s[0] = problem.initial_vector()
        self.pred: list[np.ndarray | None] = [None] * (n + 1)
        #: The backward path array; installed by the driver when the
        #: backward phase starts (it owns path assembly for all runtimes).
        self.path: np.ndarray | None = None
        #: Resident §4.7 delta state: stage → cached kernel evaluation.
        self.fixup_state: dict[int, object] = {}
        #: Range-lo → input boundary last consumed by a fix-up sweep
        #: there (the base vector boundary diffs apply against).
        self.fixup_input: dict[int, np.ndarray] = {}

    # -- StageStore protocol -------------------------------------------
    def get_s(self, i: int) -> np.ndarray:
        v = self.s[i]
        assert v is not None, f"stage {i} vector not yet computed"
        return v

    def get_pred(self, i: int) -> np.ndarray:
        p = self.pred[i]
        assert p is not None, f"stage {i} predecessors not yet computed"
        return p

    def get_path(self, i: int) -> int:
        assert self.path is not None, "backward phase not started"
        return int(self.path[i])

    def get_fixup_state(self, i: int):
        return self.fixup_state.get(i)

    def get_fixup_input(self, lo: int) -> np.ndarray | None:
        return self.fixup_input.get(lo)

    # -- post-barrier application --------------------------------------
    def _apply(self, result: SpecResult) -> None:
        """Install a spec's stage-resident writes.

        Path updates are deliberately *not* applied here: the driver
        owns the path array (shared with this store) and applies them
        itself, uniformly for local and pool runtimes.
        """
        for i, v in result.s_updates.items():
            self.s[i] = v
        for i, p in result.pred_updates.items():
            self.pred[i] = p
        if result.fixup_state_updates:
            self.fixup_state.update(result.fixup_state_updates)
        if result.fixup_input is not None:
            lo, vec = result.fixup_input
            self.fixup_input[lo] = vec


class WorkerStore(StateStore):
    """One slot's resident state inside a pool worker.

    Besides the stage vectors, this store owns the worker-side half of
    the idempotent-instruction contract: :attr:`results` caches the
    stripped reply of every instruction executed against this slot, so
    a re-delivered instruction returns the cached reply instead of
    executing twice (see ``_w_run_instr`` in
    :mod:`repro.ltdp.engine.poolrt`).
    """

    def __init__(self, problem: LTDPProblem) -> None:
        super().__init__()
        self.problem = problem
        self.s: dict[int, np.ndarray] = {}
        self.pred: dict[int, np.ndarray] = {}
        self.path: dict[int, int] = {}
        #: Resident §4.7 delta state (stage → cached kernel evaluation)
        #: and the last fix-up input boundary per range-lo — the bases
        #: sparse fix-up and boundary diffs apply against.  These never
        #: cross the wire: specs write them via SpecResult and
        #: :meth:`~repro.ltdp.engine.specs.SpecResult.stripped` drops
        #: them from the reply.
        self.fixup_state: dict[int, object] = {}
        self.fixup_input: dict[int, np.ndarray] = {}
        #: Instruction seq → stripped reply already produced by this
        #: slot (the duplicate-delivery no-op cache).
        self.results: dict[int, SpecResult] = {}

    # -- StageStore protocol -------------------------------------------
    def get_s(self, i: int) -> np.ndarray:
        if i == 0 and 0 not in self.s:
            self.s[0] = self.problem.initial_vector()
        return self.s[i]

    def get_pred(self, i: int) -> np.ndarray:
        return self.pred[i]

    def get_path(self, i: int) -> int:
        return self.path[i]

    def get_fixup_state(self, i: int):
        return self.fixup_state.get(i)

    def get_fixup_input(self, lo: int) -> np.ndarray | None:
        return self.fixup_input.get(lo)

    def _apply(self, result: SpecResult) -> None:
        self.s.update(result.s_updates)
        self.pred.update(result.pred_updates)
        self.path.update(result.path_updates)
        self.fixup_state.update(result.fixup_state_updates)
        if result.fixup_input is not None:
            lo, vec = result.fixup_input
            self.fixup_input[lo] = vec
