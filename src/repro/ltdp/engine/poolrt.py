"""State-resident runtime over the persistent worker pool.

:class:`PoolRuntime` maps each virtual processor (slot) onto one of the
:class:`~repro.machine.pool.PoolProcessExecutor`'s persistent workers
and keeps that slot's stage vectors, predecessor vectors and backward
path segment **inside the worker**
(:class:`~repro.ltdp.engine.store.WorkerStore`) for the whole solve:

- ``begin`` (constructor) pickles the problem **once** and posts it
  to every worker (:meth:`~repro.machine.pool.PoolProcessExecutor.post`:
  sent, not awaited — the first superstep dispatch queues behind it in
  each worker's pipe and discards its reply as stale);
- each superstep ships only sequence-numbered instructions (a spec —
  a boundary vector + scalars — per processor) and receives *stripped*
  results — the O(width) range-final vector and scalar accounting,
  never the per-stage payloads.  That is exactly the paper's cost
  model: per fix-up iteration, one boundary vector per neighbour pair
  crosses a process boundary, nothing else;
- each superstep is **one batched** ``call_slots`` dispatch: one
  message per involved worker, one round trip per barrier;
- the wire protocol is **idempotent per instruction**: workers cache
  each instruction's stripped reply by seq, so a re-delivered
  instruction (a re-sent batch, a post-recovery re-send) returns the
  cached reply without re-executing — numpywren's ``FailureTests``
  contract at the transport layer;
- when the backward partition differs from the forward one (objective
  problems whose optimum lies before the last stage), a one-time
  driver-mediated redistribution moves the few predecessor vectors a
  slot is missing;
- the ``keep_stage_vectors`` gather pulls the resident stage arrays out
  at the end, off the hot path.

Sessions: each runtime owns a **session key** and all of its worker-side
state lives under ``ns["sessions"][key]``, so runtimes sharing one pool
cannot trample each other's resident state.  ``finish()`` posts the
session drop to the workers, again without waiting.  A session missing
from a worker (its posted install failed) fails the superstep that
needs it with an error naming the session.

Crash recovery is "re-run a program suffix": the shared
:class:`~repro.ltdp.engine.program.InstructionProgram` *is* the replay
journal — rebuilding a respawned worker re-installs the problem and
replays the recorded instructions of the slots it owns, merged across
slots in program-seq order.

The functions prefixed ``_w_`` execute *inside* workers against the
worker's persistent namespace; they are module-level so they pickle by
reference.
"""

from __future__ import annotations

import itertools
import pickle
import time
from typing import Sequence

import numpy as np

from repro.exceptions import ExecutorError
from repro.ltdp.engine.program import Instruction, InstructionProgram
from repro.ltdp.engine.runtime import SuperstepRuntime
from repro.ltdp.engine.specs import SpecResult, StageBlock, SuperstepSpec
from repro.ltdp.engine.store import WorkerStore
from repro.ltdp.partition import StageRange
from repro.ltdp.problem import LTDPProblem
from repro.machine.trace import NULL_TRACER, Tracer

__all__ = ["PoolRuntime"]


# ----------------------------------------------------------------------
# Worker-side namespace functions (run via PoolProcessExecutor.call_slots
# / post; ``ns`` is the worker's persistent namespace dict, and the
# per-session state lives under ``ns["sessions"][key]``).
# ----------------------------------------------------------------------


def _w_reset(ns, key: str, problem_blob: bytes, slots: list[int]) -> None:
    """Install the session: its problem (shipped once) and fresh slot states."""
    problem = pickle.loads(problem_blob)
    ns.setdefault("sessions", {})[key] = {
        "problem": problem,
        "states": {slot: WorkerStore(problem) for slot in slots},
    }
    _warm_kernel_plans(problem)


def _warm_kernel_plans(problem) -> None:
    """Pre-build this worker's block-kernel plans at problem-bind time.

    Plans are cached per process by content fingerprint, so warming at
    bind keeps the first superstep dispatch off the plan-build path.
    Best-effort by design: the tier is an optimization, and a plan
    failure here must never break a worker install — the per-dispatch
    gate falls back to the dense path regardless.
    """
    try:
        from repro.kernels import warm_kernels

        warm_kernels(problem)
    except Exception:  # repro: noqa[REP005]: plan warming is a best-effort optimization; any plan-build failure must leave the worker install intact (dense path still correct)
        pass


def _w_drop(ns, key: str) -> None:
    """Forget the session entirely (runtime finish / session eviction)."""
    ns.get("sessions", {}).pop(key, None)


def _w_run_instr(ns, key: str, seq: int, spec: SuperstepSpec) -> SpecResult:
    """Execute one instruction against the slot's resident store.

    Idempotent under repeat delivery: the stripped reply of every
    executed instruction is cached by seq, and a re-delivery (a re-sent
    batch, or a post-recovery re-send of a request the worker already
    served) returns the cache without touching resident state.  During crash-recovery replay the same function re-runs the
    recorded program suffix — replies are discarded by the replay
    batch, and re-populating the cache is exactly what a rebuilt worker
    needs to keep honouring the contract.

    Stage-resident writes are applied here, in the worker (at most once
    per seq, via the store's seq guard); the reply is stripped down to
    boundary vector + scalars (+ path indices, which are the backward
    phase's output).
    """
    sess = ns.get("sessions", {}).get(key)
    if sess is None:
        raise LookupError(
            f"pool session {key!r} is not installed on this worker "
            "(its problem install failed or it was already dropped)"
        )
    store = sess["states"][spec.proc]
    cached = store.results.get(seq)
    if cached is not None:
        return cached
    result = spec.execute(sess["problem"], store)
    store.apply(result, seq=seq)
    stripped = result.stripped()
    store.results[seq] = stripped
    return stripped


def _w_collect(ns, key: str, slot: int, kind: str, a: int, b: int) -> list[StageBlock]:
    """Ship the slot's resident ``s`` / ``pred`` blocks of stages
    ``a .. b - 1`` back to the driver (views; pickling copies only them)."""
    store = ns["sessions"][key]["states"][slot]
    return (store.s if kind == "s" else store.pred).blocks(a, b)


def _w_install_pred(ns, key: str, slot: int, blocks: list[StageBlock]) -> None:
    """Adopt redistributed predecessor blocks into a slot's store."""
    pred = ns["sessions"][key]["states"][slot].pred
    for block in blocks:
        pred.put(block)


# ----------------------------------------------------------------------


class PoolRuntime(SuperstepRuntime):
    """Plan executor backed by persistent, state-resident pool workers.

    A whole superstep ships as one batched dispatch per barrier — one
    round trip per superstep on the wire.
    """

    _key_counter = itertools.count(1)

    def __init__(
        self,
        pool,
        problem: LTDPProblem,
        ranges: Sequence[StageRange],
        tracer: Tracer | None = None,
    ) -> None:
        self.pool = pool
        self.problem = problem
        self.num_stages = problem.num_stages
        self.forward_ranges = list(ranges)
        self.tracer = tracer or NULL_TRACER
        self.program = InstructionProgram()
        self.session_key = f"solve-{next(self._key_counter)}"
        self._finished = False
        # The pool emits per-worker dispatch spans and recovery events
        # into the same tracer; cleared again in finish() so later
        # untraced solves on a shared pool stay untraced.  A disabled
        # tracer keeps the pool on its untraced send path.
        pool.set_tracer(self.tracer)
        self._problem_blob = blob = self._pickle_problem(problem)
        # Every worker learns every slot id; a slot's state only ever
        # fills on its owning worker, the rest stay empty placeholders.
        slots = [rg.proc for rg in self.forward_ranges]
        self._slots = slots
        # Hook before posting: a worker that dies on the install is
        # rebuilt (session included) by the next dispatch's recovery.
        self.pool.add_rebuild_hook(self, self._rebuild_worker)
        self.pool.post(_w_reset, (self.session_key, blob, slots))

    @staticmethod
    def _pickle_problem(problem: LTDPProblem) -> bytes:
        try:
            return pickle.dumps(problem, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise ExecutorError(
                "the pool runtime ships the problem to persistent workers "
                f"once per solve, but this problem is not picklable: {exc!r}"
            ) from exc

    @property
    def step_no(self) -> int:
        return self.program.step_no

    def _rebuild_worker(self, w: int) -> tuple[list, int]:
        """Recovery program for respawned worker ``w`` (pool rebuild hook).

        Returns ``(calls, replayed)``: namespace calls that re-install
        the session and re-run the **recorded** instruction suffix of
        every slot worker ``w`` owns (the paper's Fig 4 restartability:
        any processor can be re-run from its predecessor's boundary
        vector), in program-seq order, plus the replayed-instruction
        count.  Compiled-but-unrecorded instructions are excluded: the
        in-flight request re-sends after recovery and must not have
        replayed ahead of itself.
        """
        instrs: list[Instruction] = []
        for slot in self._slots:
            if self.pool.worker_of_slot(slot) != w:
                continue
            for instr in self.program.slot_history(slot):
                if self.program.is_recorded(instr.seq):
                    instrs.append(instr)
        instrs.sort(key=lambda ins: ins.seq)
        key = self.session_key
        calls: list[tuple] = [(_w_reset, (key, self._problem_blob, self._slots))]
        replayed = 0
        for instr in instrs:
            if instr.op == "spec":
                calls.append((_w_run_instr, (key, instr.seq, instr.spec)))
                replayed += 1
            else:  # pred-install: redistributed predecessor vectors
                calls.append((_w_install_pred, (key, instr.slot, instr.payload)))
        return calls, replayed

    def run(
        self, specs: Sequence[SuperstepSpec], label: str = ""
    ) -> list[SpecResult]:
        tracer = self.tracer
        step_no, instrs = self.program.add_superstep(specs)
        t0 = time.perf_counter()
        # The context tags the pool's per-worker dispatch spans with
        # this superstep's identity.
        with tracer.context(superstep=step_no, label=label):
            key = self.session_key
            results = self.pool.call_slots(
                [(i.slot, _w_run_instr, (key, i.seq, i.spec)) for i in instrs]
            )
        # Record only after the barrier: an in-flight instruction must
        # not be part of the replay that precedes its own re-send.
        for instr in instrs:
            self.program.record(instr.seq)
        tracer.add_span(
            "superstep",
            t0,
            time.perf_counter(),
            superstep=step_no,
            label=label,
            procs=len(specs),
        )
        return results

    def install_path(self, path: np.ndarray) -> None:
        # The driver owns the path array; workers keep their own segment
        # resident (written by their backward specs), so nothing to do.
        pass

    def prepare_backward(
        self,
        backward_ranges: Sequence[StageRange],
        forward_ranges: Sequence[StageRange],
    ) -> None:
        """One-time pred redistribution for a repartitioned backward phase.

        Worker slot ``p`` holds predecessors for its *forward* range; if
        its backward range covers other stages, fetch them from their
        forward owners and install them — driver-mediated, once, before
        the backward supersteps start.
        """
        own = {rg.proc: rg for rg in forward_ranges}
        # Per backward slot, the stage runs outside its forward range
        # (at most one below and one above it), split by forward owner.
        fetch: list[tuple[int, int, int, int]] = []  # (slot, owner, a, b)
        for rg in backward_ranges:
            mine = own.get(rg.proc)
            gaps = [(rg.lo + 1, rg.hi + 1)] if mine is None else [
                (rg.lo + 1, min(rg.hi, mine.lo) + 1),
                (max(rg.lo, mine.hi) + 1, rg.hi + 1),
            ]
            for a, b in gaps:
                for fr in forward_ranges:
                    lo, hi = max(a, fr.lo + 1), min(b, fr.hi + 1)
                    if lo < hi:
                        fetch.append((rg.proc, fr.proc, lo, hi))
        if not fetch:
            return  # every backward range lies inside its slot's forward range
        key = self.session_key
        # Gather each missing run from its forward owner...
        gathered = self.pool.call_slots(
            [
                (owner, _w_collect, (key, owner, "pred", a, b))
                for _, owner, a, b in fetch
            ]
        )
        installs: dict[int, list[StageBlock]] = {}
        for (slot, _, _, _), blocks in zip(fetch, gathered):
            installs.setdefault(slot, []).extend(blocks)
        # ...and install it on the slot whose backward range needs it.
        self.pool.call_slots(
            [
                (slot, _w_install_pred, (key, slot, blocks))
                for slot, blocks in installs.items()
            ]
        )
        # Journal the installs (driver-mediated, already barriered):
        # recorded immediately so crash recovery replays them in slot
        # order between the forward and backward instruction suffixes.
        for slot, blocks in installs.items():
            instr = self.program.add_install(slot, blocks)
            self.program.record(instr.seq)

    def stage_vectors(self) -> list[np.ndarray | None]:
        out: list[np.ndarray | None] = [None] * (self.num_stages + 1)
        out[0] = self.problem.initial_vector()
        key = self.session_key
        for blocks in self.pool.call_slots(
            [
                (rg.proc, _w_collect, (key, rg.proc, "s", rg.lo + 1, rg.hi + 1))
                for rg in self.forward_ranges
            ]
        ):
            for block in blocks:
                for i, row in block.items():
                    out[i] = row
        return out

    def finish(self) -> None:
        # The program journal belongs to this runtime; a stale hook
        # would replay the wrong state into a worker respawned during a
        # later solve.  Idempotent.
        if self._finished:
            return
        self._finished = True
        # Unhook before dropping: a worker respawn triggered after the
        # drop must not replay the session it is dropping.
        self.pool.remove_rebuild_hook(self)
        self.pool.set_tracer(None)
        try:
            self.pool.post(_w_drop, (self.session_key,))
        except ExecutorError:
            # Closed or broken pool: the workers (and their sessions)
            # are gone anyway.
            pass
