"""The runner layer: N concurrent pullers draining an instruction program.

numpywren's ``job_runner`` pattern: runners do not know about phases or
barriers — they pull whatever instruction the shared
:class:`~repro.machine.workqueue.WorkQueue` says is ready, execute it
through a runtime-supplied callback, record the result on the
:class:`~repro.ltdp.engine.program.InstructionProgram` (first wins),
and mark it done.  The driver still barriers per superstep (planners
need the previous round's boundaries to plan the next), but *within*
a superstep the instructions race freely across runners — and the
layering is what the redelivery suite exploits to prove the idempotency
contract: :class:`DeliveryPolicy` can deliver every instruction twice
and in LIFO order, and results must stay bit-identical.

Why duplicates are safe, in both deployments:

- driver-resident state: duplicate executions read the same
  pre-barrier store (writes are buffered in ``SpecResult`` and applied
  after ``run_step`` returns), so they compute identical results and
  the program keeps exactly one;
- worker-resident state: the worker's per-instruction result cache
  (see ``_w_run_instr``) returns the stored reply without re-executing,
  so resident state is never double-applied.

Teardown ordering: a crew registers its :meth:`RunnerCrew.close` as an
executor teardown hook, so ``Executor.close()`` abandons the queue and
drains the runner threads *before* the transport (thread pool / worker
pool) disappears underneath them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.exceptions import ExecutorError
from repro.ltdp.engine.program import Instruction, InstructionProgram
from repro.machine.trace import NULL_TRACER, Tracer
from repro.machine.workqueue import WorkQueue

__all__ = ["DeliveryPolicy", "RunnerCrew"]


@dataclass(frozen=True)
class DeliveryPolicy:
    """How instructions reach runners — the redelivery fault-injection knob.

    ``duplicates`` enqueues every instruction that many times
    (numpywren's ``FailureTests`` insert repeated instructions into the
    program-counter queue; re-delivery must be harmless).  ``order``
    picks the ready-queue discipline: ``"lifo"`` reverses delivery
    wherever the dependency DAG allows reordering, which a correct
    program must not observe.
    """

    duplicates: int = 1
    order: str = "fifo"

    def __post_init__(self) -> None:
        if self.duplicates < 1:
            raise ValueError(f"duplicates must be >= 1, got {self.duplicates}")

    @property
    def is_default(self) -> bool:
        return self.duplicates == 1 and self.order == "fifo"


class RunnerCrew:
    """N runner threads pulling one program's instructions from one queue.

    ``execute(instruction)`` is the runtime's transport callback — it
    runs the instruction wherever that runtime executes specs (inline,
    a thread executor, a pool worker) and returns the
    :class:`~repro.ltdp.engine.specs.SpecResult`.
    """

    def __init__(
        self,
        num_runners: int,
        execute: Callable[[Instruction], object],
        program: InstructionProgram,
        tracer: Tracer | None = None,
        policy: DeliveryPolicy | None = None,
    ) -> None:
        if num_runners < 1:
            raise ValueError(f"num_runners must be >= 1, got {num_runners}")
        self.policy = policy or DeliveryPolicy()
        self.program = program
        self.tracer = tracer or NULL_TRACER
        self._execute = execute
        self.queue = WorkQueue(order=self.policy.order)
        self._cond = threading.Condition()
        #: seq → deliveries enqueued but not yet fully processed.
        self._pending: dict[int, int] = {}  # guarded-by: self._cond
        self._errors: dict[int, BaseException] = {}  # guarded-by: self._cond
        self._closed = False  # guarded-by: self._cond
        self._threads = [
            threading.Thread(
                target=self._runner_loop,
                args=(rid,),
                name=f"ltdp-runner-{rid}",
                daemon=True,
            )
            for rid in range(num_runners)
        ]
        for t in self._threads:
            t.start()

    @property
    def num_runners(self) -> int:
        return len(self._threads)

    # -- runner side ----------------------------------------------------
    def _runner_loop(self, rid: int) -> None:
        while True:
            t0 = time.perf_counter()
            pulled = self.queue.pull()
            if pulled is None:  # abandoned: the crew is shutting down
                return
            seq, instr = pulled
            tracer = self.tracer
            tracer.add_span(
                "runner.pull",
                t0,
                time.perf_counter(),
                runner=rid,
                seq=seq,
                step=instr.step,
                label=instr.label,
            )
            try:
                if self.program.is_recorded(seq):
                    # Re-delivery of an applied instruction: a no-op.
                    tracer.event(
                        "instr-duplicate", runner=rid, seq=seq, label=instr.label
                    )
                else:
                    c0 = time.perf_counter()
                    result = self._execute(instr)
                    first = self.program.record_result(seq, result)
                    tracer.add_span(
                        "program.instr",
                        c0,
                        time.perf_counter(),
                        runner=rid,
                        seq=seq,
                        step=instr.step,
                        slot=instr.slot,
                        label=instr.label,
                        duplicate=not first,
                    )
            except BaseException as exc:  # repro: noqa[REP005]: a runner thread must survive any instruction failure and surface it through run_step, not die silently
                with self._cond:
                    self._errors.setdefault(seq, exc)
            finally:
                self.queue.mark_done(seq)
                with self._cond:
                    self._pending[seq] = self._pending.get(seq, 1) - 1
                    self._cond.notify_all()

    # -- driver side ----------------------------------------------------
    def run_step(self, instrs: Sequence[Instruction]) -> list:
        """Enqueue one superstep's instructions; block until all drain.

        Every instruction is delivered ``policy.duplicates`` times; the
        call returns only when *every* delivery has been processed, so
        no straggling duplicate can still be executing when the runtime
        applies results to its store.  Results come back in instruction
        order.  The lowest-seq failure is re-raised with its original
        type (the executor error contract crosses this layer intact).
        """
        seqs = [instr.seq for instr in instrs]
        with self._cond:
            if self._closed:
                raise ExecutorError(
                    "runner crew is closed; its executor was shut down "
                    "mid-program"
                )
            for seq in seqs:
                self._pending[seq] = (
                    self._pending.get(seq, 0) + self.policy.duplicates
                )
        try:
            for instr in instrs:
                for _ in range(self.policy.duplicates):
                    self.queue.put(instr.seq, instr, deps=instr.deps)
        except RuntimeError as exc:  # queue abandoned under us
            raise ExecutorError(
                "runner work queue was abandoned mid-enqueue (executor "
                "closed during a solve)"
            ) from exc
        with self._cond:
            self._cond.wait_for(
                lambda: self._closed
                or all(self._pending.get(seq, 0) == 0 for seq in seqs)
            )
            if any(self._pending.get(seq, 0) != 0 for seq in seqs):
                raise ExecutorError(
                    "runner crew closed before the superstep drained; "
                    f"{sum(self._pending.get(s, 0) for s in seqs)} "
                    "deliveries abandoned"
                )
            failed = sorted(seq for seq in seqs if seq in self._errors)
            if failed:
                raise self._errors[failed[0]]
        return [self.program.result(instr.seq) for instr in instrs]

    def close(self) -> None:
        """Abandon queued deliveries and drain the runner threads.

        Registered as an executor teardown hook: it runs *before* the
        executor's transport is torn down, so runners exit cleanly
        (idle ones wake on abandon; busy ones finish or surface their
        in-flight instruction's failure) instead of blocking forever on
        a dead transport.  Idempotent.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self.queue.abandon()
        for t in self._threads:
            t.join(timeout=10.0)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed
