"""The runtime layer: where instruction programs actually execute.

A :class:`SuperstepRuntime` turns the plan layer's declarative
:class:`~repro.ltdp.engine.specs.SuperstepSpec` lists into executed
supersteps.  A runtime is thin glue between two owning layers:

- the **store** (:mod:`repro.ltdp.engine.store`) owns stage state —
  driver-resident (:class:`~repro.ltdp.engine.store.DriverStore`) here,
  worker-resident in :class:`~repro.ltdp.engine.poolrt.PoolRuntime`;
- the **program** (:mod:`repro.ltdp.engine.program`) owns superstep
  numbering, instruction seqs and the per-slot replay journal.

Each superstep is one bulk-synchronous step (paper Figs 4/5): its
specs are independent, so a runtime hands the whole list to its
executor in one batch and applies the results after the barrier.  Two
implementations ship:

- :class:`LocalRuntime` — stage state lives in the driver process;
  specs are wrapped in closures and handed to a classic
  :class:`~repro.machine.executor.Executor` (serial / thread pool)
  through ``run_superstep``.
- :class:`~repro.ltdp.engine.poolrt.PoolRuntime` — stage state lives
  *inside* persistent worker processes
  (:class:`~repro.machine.pool.PoolProcessExecutor`); only instructions
  and boundary vectors cross process boundaries, one batched
  ``call_slots`` dispatch per superstep.

The driver (:mod:`repro.ltdp.engine.driver`) picks the runtime from the
executor's capabilities, so ``solve_parallel``'s signature and results
are identical either way.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from functools import partial
from typing import Sequence

import numpy as np

from repro.ltdp.engine.program import InstructionProgram
from repro.ltdp.engine.specs import SpecResult, SuperstepSpec
from repro.ltdp.engine.store import DriverStore
from repro.ltdp.partition import StageRange
from repro.ltdp.problem import LTDPProblem
from repro.machine.executor import Executor
from repro.machine.trace import NULL_TRACER, Tracer

__all__ = ["SuperstepRuntime", "LocalRuntime"]


class SuperstepRuntime(ABC):
    """Executes superstep specs and owns the per-stage state between them."""

    #: Span tracer, set via the runtime constructors from
    #: ``ParallelOptions.tracer``; :data:`NULL_TRACER` when untraced.
    tracer: Tracer = NULL_TRACER

    @property
    def step_no(self) -> int:
        """Solve-global superstep counter (0 before the first superstep).

        Owned by the instruction program and incremented on *every*
        superstep, traced or not, so trace spans, metrics records and
        instruction seqs always agree on numbering.
        """
        return 0

    @abstractmethod
    def run(
        self, specs: Sequence[SuperstepSpec], label: str = ""
    ) -> list[SpecResult]:
        """Execute one superstep (one spec per participating processor).

        ``label`` is the superstep's metrics label (``"forward"``,
        ``"fixup[2]"``, …), used to tag trace spans and the compiled
        instructions.

        Returns results in spec order with all stage-resident updates
        already applied to the runtime's store.  ``path_segment``s are
        applied by the driver (which owns the path array); runtimes with
        worker-resident state must *also* apply them to their workers'
        stores before replying.
        """

    @abstractmethod
    def install_path(self, path: np.ndarray) -> None:
        """Give the runtime's store access to the driver's path array."""

    def prepare_backward(
        self,
        backward_ranges: Sequence[StageRange],
        forward_ranges: Sequence[StageRange],
    ) -> None:
        """Redistribute predecessor vectors when the backward partition
        differs from the forward one (objective problems whose optimum
        lies before the last stage).  No-op for shared-store runtimes."""

    @abstractmethod
    def stage_vectors(self) -> list[np.ndarray | None]:
        """Gather all stored stage vectors (``keep_stage_vectors``)."""

    def finish(self) -> None:
        """Release per-solve resources.  Must not tear down the executor."""


class LocalRuntime(SuperstepRuntime):
    """Driver-resident state + any closure-running executor.

    Specs share one :class:`DriverStore`: they only read their own
    range and buffer every write in their result, which :meth:`run`
    applies after the barrier in spec order.
    """

    def __init__(
        self,
        executor: Executor,
        problem: LTDPProblem,
        tracer: Tracer | None = None,
    ) -> None:
        self.executor = executor
        self.problem = problem
        self.state = DriverStore(problem)
        self.tracer = tracer or NULL_TRACER
        self.program = InstructionProgram()

    @property
    def step_no(self) -> int:
        return self.program.step_no

    def run(
        self, specs: Sequence[SuperstepSpec], label: str = ""
    ) -> list[SpecResult]:
        problem, store, tracer = self.problem, self.state, self.tracer
        step_no, instrs = self.program.add_superstep(specs)

        def task(spec: SuperstepSpec) -> SpecResult:
            # The classic executors (serial / thread) run tasks in this
            # process, so each task's compute span lands in the tracer.
            c0 = time.perf_counter()
            result = spec.execute(problem, store)
            tracer.add_span(
                "compute",
                c0,
                time.perf_counter(),
                superstep=step_no,
                label=label,
                proc=spec.proc,
            )
            return result

        t0 = time.perf_counter()
        results = self.executor.run_superstep([partial(task, s) for s in specs])
        tracer.add_span(
            "superstep",
            t0,
            time.perf_counter(),
            superstep=step_no,
            label=label,
            procs=len(specs),
        )
        # Post-barrier application, in spec order regardless of which
        # task finished first — the store's seq guard additionally
        # makes a re-applied result a no-op.
        for instr, result in zip(instrs, results):
            store.apply(result, seq=instr.seq)
        return results

    def install_path(self, path: np.ndarray) -> None:
        self.state.path = path

    def stage_vectors(self) -> list[np.ndarray | None]:
        return self.state.rows(self.problem.num_stages)
