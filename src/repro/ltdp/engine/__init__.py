"""The parallel LTDP engine: plan, program and store layers.

The engine splits the paper's parallel algorithm (Figs 4/5) into

- a **plan layer** that emits declarative
  :class:`~repro.ltdp.engine.specs.SuperstepSpec` objects — stage
  range, boundary input, convergence predicate — one per processor per
  barrier-delimited superstep
  (:mod:`~repro.ltdp.engine.forward`, :mod:`~repro.ltdp.engine.backward`,
  orchestrated by :mod:`~repro.ltdp.engine.driver`);
- a **program layer** (:mod:`~repro.ltdp.engine.program`) compiling
  spec lists into a sequence-numbered
  :class:`~repro.ltdp.engine.program.InstructionProgram` whose
  instructions are idempotent under repeat delivery and whose recorded
  prefix doubles as the crash-recovery replay journal;
- a **state-store layer** (:mod:`~repro.ltdp.engine.store`) owning the
  stage/predecessor vectors and resident fix-up caches, driver-resident
  (:class:`~repro.ltdp.engine.store.DriverStore`) or worker-resident
  (:class:`~repro.ltdp.engine.store.WorkerStore`) behind one interface —
  glued together by the runtimes, each running a superstep as one
  batched dispatch
  (:class:`~repro.ltdp.engine.runtime.LocalRuntime` over a classic
  serial/thread :class:`~repro.machine.executor.Executor`, or
  :class:`~repro.ltdp.engine.poolrt.PoolRuntime` over the persistent
  :class:`~repro.machine.pool.PoolProcessExecutor`).

``solve_parallel`` and :class:`ParallelOptions` live in
:mod:`repro.ltdp.engine.driver` and are re-exported here and from
:mod:`repro.ltdp` and :mod:`repro`.
"""

from repro.ltdp.engine.driver import (
    ParallelOptions,
    edge_weight_by_probe,
    solve_parallel,
)
from repro.ltdp.engine.program import Instruction, InstructionProgram
from repro.ltdp.engine.runtime import LocalRuntime, SuperstepRuntime
from repro.ltdp.engine.specs import (
    BackwardFixupSpec,
    BackwardInitSpec,
    ForwardFixupSpec,
    ForwardInitSpec,
    ObjectiveSpec,
    SpecResult,
    SuperstepSpec,
)
from repro.ltdp.engine.store import DriverStore, StateStore, WorkerStore

__all__ = [
    "ParallelOptions",
    "solve_parallel",
    "edge_weight_by_probe",
    "SuperstepRuntime",
    "LocalRuntime",
    "StateStore",
    "DriverStore",
    "WorkerStore",
    "Instruction",
    "InstructionProgram",
    "SuperstepSpec",
    "SpecResult",
    "ForwardInitSpec",
    "ForwardFixupSpec",
    "ObjectiveSpec",
    "BackwardInitSpec",
    "BackwardFixupSpec",
]
