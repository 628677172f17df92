"""The program layer: superstep specs compiled into instruction programs.

A phase planner emits one :class:`~repro.ltdp.engine.specs.SuperstepSpec`
per processor per barrier; this module compiles those lists into a
sequence-numbered :class:`InstructionProgram` — the lambdapack pattern
(numpywren): an append-only sequence of :class:`Instruction` objects,
each **idempotent under repeat delivery** (a re-sent instruction
carries its seq, and stores apply each seq at most once).

The program does four jobs:

- **numbering**: every instruction gets a program-global seq, the key
  of the worker-side reply cache and the store's apply-once guard;
- the **counter**: ``add_superstep`` increments the solve-global
  superstep number unconditionally, so trace spans, metrics
  ``SuperstepRecord.step`` values and instruction seqs all correlate;
- the **journal**: ``slot_history`` lists every instruction ever
  compiled for a slot;
- the **recorded set**: ``is_recorded`` marks the instructions whose
  results completed a barrier.  Filtered by it, a slot's history is
  exactly the prefix crash recovery must replay: rebuilding a dead
  worker is "re-run the recorded program suffix for its slots".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Sequence

from repro.ltdp.engine.specs import SuperstepSpec

__all__ = ["Instruction", "InstructionProgram"]


@dataclass(frozen=True)
class Instruction:
    """One unit of work: a spec (or install) plus its program position.

    ``seq`` is the program-global sequence number (1-based, dense).
    ``op`` is ``"spec"`` (execute ``spec`` against the slot's store) or
    ``"pred-install"`` (merge ``payload`` — redistributed predecessor
    vectors — into the slot's store).
    """

    seq: int
    slot: int
    op: str = "spec"
    spec: SuperstepSpec | None = None
    payload: Any = None


class InstructionProgram:
    """Append-only compiled program + the set of recorded seqs.

    Thread-safe: a pool shared by several solves runs every session's
    rebuild hook on whichever thread hit the crash, so one program's
    journal may be read while its own driver thread compiles.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0  # guarded-by: self._lock
        self._by_slot: dict[int, list[Instruction]] = {}  # guarded-by: self._lock
        self._recorded: set[int] = set()  # guarded-by: self._lock
        self._step = 0  # guarded-by: self._lock

    # -- compiling ------------------------------------------------------
    def add_superstep(
        self, specs: Sequence[SuperstepSpec]
    ) -> tuple[int, list[Instruction]]:
        """Compile one superstep's specs; returns ``(step, instructions)``.

        The step counter increments on every call — traced or not — so
        superstep numbering can never skew between trace spans, metrics
        records and instruction seqs.
        """
        with self._lock:
            self._step += 1
            instrs: list[Instruction] = []
            for spec in specs:
                self._seq += 1
                instr = Instruction(seq=self._seq, slot=spec.proc, spec=spec)
                self._by_slot.setdefault(spec.proc, []).append(instr)
                instrs.append(instr)
            return self._step, instrs

    def add_install(self, slot: int, payload: Any) -> Instruction:
        """Journal a driver-mediated predecessor install for ``slot``.

        Installs are synchronous (the driver barriers on them before
        compiling any instruction that could read them); they are
        journalled so crash recovery replays them in slot order.
        """
        with self._lock:
            self._seq += 1
            instr = Instruction(
                seq=self._seq, slot=slot, op="pred-install", payload=payload
            )
            self._by_slot.setdefault(slot, []).append(instr)
            return instr

    # -- the recorded set -----------------------------------------------
    def record(self, seq: int) -> bool:
        """Mark ``seq`` as having completed a barrier (idempotent).

        Returns ``True`` only for the first record of ``seq``: a repeat
        delivery's result never counts twice.
        """
        with self._lock:
            first = seq not in self._recorded
            self._recorded.add(seq)
            return first

    def is_recorded(self, seq: int) -> bool:
        with self._lock:
            return seq in self._recorded

    # -- introspection --------------------------------------------------
    @property
    def step_no(self) -> int:
        """Supersteps compiled so far (the solve-global counter)."""
        with self._lock:
            return self._step

    def slot_history(self, slot: int) -> list[Instruction]:
        """Every instruction compiled for ``slot``, in program order.

        Filtered by :meth:`is_recorded`, this is the replay program for
        a respawned worker owning ``slot``: re-running the recorded
        prefix rebuilds the slot's resident state bit-identically
        (spec determinism), while in-flight instructions — compiled but
        not recorded — are excluded.
        """
        with self._lock:
            return list(self._by_slot.get(slot, ()))
