"""Redelivery fakes: executors whose every batch is delivered by a crew.

numpywren's ``FailureTests`` insert repeated instructions into the
program-counter queue and require the program's answer not to change.
These test-only executors do the same to the engine's one superstep
path.  Each models a crew of ``runners`` redundant runners that all
deliver every task of a batch: the first runner in task order (or in
reverse when ``lifo``), each later runner in the opposite order of the
one before it, so the default crew of two runs the batch forward and
then reversed.

- :class:`DuplicatingSerialExecutor` and
  :class:`DuplicatingThreadExecutor` run every superstep's tasks once
  per runner against the driver-resident store.  Specs buffer their
  writes, so every delivery reads the same pre-barrier state and must
  agree;
- :class:`DuplicatingPool` sends every ``call_slots`` batch once per
  runner.  The worker's per-seq reply cache must answer each repeat
  without touching resident state (``_w_run_instr``).

All of them assert that the deliveries agree and return the first.
``repeats`` counts the calls delivered beyond the first runner's and
``reversals`` the batches of two or more calls delivered in reverse,
so a test can check the fake really ran.
"""

from __future__ import annotations

import pickle

from repro.machine.executor import SerialExecutor, ThreadExecutor
from repro.machine.pool import PoolProcessExecutor

__all__ = [
    "DuplicatingPool",
    "DuplicatingSerialExecutor",
    "DuplicatingThreadExecutor",
    "redelivering",
]


def _assert_same(first: list, second: list) -> None:
    """Both deliveries returned byte-identical results, call by call."""
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert pickle.dumps(a) == pickle.dumps(b)


class _Crew:
    """Delivers a batch once per runner, alternating direction."""

    def _init_crew(self, runners: int, lifo: bool) -> None:
        if runners < 1:
            raise ValueError(f"runners must be >= 1, got {runners}")
        self.runners = runners
        self.lifo = lifo
        self.repeats = 0
        self.reversals = 0

    def _deliver(self, send, items: list) -> list:
        first = None
        for runner in range(self.runners):
            if self.lifo != (runner % 2 == 1):
                got = send(items[::-1])[::-1]
                self.reversals += len(items) > 1
            else:
                got = send(items)
            if first is None:
                first = got
            else:
                _assert_same(first, got)
                self.repeats += len(items)
        return first


class DuplicatingSerialExecutor(_Crew, SerialExecutor):
    """Runs each superstep once per runner, in place on the driver."""

    def __init__(self, runners: int = 2, lifo: bool = False) -> None:
        self._init_crew(runners, lifo)

    def run_superstep(self, tasks):
        return self._deliver(super().run_superstep, list(tasks))


class DuplicatingThreadExecutor(_Crew, ThreadExecutor):
    """Runs each superstep once per runner on the thread pool."""

    def __init__(
        self, max_workers: int | None = None, runners: int = 2, lifo: bool = False
    ) -> None:
        self._init_crew(runners, lifo)
        super().__init__(max_workers=max_workers)

    def run_superstep(self, tasks):
        return self._deliver(super().run_superstep, list(tasks))


class DuplicatingPool(_Crew, PoolProcessExecutor):
    """Sends each ``call_slots`` batch once per runner."""

    def __init__(self, *args, runners: int = 2, lifo: bool = False, **kwargs) -> None:
        self._init_crew(runners, lifo)
        super().__init__(*args, **kwargs)

    def call_slots(self, calls):
        return self._deliver(super().call_slots, list(calls))


def redelivering(kind: str, runners: int = 2, lifo: bool = False, **pool_kwargs):
    """The fake for executor ``kind`` (two workers for thread and pool)."""
    if kind == "serial":
        return DuplicatingSerialExecutor(runners=runners, lifo=lifo)
    if kind == "thread":
        return DuplicatingThreadExecutor(max_workers=2, runners=runners, lifo=lifo)
    if kind == "pool":
        return DuplicatingPool(max_workers=2, runners=runners, lifo=lifo, **pool_kwargs)
    raise ValueError(f"unknown executor kind {kind!r}")
