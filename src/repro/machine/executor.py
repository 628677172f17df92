"""Executors: run one task per virtual processor within a superstep.

The parallel LTDP algorithm expresses each superstep as a list of
closures, one per participating processor, with all cross-processor
inputs snapshotted *before* the superstep (BSP semantics — this is what
the barriers in paper Figs 4/5 guarantee).  Executors therefore never
need locks; they only differ in where the closures run:

- :class:`SerialExecutor` — runs them in-line, in processor order.
  Deterministic; the default for the simulated cluster.
- :class:`ThreadExecutor` — a thread pool.  Real concurrency for
  NumPy-heavy kernels (NumPy releases the GIL inside ufuncs), real
  barrier behaviour; bounded by the GIL for Python-level work.
- :class:`~repro.machine.pool.PoolProcessExecutor` (in
  :mod:`repro.machine.pool`) — *persistent* worker processes spawned
  once and reused across supersteps; true parallelism on multi-core
  hosts.  The LTDP engine additionally keeps per-processor stage state
  resident in them.

All executors produce bit-identical results (the test-suite checks
this); on a single-core host only the simulated clock shows speedup.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, fields
from typing import Any, Callable, Sequence

from repro.exceptions import ExecutorError

__all__ = [
    "Executor",
    "ExecutorCapabilities",
    "executor_capability",
    "CAPABILITY_NAMES",
    "SerialExecutor",
    "ThreadExecutor",
    "get_executor",
    "EXECUTOR_KINDS",
]

#: Executor kinds :func:`get_executor` understands (CLI ``--executor``).
EXECUTOR_KINDS = ("serial", "thread", "pool")

Task = Callable[[], Any]


@dataclass(frozen=True)
class ExecutorCapabilities:
    """Typed capability declaration for an executor.

    Engine layers select fast paths by *asking* an executor what it
    supports.  The previous convention —
    ``getattr(executor, "supports_resident_state", False)`` — meant a
    typoed capability name silently read as "unsupported" and quietly
    disabled the fast path.  Capabilities are now a closed set of typed
    fields; probing an undeclared name raises
    (:func:`executor_capability`), so a typo is a loud error instead of
    a silent slowdown.

    Fields
    ------
    resident_state:
        Workers persist across supersteps and can keep per-processor
        stage state resident (the pool runtime's contract).
    """

    resident_state: bool = False


#: The closed set of declarable capability names.
CAPABILITY_NAMES: tuple[str, ...] = tuple(
    f.name for f in fields(ExecutorCapabilities)
)


def executor_capability(executor: object, name: str) -> bool:
    """Loud capability probe: typos and undeclared executors raise.

    ``name`` must be one of :data:`CAPABILITY_NAMES` and ``executor``
    must declare an :class:`ExecutorCapabilities` (every
    :class:`Executor` subclass inherits a default declaration).  Both
    failure modes raise :class:`ExecutorError` — never a silent False.
    """
    if name not in CAPABILITY_NAMES:
        raise ExecutorError(
            f"unknown executor capability {name!r}; declared capabilities "
            f"are: {', '.join(CAPABILITY_NAMES)}"
        )
    caps = getattr(executor, "capabilities", None)
    if not isinstance(caps, ExecutorCapabilities):
        raise ExecutorError(
            f"{type(executor).__name__} does not declare ExecutorCapabilities; "
            "executors must provide a `capabilities` attribute (Executor "
            "subclasses inherit a default declaration)"
        )
    return bool(getattr(caps, name))


class Executor(ABC):
    """Runs one closure per virtual processor and returns their results in order.

    Lifecycle contract: after :meth:`close` returns, the executor is
    permanently closed — :meth:`run_superstep` raises
    :class:`ExecutorError` deterministically (no hang, no respawned
    worker).  The serve layer's drain path relies on this: a request
    racing shutdown gets a clean error instead of dispatching into a
    half-torn-down transport.
    """

    #: Typed capability declaration; subclasses override to advertise
    #: fast paths (see :class:`ExecutorCapabilities`).
    capabilities: ExecutorCapabilities = ExecutorCapabilities()

    @abstractmethod
    def run_superstep(self, tasks: Sequence[Task]) -> list[Any]:
        """Execute all ``tasks`` and return ``[task() for task in tasks]``.

        Raises :class:`ExecutorError` if the executor has been closed.
        """

    def capability(self, name: str) -> bool:
        """Probe one declared capability; unknown names raise loudly."""
        return executor_capability(self, name)

    # -- closed-state guard ----------------------------------------------
    # Lazy attribute: ABC subclasses don't all chain __init__.

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; dispatching then raises."""
        return bool(getattr(self, "_closed", False))

    def _check_open(self) -> None:
        """Raise :class:`ExecutorError` when the executor is closed."""
        if getattr(self, "_closed", False):
            raise ExecutorError(
                f"{type(self).__name__} is closed: run_superstep after "
                "close() is an error (create a new executor to dispatch "
                "again)"
            )

    def close(self) -> None:
        """Release any worker resources and mark the executor closed.

        Idempotent; subsequent :meth:`run_superstep` calls raise
        :class:`ExecutorError`.
        """
        self._closed = True

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """Deterministic in-line execution (the simulated cluster's engine)."""

    def run_superstep(self, tasks: Sequence[Task]) -> list[Any]:
        self._check_open()
        return [task() for task in tasks]


class ThreadExecutor(Executor):
    """Thread-pool execution; real concurrency for GIL-releasing kernels.

    Error contract (matching the worker pool's): a raising task
    cancels the superstep's not-yet-started siblings, drains the ones
    already running, and surfaces as :class:`ExecutorError` naming both
    the 0-based task index and the 1-based processor slot it maps to,
    with the original exception chained.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self._pool = ThreadPoolExecutor(max_workers=max_workers)

    def run_superstep(self, tasks: Sequence[Task]) -> list[Any]:
        self._check_open()
        futures = [self._pool.submit(task) for task in tasks]
        results: list[Any] = []
        for idx, future in enumerate(futures):
            try:
                results.append(future.result())
            except Exception as exc:  # repro: noqa[REP005]: any task error must become ExecutorError below, preserving barrier semantics
                # Cancel whatever has not started, then drain the rest so
                # no sibling task is still mutating state when we raise
                # (the barrier must stay a barrier even on failure).
                for pending in futures[idx + 1 :]:
                    pending.cancel()
                futures_wait(futures)
                raise ExecutorError(
                    f"task {idx} (processor {idx + 1}) failed: {exc!r}"
                ) from exc
        return results

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        self._closed = True


def get_executor(kind: str = "serial", **kwargs: Any) -> Executor:
    """Factory: ``"serial"`` | ``"thread"`` | ``"pool"``.

    ``thread`` and ``pool`` accept ``max_workers``.
    """
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(**kwargs)
    if kind == "pool":
        from repro.machine.pool import PoolProcessExecutor

        return PoolProcessExecutor(**kwargs)
    raise ValueError(f"unknown executor kind {kind!r}")
