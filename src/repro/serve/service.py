"""`repro serve`: batched request serving, in-process or on one pool.

:class:`LTDPService` accepts a stream of decode/align requests (each an
:class:`~repro.ltdp.problem.LTDPProblem`), applies admission control at
the door (bounded queue; reject-with-reason, never block or drop
silently), and serves them from a single batcher thread that drains the
queue and groups same-class requests (:func:`~repro.serve.requests.
request_class`).

Each request class is solved at the processor count ``P`` the cost
model picks (:func:`~repro.machine.cost_model.choose_num_procs`), with
the service's ``num_procs`` as the ceiling.  A class's first request is
always solved in-process by the kernel-tier sequential solver, which
calibrates the class's sequential time.  Classes whose predicted pooled
time does not beat it stay in-process (``P = 1``, no pool round trip):
the class's last answer stays resident, an exact resend is a hit, and a
near-duplicate is a hit repaired by one sweep of the suffix from its
first dirty stage.  Each request of a class the model sends to ``P > 1``
is a plain :func:`~repro.ltdp.engine.driver.solve_parallel` on one
persistent :class:`~repro.machine.pool.PoolProcessExecutor`, always a
miss.  The model's prediction is only a trial: a class's first pooled
solve is timed, and a class whose pooled solve does not beat its
sequential time returns in-process for good.  Everything is counted per
request class (hits, misses, rejections, delta cells, sequential vs
parallel choices, latency) and every answer is bit-identical to a fresh
sequential solve.

Shutdown is a graceful drain: ``close()`` stops admissions, lets the
batcher finish the queue, drops the resident answers and (when the
service owns it) closes the pool.  The drain path leans on the
executor close contract — ``run_superstep``/dispatch on a closed
executor raises :class:`~repro.exceptions.ExecutorError`
deterministically — so a request racing shutdown resolves as an
``error`` response instead of hanging on a dead transport.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace

from repro.exceptions import ExecutorError, ReproError
from repro.kernels import get_backend, kernel_tier_enabled
from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.ltdp.engine.inprocess import SequentialAnswer
from repro.ltdp.problem import LTDPProblem, LTDPSolution
from repro.machine.cost_model import choose_num_procs
from repro.machine.executor import executor_capability
from repro.machine.trace import NULL_TRACER, Tracer

from repro.serve.requests import (
    CACHE_HIT,
    CACHE_MISS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    PendingRequest,
    ServeResponse,
    class_label,
    request_class,
)

__all__ = ["ClassStats", "LTDPService"]


@dataclass
class ClassStats:
    """Per-request-class counters (one row of ``LTDPService.stats()``)."""

    requests: int = 0
    ok: int = 0
    hits: int = 0
    misses: int = 0
    rejected: int = 0
    errors: int = 0
    delta_cells: int = 0
    #: Served requests (ok or error) solved in-process at ``P = 1``...
    sequential: int = 0
    #: ...and on the pool at ``P > 1``.
    parallel: int = 0
    latency_total: float = 0.0
    latency_max: float = 0.0

    def observe(self, response: ServeResponse) -> None:
        self.requests += 1
        if response.status == STATUS_REJECTED:
            self.rejected += 1
            return
        if response.num_procs == 1:
            self.sequential += 1
        elif response.num_procs > 1:
            self.parallel += 1
        if response.status == STATUS_ERROR:
            self.errors += 1
            return
        self.ok += 1
        if response.cache == CACHE_HIT:
            self.hits += 1
        else:
            self.misses += 1
        self.delta_cells += response.delta_cells
        self.latency_total += response.latency_seconds
        self.latency_max = max(self.latency_max, response.latency_seconds)

    def merged(self, other: "ClassStats") -> "ClassStats":
        return ClassStats(
            requests=self.requests + other.requests,
            ok=self.ok + other.ok,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            rejected=self.rejected + other.rejected,
            errors=self.errors + other.errors,
            delta_cells=self.delta_cells + other.delta_cells,
            sequential=self.sequential + other.sequential,
            parallel=self.parallel + other.parallel,
            latency_total=self.latency_total + other.latency_total,
            latency_max=max(self.latency_max, other.latency_max),
        )

    def as_dict(self) -> dict:
        mean = self.latency_total / self.ok if self.ok else 0.0
        return {
            "requests": self.requests,
            "ok": self.ok,
            "hits": self.hits,
            "misses": self.misses,
            "rejected": self.rejected,
            "errors": self.errors,
            "delta_cells": self.delta_cells,
            "sequential": self.sequential,
            "parallel": self.parallel,
            "latency_mean_seconds": mean,
            "latency_max_seconds": self.latency_max,
        }


@dataclass
class _ClassEntry:
    """One request class's resident state (batcher thread only).

    ``seq_seconds`` is the class's sequential time, measured by its
    first (in-process) solve: the forward sweep's seconds, i.e. the
    calibrated ``cell_cost`` times ``total_cells()``, which every
    problem of one class shares.  ``answer`` is the in-process resident
    answer.  ``pool_won`` / ``pool_lost`` record the outcome of the
    class's first pooled solve (its trial) against ``seq_seconds``: a
    class that won stays on the pool, one that lost stays in-process.
    """

    seq_seconds: float | None = None
    answer: SequentialAnswer | None = None
    pool_won: bool = False
    pool_lost: bool = False


def _client_copy(solution: LTDPSolution) -> LTDPSolution:
    """A response's own copy of a resident in-process answer, so a client
    mutating it cannot corrupt the answers later requests receive."""
    return replace(
        solution,
        path=solution.path.copy(),
        final_vector=solution.final_vector.copy(),
    )


@dataclass
class _ServiceState:
    """Mutable service internals guarded by one condition variable."""

    queue: deque = field(default_factory=deque)
    closing: bool = False
    closed: bool = False


class LTDPService:
    """Request-serving front-end: in-process or over one persistent pool.

    Parameters
    ----------
    executor:
        A :class:`~repro.machine.pool.PoolProcessExecutor` to serve
        ``P > 1`` classes on; ``None`` (default) creates one
        (``max_workers``) that the service owns and closes.  Its workers
        spawn on first dispatch, so a service whose classes all stay
        in-process never starts them.
    num_procs:
        Ceiling on the virtual processors per solve.  Each class runs at
        the ``P`` the cost model picks under it: 1 (in-process) until
        its first solve has calibrated it, then 1 whenever the predicted
        pooled time does not beat the measured sequential one, or the
        class's first pooled solve, timed, did not.
    max_queue:
        Admission-control bound: a ``submit`` finding this many requests
        already queued is rejected immediately with a reason.
    max_sessions:
        Resident-class cap; least-recently-used classes are evicted
        (their resident answer, calibration and pool-trial outcome
        dropped) past it.
    seed:
        Seed of the solves' random ``nz`` start vectors.
    tracer:
        Optional tracer; the service adds one ``serve.request`` span
        per served request and one ``serve.batch`` span per same-class
        group, on top of the engine's solve spans.
    """

    def __init__(
        self,
        *,
        executor=None,
        max_workers: int | None = None,
        num_procs: int = 4,
        max_queue: int = 64,
        max_sessions: int = 8,
        seed: int | None = 0,
        tracer: Tracer | None = None,
    ) -> None:
        if num_procs < 1:
            raise ValueError(f"num_procs must be >= 1, got {num_procs}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self._own_executor = executor is None
        if executor is None:
            from repro.machine.pool import PoolProcessExecutor

            executor = PoolProcessExecutor(max_workers=max_workers)
        if not executor_capability(executor, "resident_state"):
            raise ExecutorError(
                "LTDPService requires a resident-state executor (the "
                f"persistent worker pool); got {type(executor).__name__}"
            )
        self.executor = executor
        self.num_procs = num_procs
        self.max_queue = max_queue
        self.max_sessions = max_sessions
        self.seed = seed
        self.tracer = tracer or NULL_TRACER
        # Load the kernel backend now, not inside a class's first solve,
        # whose time calibrates the class's P choice.
        get_backend()

        self._cond = threading.Condition()
        self._state = _ServiceState()  # guarded-by: self._cond
        self._thread: threading.Thread | None = None  # guarded-by: self._cond
        # Batcher-thread-only state (no guard): ``_ids`` is an atomic
        # counter; ``_classes`` is touched by the serve loop and, after
        # the thread has been joined, by ``close()``.
        self._ids = itertools.count(1)
        self._classes: "OrderedDict[tuple, _ClassEntry]" = OrderedDict()
        self._stats: dict[str, ClassStats] = {}  # guarded-by: self._cond

    # -- admission ------------------------------------------------------
    def submit(self, problem: LTDPProblem) -> PendingRequest:
        """Enqueue one request; never blocks.

        Backpressure is synchronous: when the queue is full (or the
        service is closing) the returned ticket is already resolved
        with a ``rejected`` response naming the reason.
        """
        key = request_class(problem)
        req = PendingRequest(next(self._ids), problem, key)
        with self._cond:
            if self._state.closing:
                self._resolve_rejected(req, "service is closed to new requests")
            elif len(self._state.queue) >= self.max_queue:
                self._resolve_rejected(
                    req,
                    f"queue full ({len(self._state.queue)}/{self.max_queue} "
                    "pending): backpressure — retry after in-flight "
                    "requests drain",
                )
            else:
                self._state.queue.append(req)
                self._cond.notify()
        return req

    def _resolve_rejected(self, req: PendingRequest, reason: str) -> None:
        # repro: locked[self._cond]
        response = ServeResponse(
            request_id=req.request_id, status=STATUS_REJECTED, reason=reason
        )
        self._stats.setdefault(class_label(req.key), ClassStats()).observe(
            response
        )
        req._resolve(response)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "LTDPService":
        """Start the batcher thread (idempotent)."""
        with self._cond:
            if self._state.closing:
                raise ExecutorError("LTDPService is closed: cannot start")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._serve_loop, name="ltdp-serve", daemon=True
                )
                self._thread.start()
        return self

    def close(self, *, drain: bool = True) -> dict:
        """Stop admissions, drain (default) or flush the queue, tear down.

        Returns the final :meth:`stats` snapshot.  Idempotent.  With
        ``drain=False`` queued-but-unserved requests resolve as
        ``rejected`` instead of being served.
        """
        with self._cond:
            if self._state.closed:
                return self.stats()
            self._state.closing = True
            flushed: list[PendingRequest] = []
            if not drain:
                flushed = list(self._state.queue)
                self._state.queue.clear()
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join()
        with self._cond:
            # Never started (or flushing): whatever is still queued
            # cannot be served any more.
            flushed.extend(self._state.queue)
            self._state.queue.clear()
            for req in flushed:
                self._resolve_rejected(
                    req, "service closed before the request was served"
                )
        self._classes.clear()
        if self._own_executor:
            self.executor.close()
        with self._cond:
            self._state.closed = True
        return self.stats()

    def __enter__(self) -> "LTDPService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the batcher ----------------------------------------------------
    def _serve_loop(self) -> None:
        while True:
            with self._cond:
                while not self._state.queue and not self._state.closing:
                    self._cond.wait()
                if not self._state.queue:
                    return  # closing and drained
                batch = list(self._state.queue)
                self._state.queue.clear()
            # Group same-class requests so consecutive solves share one
            # class entry (first arrival fixes group order).
            groups: "OrderedDict[tuple, list[PendingRequest]]" = OrderedDict()
            for req in batch:
                groups.setdefault(req.key, []).append(req)
            for key, reqs in groups.items():
                with self.tracer.span(
                    "serve.batch", request_class=class_label(key), size=len(reqs)
                ):
                    for req in reqs:
                        self._serve_one(req)

    def _entry_for(self, key: tuple) -> _ClassEntry:
        entry = self._classes.get(key)
        if entry is not None:
            self._classes.move_to_end(key)
            return entry
        while len(self._classes) >= self.max_sessions:
            self._classes.popitem(last=False)
        entry = self._classes[key] = _ClassEntry()
        return entry

    def _procs_for(self, entry: _ClassEntry, problem: LTDPProblem) -> int:
        """The P choice: 1 until the class is calibrated or once its pool
        trial lost, else the model's."""
        if entry.seq_seconds is None or entry.pool_lost:
            return 1
        return choose_num_procs(
            entry.seq_seconds, self.num_procs, problem, self.executor
        ).num_procs

    def _solve_in_process(self, entry: _ClassEntry, problem: LTDPProblem):
        """Answer at P = 1; returns ``(solution, cache_tag, delta_cells)``."""
        answer = entry.answer
        dirty = None
        if answer is not None:
            dirty = problem.dirty_stages_against(answer.problem)
        if dirty is None:
            answer = SequentialAnswer(
                problem,
                use_kernels=kernel_tier_enabled(None, problem),
                tracer=self.tracer,
            )
            entry.answer = answer
            if entry.seq_seconds is None:
                entry.seq_seconds = answer.forward_seconds
            return _client_copy(answer.solution), CACHE_MISS, 0
        if not dirty:
            return _client_copy(answer.solution), CACHE_HIT, 0
        try:
            cells = answer.repair(problem, dirty)
        except ReproError:
            # A failed repair leaves the resident state half-swept.
            entry.answer = None
            raise
        return _client_copy(answer.solution), CACHE_HIT, int(cells)

    def _solve_pooled(
        self, entry: _ClassEntry, problem: LTDPProblem, num_procs: int
    ) -> LTDPSolution:
        """Answer at P > 1: a plain ``solve_parallel`` on the shared pool.

        A calibrated class's first successful pooled solve is its trial:
        it is timed, after the workers are up so their one-time spawn is
        not charged to the class, against the class's sequential time.
        A class whose pooled solve does not beat it returns in-process
        for good.
        """
        trial = entry.seq_seconds is not None and not entry.pool_won
        if trial:
            self.executor.check_health()
        t0 = time.perf_counter()
        solution = solve_parallel(
            problem,
            ParallelOptions(
                num_procs=num_procs,
                executor=self.executor,
                seed=self.seed,
                tracer=self.tracer,
            ),
        )
        if trial:
            seconds = time.perf_counter() - t0
            entry.pool_lost = seconds >= entry.seq_seconds
            entry.pool_won = not entry.pool_lost
            self.tracer.event(
                "serve.pool-trial",
                num_procs=num_procs,
                pool_seconds=seconds,
                seq_seconds=entry.seq_seconds,
                kept=entry.pool_won,
            )
            if entry.pool_won:
                entry.answer = None  # the class is served on the pool now
        return solution

    def _serve_one(self, req: PendingRequest) -> None:
        t0 = time.perf_counter()
        num_procs = 0
        with self.tracer.span("serve.request", request_id=req.request_id):
            try:
                entry = self._entry_for(req.key)
                num_procs = self._procs_for(entry, req.problem)
                fixups = 0
                if num_procs == 1:
                    solution, cache, delta_cells = self._solve_in_process(
                        entry, req.problem
                    )
                else:
                    solution = self._solve_pooled(entry, req.problem, num_procs)
                    cache, delta_cells = CACHE_MISS, 0
                    num_procs = solution.metrics.num_procs
                    fixups = solution.metrics.forward_fixup_iterations
            except ExecutorError as exc:
                response = ServeResponse(
                    request_id=req.request_id,
                    status=STATUS_ERROR,
                    latency_seconds=time.perf_counter() - t0,
                    num_procs=num_procs,
                    reason=f"executor failure: {exc}",
                )
            except ReproError as exc:
                response = ServeResponse(
                    request_id=req.request_id,
                    status=STATUS_ERROR,
                    latency_seconds=time.perf_counter() - t0,
                    num_procs=num_procs,
                    reason=f"solve failure: {exc}",
                )
            else:
                response = ServeResponse(
                    request_id=req.request_id,
                    status=STATUS_OK,
                    cache=cache,
                    solution=solution,
                    latency_seconds=time.perf_counter() - t0,
                    delta_cells=delta_cells,
                    fixup_iterations=fixups,
                    num_procs=num_procs,
                )
        with self._cond:
            self._stats.setdefault(class_label(req.key), ClassStats()).observe(
                response
            )
        req._resolve(response)

    # -- observability --------------------------------------------------
    def stats(self) -> dict[str, dict]:
        """Per-class counter snapshot plus a ``"total"`` roll-up row."""
        with self._cond:
            rows = {label: cs.as_dict() for label, cs in self._stats.items()}
            total = ClassStats()
            for cs in self._stats.values():
                total = total.merged(cs)
        rows["total"] = total.as_dict()
        return rows

    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._state.queue)
