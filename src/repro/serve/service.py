"""`repro serve`: batched request serving on one resident worker pool.

:class:`LTDPService` accepts a stream of decode/align requests (each an
:class:`~repro.ltdp.problem.LTDPProblem`), applies admission control at
the door (bounded queue; reject-with-reason, never block or drop
silently), and serves them from a single batcher thread that drains the
queue, groups same-class requests (:func:`~repro.serve.requests.
request_class`) and sweeps each group over that class's
:class:`~repro.serve.session.ResidentSession` — one persistent
:class:`~repro.machine.pool.PoolProcessExecutor` under all of them.

Near-duplicate requests are answered by §4.7 sparse delta repair of the
class's resident canonical solve; everything is counted per request
class (hits, misses, rejections, changed delta cells, latency) and
every answer is bit-identical to a fresh sequential solve.

Shutdown is a graceful drain: ``close()`` stops admissions, lets the
batcher finish the queue, tears down the resident sessions and (when
the service owns it) closes the pool.  The drain path leans on the
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
from dataclasses import dataclass, field

from repro.exceptions import ExecutorError, ReproError
from repro.ltdp.problem import LTDPProblem
from repro.machine.executor import executor_capability
from repro.machine.trace import NULL_TRACER, Tracer

from repro.serve.requests import (
    CACHE_HIT,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    PendingRequest,
    ServeResponse,
    class_label,
    request_class,
)
from repro.serve.session import ResidentSession

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
    latency_total: float = 0.0
    latency_max: float = 0.0

    def observe(self, response: ServeResponse) -> None:
        self.requests += 1
        if response.status == STATUS_REJECTED:
            self.rejected += 1
            return
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
            "latency_mean_seconds": mean,
            "latency_max_seconds": self.latency_max,
        }


@dataclass
class _ServiceState:
    """Mutable service internals guarded by one condition variable."""

    queue: deque = field(default_factory=deque)
    closing: bool = False
    closed: bool = False


class LTDPService:
    """In-process request-serving front-end over one persistent pool.

    Parameters
    ----------
    executor:
        A :class:`~repro.machine.pool.PoolProcessExecutor` to serve on;
        ``None`` (default) creates one (``max_workers``) that the
        service owns and closes.
    num_procs:
        Virtual processors per solve (each session's partition).
    max_queue:
        Admission-control bound: a ``submit`` finding this many requests
        already queued is rejected immediately with a reason.
    max_sessions:
        Resident-session cap; least-recently-used classes are evicted
        (their worker-side state dropped) past it.
    use_delta:
        §4.7 delta mode for the solves (required for sparse cache
        repair; on by default).
    seed:
        Seed of the solves' random ``nz`` start vectors.
    tracer:
        Optional tracer; the service adds one ``serve.request`` span
        per served request and one ``serve.batch`` span per same-class
        group, on top of the engine's solve spans.
    journal_cap:
        Per-session replay-journal bound before the session rebases.
    """

    def __init__(
        self,
        *,
        executor=None,
        max_workers: int | None = None,
        num_procs: int = 4,
        max_queue: int = 64,
        max_sessions: int = 8,
        use_delta: bool = True,
        seed: int | None = 0,
        tracer: Tracer | None = None,
        journal_cap: int = 4096,
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
        self.use_delta = use_delta
        self.seed = seed
        self.tracer = tracer or NULL_TRACER
        self.journal_cap = journal_cap

        self._cond = threading.Condition()
        self._state = _ServiceState()  # guarded-by: self._cond
        self._thread: threading.Thread | None = None  # guarded-by: self._cond
        # Batcher-thread-only state (no guard): ``_ids`` is an atomic
        # counter; ``_sessions`` is touched by the serve loop and, after
        # the thread has been joined, by ``close()``.
        self._ids = itertools.count(1)
        self._sessions: "OrderedDict[tuple, ResidentSession]" = OrderedDict()
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
        for session in self._sessions.values():
            session.finish()
        self._sessions.clear()
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
            # resident session (first arrival fixes group order).
            groups: "OrderedDict[tuple, list[PendingRequest]]" = OrderedDict()
            for req in batch:
                groups.setdefault(req.key, []).append(req)
            for key, reqs in groups.items():
                with self.tracer.span(
                    "serve.batch", request_class=class_label(key), size=len(reqs)
                ):
                    for req in reqs:
                        self._serve_one(req)

    def _session_for(self, req: PendingRequest) -> ResidentSession:
        session = self._sessions.get(req.key)
        if session is not None:
            self._sessions.move_to_end(req.key)
            return session
        while len(self._sessions) >= self.max_sessions:
            _, evicted = self._sessions.popitem(last=False)
            evicted.finish()
        session = ResidentSession(
            self.executor,
            req.problem,
            num_procs=self.num_procs,
            use_delta=self.use_delta,
            seed=self.seed,
            tracer=self.tracer,
            journal_cap=self.journal_cap,
        )
        self._sessions[req.key] = session
        return session

    def _serve_one(self, req: PendingRequest) -> None:
        t0 = time.perf_counter()
        with self.tracer.span("serve.request", request_id=req.request_id):
            try:
                session = self._session_for(req)
                solution, cache, metrics = session.serve(req.problem)
            except ExecutorError as exc:
                response = ServeResponse(
                    request_id=req.request_id,
                    status=STATUS_ERROR,
                    latency_seconds=time.perf_counter() - t0,
                    reason=f"executor failure: {exc}",
                )
            except ReproError as exc:
                response = ServeResponse(
                    request_id=req.request_id,
                    status=STATUS_ERROR,
                    latency_seconds=time.perf_counter() - t0,
                    reason=f"solve failure: {exc}",
                )
            else:
                response = ServeResponse(
                    request_id=req.request_id,
                    status=STATUS_OK,
                    cache=cache,
                    solution=solution,
                    latency_seconds=time.perf_counter() - t0,
                    delta_cells=int(sum(metrics.fixup_changed_deltas)),
                    fixup_iterations=metrics.forward_fixup_iterations,
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
