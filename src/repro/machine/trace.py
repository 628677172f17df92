"""Execution tracing: simulated BSP timelines *and* real span traces.

Two complementary views live here:

1. **Simulated timeline** (:func:`build_trace`, :func:`render_gantt`,
   :func:`utilization`): converts a
   :class:`~repro.machine.metrics.RunMetrics` plus a
   :class:`~repro.machine.cost_model.CostModel` into explicit
   ``(processor, start, end, label)`` intervals — the BSP schedule the
   simulated clock implies — and renders them as an ASCII Gantt chart.

2. **Real span tracer** (:class:`Tracer`): structured wall-clock spans
   of an actual solve — one span per superstep, per-worker dispatch
   spans with send/queue-wait/compute breakdown and serialized byte
   counts, and point events for pool recovery (respawns, retries,
   replays).  The engine threads a tracer through
   :class:`~repro.ltdp.engine.driver.ParallelOptions`; layers handed
   ``None`` store :data:`NULL_TRACER` and call it unconditionally, so
   the disabled path costs one early return per recording call.  Traces
   export as schema-versioned JSONL (:meth:`Tracer.dump_jsonl`).

Span clock: ``time.perf_counter()``.  On Linux this is CLOCK_MONOTONIC,
which shares its epoch across processes on one host, so worker-side
timestamps (pool compute spans) are directly comparable with
driver-side ones; queue-wait is derived from that comparability and is
meaningful only on such platforms.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.machine.cost_model import CostModel
from repro.machine.metrics import RunMetrics

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "Span",
    "TraceEvent",
    "Tracer",
    "NULL_TRACER",
    "TraceInterval",
    "build_trace",
    "render_gantt",
    "utilization",
]

#: Version of the JSONL trace format; bump on incompatible changes.
TRACE_SCHEMA_VERSION = 1


@dataclass
class Span:
    """One timed operation: ``[start, end]`` seconds since the trace epoch."""

    name: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class TraceEvent:
    """One point-in-time occurrence (e.g. a worker respawn)."""

    name: str
    time: float
    attrs: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects :class:`Span` / :class:`TraceEvent` records of a real run.

    Usage::

        tracer = Tracer()
        solution = solve_parallel(problem, num_procs=8, executor=pool,
                                  tracer=tracer)
        tracer.dump_jsonl("solve.trace.jsonl")
        print(tracer.format_summary())

    A disabled tracer records nothing: every recording method returns
    at once, and :meth:`span` / :meth:`context` yield without touching
    the clock.  Engine layers handed ``None`` (the default everywhere)
    store :data:`NULL_TRACER` and call it unconditionally, which keeps
    tracing's disabled overhead to a few microseconds per superstep.
    A disabled tracer is also *falsy*, which the worker pool uses to
    skip measuring its wire bytes.

    ``context`` attributes (e.g. the current superstep label) are merged
    into every span/event recorded while the context is active, letting
    low layers (the worker pool) tag their spans with high-layer
    information (the superstep) without plumbing arguments through.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self.epoch = time.perf_counter()
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self._context: dict[str, Any] = {}
        self._order: list[Span | TraceEvent] = []

    def __bool__(self) -> bool:
        return self.enabled

    # -- recording ------------------------------------------------------
    def add_span(self, name: str, start: float, end: float, **attrs: Any) -> Span | None:
        """Record a finished span; ``start``/``end`` are raw perf_counter values.

        Returns the recorded span (``None`` when disabled), so a caller
        that learns more about the operation later can complete it.
        """
        if not self.enabled:
            return None
        span = Span(
            name=name,
            start=start - self.epoch,
            end=end - self.epoch,
            attrs={**self._context, **attrs},
        )
        self.spans.append(span)
        self._order.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Context manager recording the enclosed block as a span."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_span(name, start, time.perf_counter(), **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point event at the current time."""
        if not self.enabled:
            return
        ev = TraceEvent(
            name=name,
            time=time.perf_counter() - self.epoch,
            attrs={**self._context, **attrs},
        )
        self.events.append(ev)
        self._order.append(ev)

    @contextmanager
    def context(self, **attrs: Any) -> Iterator[None]:
        """Merge ``attrs`` into every record made inside the block."""
        if not self.enabled:
            yield
            return
        saved = self._context
        self._context = {**saved, **attrs}
        try:
            yield
        finally:
            self._context = saved

    # -- export ---------------------------------------------------------
    def iter_records(self) -> Iterator[dict[str, Any]]:
        """All records as JSON-ready dicts, header first, in record order."""
        yield {
            "type": "header",
            "schema_version": TRACE_SCHEMA_VERSION,
            "clock": "perf_counter",
            "time_unit": "seconds",
        }
        for rec in self._order:
            if isinstance(rec, Span):
                yield {
                    "type": "span",
                    "name": rec.name,
                    "t0": rec.start,
                    "t1": rec.end,
                    "dur": rec.duration,
                    **rec.attrs,
                }
            else:
                yield {"type": "event", "name": rec.name, "t": rec.time, **rec.attrs}

    def dump_jsonl(self, path) -> None:
        """Write the trace as one JSON object per line (schema-versioned)."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.iter_records():
                fh.write(json.dumps(record, default=_json_default) + "\n")

    # -- aggregation ----------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Aggregate totals: per-span-name counts/seconds, dispatch
        breakdown (send / queue-wait / compute seconds, bytes on the
        wire), and per-event-name counts."""
        per_name: dict[str, dict[str, float]] = {}
        for s in self.spans:
            agg = per_name.setdefault(s.name, {"count": 0, "total_seconds": 0.0})
            agg["count"] += 1
            agg["total_seconds"] += s.duration
        out: dict[str, Any] = {"spans": per_name}
        dispatch = [s for s in self.spans if s.name == "dispatch"]
        if dispatch:
            out["dispatch"] = {
                "count": len(dispatch),
                "send_seconds": sum(
                    s.attrs.get("send_seconds", 0.0) for s in dispatch
                ),
                "queue_wait_seconds": sum(
                    s.attrs.get("queue_wait_seconds", 0.0) for s in dispatch
                ),
                "compute_seconds": sum(
                    s.attrs.get("compute_seconds", 0.0) for s in dispatch
                ),
                "request_bytes": int(
                    sum(s.attrs.get("request_bytes", 0) for s in dispatch)
                ),
                "reply_bytes": int(
                    sum(s.attrs.get("reply_bytes", 0) for s in dispatch)
                ),
            }
        events: dict[str, int] = {}
        for e in self.events:
            events[e.name] = events.get(e.name, 0) + 1
        out["events"] = events
        return out

    def format_summary(self) -> str:
        """Human-readable rendering of :meth:`summary`."""
        info = self.summary()
        lines = ["trace summary:"]
        for name in sorted(info["spans"]):
            agg = info["spans"][name]
            lines.append(
                f"  {name:<12s} {agg['count']:>5d} spans  "
                f"{agg['total_seconds']:.4f} s total"
            )
        disp = info.get("dispatch")
        if disp:
            lines.append(
                "  dispatch breakdown: "
                f"send {disp['send_seconds']:.4f} s, "
                f"queue-wait {disp['queue_wait_seconds']:.4f} s, "
                f"compute {disp['compute_seconds']:.4f} s, "
                f"{disp['request_bytes']} B out / {disp['reply_bytes']} B in"
            )
        if info["events"]:
            rendered = ", ".join(
                f"{name}×{count}" for name, count in sorted(info["events"].items())
            )
            lines.append(f"  events: {rendered}")
        return "\n".join(lines)


#: Shared disabled tracer: what every engine layer stores when it is
#: handed no tracer.  It never records anything.
NULL_TRACER = Tracer(enabled=False)


def _json_default(obj: Any) -> Any:
    """Fallback for numpy scalars and other non-JSON-native attributes."""
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


@dataclass(frozen=True)
class TraceInterval:
    """One busy interval of one processor."""

    proc: int  # 1-based, matching the paper
    start: float
    end: float
    label: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def build_trace(
    metrics: RunMetrics, cost_model: CostModel
) -> tuple[list[TraceInterval], float]:
    """``(intervals, makespan)`` of the BSP schedule implied by a run.

    Within each superstep every processor starts at the superstep's
    begin time and works for ``work_p · cell_cost``; the superstep ends
    when the slowest processor plus communication/barrier costs are
    done (all processors then resynchronize — idle time is the gap to
    the superstep end).
    """
    intervals: list[TraceInterval] = []
    clock = 0.0
    for step in metrics.supersteps:
        backward = step.resolved_phase() == "backward"
        cell = cost_model.traceback_cell_cost if backward else cost_model.cell_cost
        for p, work in enumerate(step.work, start=1):
            if work > 0:
                intervals.append(
                    TraceInterval(
                        proc=p,
                        start=clock,
                        end=clock + work * cell,
                        label=step.label,
                    )
                )
        clock += cost_model.superstep_time(
            step.critical_work, step.comm, backward=backward
        )
    return intervals, clock


def utilization(metrics: RunMetrics, cost_model: CostModel) -> list[float]:
    """Per-processor busy fraction of the total makespan."""
    intervals, makespan = build_trace(metrics, cost_model)
    busy = [0.0] * metrics.num_procs
    for iv in intervals:
        busy[iv.proc - 1] += iv.duration
    if makespan <= 0:
        return [0.0] * metrics.num_procs
    return [b / makespan for b in busy]


def render_gantt(
    metrics: RunMetrics,
    cost_model: CostModel,
    *,
    columns: int = 80,
) -> str:
    """ASCII Gantt chart: one row per processor, time left to right.

    Busy time is drawn with a character per superstep kind
    (``F`` forward, ``x`` fix-up, ``o`` objective, ``B`` backward,
    ``b`` backward fix-up); idle time with ``.``.
    """
    if columns < 10:
        raise ValueError("need at least 10 columns")
    intervals, makespan = build_trace(metrics, cost_model)
    if makespan <= 0:
        return "(empty trace)"
    glyphs = {
        "forward": "F",
        "fixup": "x",
        "objective": "o",
        "backward": "B",
        "bwd-fixup": "b",
        "partial-products": "M",
        "prefix-scan": "s",
        "re-sweep": "r",
    }

    def glyph(label: str) -> str:
        for key, g in glyphs.items():
            if label.startswith(key):
                return g
        return "#"

    rows = []
    scale = columns / makespan
    for p in range(1, metrics.num_procs + 1):
        row = ["."] * columns
        for iv in intervals:
            if iv.proc != p:
                continue
            lo = int(iv.start * scale)
            hi = max(lo + 1, int(iv.end * scale))
            g = glyph(iv.label)
            for c in range(lo, min(hi, columns)):
                row[c] = g
        rows.append(f"P{p:<3d} |" + "".join(row) + "|")
    util = utilization(metrics, cost_model)
    rows.append(
        "util  "
        + " ".join(f"P{p + 1}={u:.0%}" for p, u in enumerate(util))
    )
    rows.append(f"makespan = {makespan:.3e} s")
    return "\n".join(rows)
