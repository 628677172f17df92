"""Tests for execution-trace construction and rendering."""

import json
import time

import numpy as np
import pytest

from repro.ltdp.matrix_problem import random_matrix_problem
from repro.ltdp.engine.driver import solve_parallel
from repro.machine.cost_model import CostModel
from repro.machine.metrics import RunMetrics, SuperstepRecord
from repro.machine.trace import (
    TRACE_SCHEMA_VERSION,
    Tracer,
    build_trace,
    render_gantt,
    utilization,
)


def simple_metrics():
    m = RunMetrics(num_procs=2)
    m.record(SuperstepRecord(label="forward", work=[10.0, 5.0]))
    m.record(SuperstepRecord(label="fixup[1]", work=[0.0, 4.0]))
    return m


class TestBuildTrace:
    def test_interval_structure(self):
        cm = CostModel(cell_cost=1.0, barrier_latency=0.0)
        intervals, makespan = build_trace(simple_metrics(), cm)
        # Three busy intervals: P1 forward, P2 forward, P2 fixup.
        assert len(intervals) == 3
        assert makespan == pytest.approx(14.0)
        p1 = [iv for iv in intervals if iv.proc == 1]
        assert p1[0].duration == pytest.approx(10.0)

    def test_supersteps_do_not_overlap(self):
        cm = CostModel(cell_cost=1.0, barrier_latency=2.0)
        intervals, _ = build_trace(simple_metrics(), cm)
        fixup = [iv for iv in intervals if iv.label.startswith("fixup")]
        forward = [iv for iv in intervals if iv.label == "forward"]
        assert min(f.start for f in fixup) >= max(f.end for f in forward)

    def test_barrier_shifts_following_superstep(self):
        no_barrier = build_trace(simple_metrics(), CostModel(cell_cost=1.0, barrier_latency=0.0))
        with_barrier = build_trace(simple_metrics(), CostModel(cell_cost=1.0, barrier_latency=3.0))
        assert with_barrier[1] == pytest.approx(no_barrier[1] + 6.0)

    def test_utilization_bounds(self):
        cm = CostModel(cell_cost=1.0, barrier_latency=0.0)
        util = utilization(simple_metrics(), cm)
        assert len(util) == 2
        assert all(0.0 <= u <= 1.0 for u in util)
        # P1 works 10 of 14; P2 works 9 of 14.
        assert util[0] == pytest.approx(10 / 14)
        assert util[1] == pytest.approx(9 / 14)


class TestRenderGantt:
    def test_renders_all_processors(self):
        cm = CostModel(cell_cost=1.0)
        text = render_gantt(simple_metrics(), cm, columns=40)
        assert text.count("|") == 4  # two rows, two bars each
        assert "P1" in text and "P2" in text
        assert "makespan" in text

    def test_glyphs_present(self):
        cm = CostModel(cell_cost=1.0)
        text = render_gantt(simple_metrics(), cm, columns=40)
        assert "F" in text and "x" in text

    def test_columns_validated(self):
        with pytest.raises(ValueError):
            render_gantt(simple_metrics(), CostModel(), columns=5)

    def test_real_run_traces(self):
        rng = np.random.default_rng(0)
        p = random_matrix_problem(40, 4, rng, integer=True)
        par = solve_parallel(p, num_procs=4)
        text = render_gantt(par.metrics, CostModel(cell_cost=1e-6), columns=60)
        assert text.count("P") >= 4


class TestTracer:
    def test_disabled_tracer_is_falsy_and_records_nothing(self):
        t = Tracer(enabled=False)
        assert not t
        with t.span("phase", phase="forward"):
            pass
        t.add_span("superstep", 0.0, 1.0)
        t.event("worker-respawn", worker=0)
        with t.context(superstep=1):
            t.add_span("dispatch", 0.0, 1.0)
        assert t.spans == [] and t.events == []

    def test_enabled_tracer_is_truthy(self):
        assert Tracer()

    def test_span_context_manager_times_and_tags(self):
        t = Tracer()
        with t.span("phase", phase="forward"):
            pass
        (span,) = t.spans
        assert span.name == "phase"
        assert span.attrs == {"phase": "forward"}
        assert span.end >= span.start >= 0.0
        assert span.duration == span.end - span.start

    def test_add_span_is_epoch_relative(self):
        t = Tracer()
        now = time.perf_counter()
        t.add_span("superstep", now, now + 0.5, label="forward")
        (span,) = t.spans
        assert span.start >= 0.0
        assert span.duration == pytest.approx(0.5)

    def test_context_attrs_merge_into_spans_and_events(self):
        t = Tracer()
        with t.context(superstep=3, label="fixup[1]"):
            now = time.perf_counter()
            t.add_span("dispatch", now, now, worker=1)
            t.event("dispatch-retry", worker=1)
        t.event("outside")
        assert t.spans[0].attrs == {"superstep": 3, "label": "fixup[1]", "worker": 1}
        assert t.events[0].attrs == {"superstep": 3, "label": "fixup[1]", "worker": 1}
        assert t.events[1].attrs == {}

    def test_iter_records_header_first(self):
        t = Tracer()
        with t.span("phase", phase="forward"):
            t.event("solve-start")
        records = list(t.iter_records())
        assert records[0] == {
            "type": "header",
            "schema_version": TRACE_SCHEMA_VERSION,
            "clock": "perf_counter",
            "time_unit": "seconds",
        }
        kinds = {r["type"] for r in records[1:]}
        assert kinds == {"span", "event"}

    def test_dump_jsonl_roundtrips(self, tmp_path):
        t = Tracer()
        with t.span("phase", phase="forward", width=np.int64(8)):
            pass
        path = tmp_path / "trace.jsonl"
        t.dump_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["schema_version"] == TRACE_SCHEMA_VERSION
        assert lines[1]["name"] == "phase"
        assert lines[1]["width"] == 8  # numpy scalar serialized as plain int
        assert lines[1]["dur"] == pytest.approx(lines[1]["t1"] - lines[1]["t0"])

    def test_summary_aggregates_spans_and_dispatch(self):
        t = Tracer()
        now = time.perf_counter()
        t.add_span("superstep", now, now + 1.0, label="forward")
        t.add_span(
            "dispatch",
            now,
            now + 0.25,
            worker=0,
            send_seconds=0.01,
            queue_wait_seconds=0.02,
            compute_seconds=0.2,
            request_bytes=100,
            reply_bytes=50,
        )
        t.event("worker-respawn", worker=0)
        s = t.summary()
        assert s["spans"]["superstep"]["count"] == 1
        assert s["dispatch"]["count"] == 1
        assert s["dispatch"]["compute_seconds"] == pytest.approx(0.2)
        assert s["dispatch"]["request_bytes"] == 100
        assert s["events"]["worker-respawn"] == 1
        assert "superstep" in t.format_summary()
