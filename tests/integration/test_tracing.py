"""End-to-end span tracing: the observability layer's acceptance suite.

A traced parallel solve must (a) not perturb the answer, (b) carry
exactly one ``superstep`` span per recorded superstep on every runtime,
(c) on the pool runtime, break each dispatch down into per-worker
send / queue-wait / compute time plus serialized byte counts, and
(d) surface the pool's self-healing (respawn / replay / retry) as trace
events.  A disabled or absent tracer must leave no residue — including
on a *shared* pool reused for later untraced solves.
"""

import numpy as np
import pytest

from repro.ltdp.matrix_problem import random_matrix_problem
from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.machine.executor import get_executor
from repro.machine.pool import PoolProcessExecutor
from repro.machine.trace import NULL_TRACER, Tracer
from tests.redelivery import redelivering

NUM_PROCS = 3
SEED = 11


@pytest.fixture
def problem():
    return random_matrix_problem(48, 6, np.random.default_rng(3), integer=True)


def traced_solve(problem, executor, tracer, **kwargs):
    opts = ParallelOptions(
        num_procs=NUM_PROCS, seed=SEED, executor=executor, tracer=tracer, **kwargs
    )
    return solve_parallel(problem, opts)


@pytest.mark.parametrize(
    "kind, runners",
    [
        pytest.param(kind, runners, id=kind if runners == 1 else f"{kind}-crew")
        for kind in ("serial", "thread", "pool")
        for runners in (1, 2)
    ],
)
def test_one_superstep_span_per_recorded_superstep(problem, kind, runners):
    """Each runtime has one superstep path; it records one span per
    superstep, also when a crew of redundant runners delivers every
    superstep twice."""
    tracer = Tracer()
    with redelivering(kind, runners=runners) as ex:
        traced = traced_solve(problem, ex, tracer)
    with get_executor("serial") as ex:
        base = traced_solve(problem, ex, None)

    np.testing.assert_array_equal(traced.path, base.path)
    assert traced.score == base.score

    spans = [s for s in tracer.spans if s.name == "superstep"]
    assert len(spans) == len(traced.metrics.supersteps)
    # Spans carry the superstep's identity and mirror the metrics labels.
    assert [s.attrs["label"] for s in spans] == [
        r.label for r in traced.metrics.supersteps
    ]
    assert [s.attrs["superstep"] for s in spans] == list(range(1, len(spans) + 1))
    # The driver phases bracket them.
    phases = [s.attrs["phase"] for s in tracer.spans if s.name == "phase"]
    assert phases == ["forward", "backward"]
    assert any(e.name == "solve-start" for e in tracer.events)


def test_pool_dispatch_spans_have_worker_breakdown(problem):
    tracer = Tracer()
    with get_executor("pool", max_workers=2) as ex:
        traced = traced_solve(problem, ex, tracer)

    dispatches = [s for s in tracer.spans if s.name == "dispatch"]
    assert dispatches
    for d in dispatches:
        # Per-worker identity + the full time/byte breakdown.
        assert d.attrs["worker"] in (0, 1)
        assert d.attrs["pid"] > 0
        assert d.attrs["send_seconds"] >= 0.0
        assert d.attrs["queue_wait_seconds"] >= 0.0
        assert d.attrs["compute_seconds"] >= 0.0
        assert d.attrs["request_bytes"] > 0
        assert d.attrs["reply_bytes"] > 0
        # The breakdown fits inside the dispatch span.
        assert d.attrs["compute_seconds"] <= d.duration + 1e-6
    # Dispatches belonging to solve supersteps are tagged with them.
    tagged = [d for d in dispatches if "superstep" in d.attrs]
    assert tagged
    superstep_ids = {
        s.attrs["superstep"] for s in tracer.spans if s.name == "superstep"
    }
    assert {d.attrs["superstep"] for d in tagged} <= superstep_ids


def test_recovery_events_traced_on_injected_fault(problem):
    tracer = Tracer()
    # Kill worker 0 at dispatch seq 4 (mid-forward): the pool respawns
    # it, replays its journal and re-sends the in-flight superstep.
    with PoolProcessExecutor(max_workers=2, fault_plan={4: 0}) as ex:
        traced = traced_solve(problem, ex, tracer)
    with get_executor("serial") as ex:
        base = traced_solve(problem, ex, None)

    np.testing.assert_array_equal(traced.path, base.path)
    assert traced.metrics.worker_respawns == 1

    names = [e.name for e in tracer.events]
    assert "dispatch-retry" in names
    assert "worker-respawn" in names
    assert "superstep-replay" in names
    (respawn,) = [e for e in tracer.events if e.name == "worker-respawn"]
    assert respawn.attrs["worker"] == 0
    assert respawn.attrs["pid"] > 0
    (replay,) = [e for e in tracer.events if e.name == "superstep-replay"]
    assert replay.attrs["replayed"] >= 1


def test_shared_pool_stops_tracing_after_solve(problem):
    """PoolRuntime.finish must detach the tracer: an untraced solve on
    the same (persistent) pool right after a traced one adds nothing."""
    tracer = Tracer()
    with get_executor("pool", max_workers=2) as ex:
        traced_solve(problem, ex, tracer)
        recorded = len(tracer.spans) + len(tracer.events)
        traced_solve(problem, ex, None)
    assert len(tracer.spans) + len(tracer.events) == recorded


def test_disabled_tracer_records_nothing_end_to_end(problem):
    tracer = Tracer(enabled=False)
    with get_executor("pool", max_workers=2) as ex:
        traced = traced_solve(problem, ex, tracer)
    assert tracer.spans == [] and tracer.events == []
    assert traced.metrics.num_barriers > 0


@pytest.mark.parametrize("kind", ["serial", "pool"])
@pytest.mark.parametrize("runners", [1, 2])
def test_untraced_solve_leaves_null_tracer_empty(problem, kind, runners):
    """Untraced layers call the shared NULL_TRACER unconditionally; it
    must never accumulate records, repeated deliveries included."""
    with redelivering(kind, runners=runners) as ex:
        traced_solve(problem, ex, None)
    assert NULL_TRACER.spans == [] and NULL_TRACER.events == []


def test_objective_problem_traces_three_phases():
    """Smith-Waterman-style objective problems add the objective phase
    (and the pool's pred redistribution) to the traced solve."""
    from repro.datagen.sequences import random_dna
    from repro.problems.alignment.smith_waterman import SmithWatermanProblem

    rng = np.random.default_rng(5)
    q = random_dna(8, rng)
    db = random_dna(80, rng)
    db[40:48] = q
    sw = SmithWatermanProblem(q, db)

    tracer = Tracer()
    with get_executor("pool", max_workers=2) as ex:
        traced = traced_solve(sw, ex, tracer)
    phases = [s.attrs["phase"] for s in tracer.spans if s.name == "phase"]
    assert phases == ["forward", "objective", "backward"]
    spans = [s for s in tracer.spans if s.name == "superstep"]
    assert len(spans) == len(traced.metrics.supersteps)
