"""Convergence-aware fix-up scheduling: converged processors drop out.

Both fix-up loops (forward Fig 4, backward Fig 5) skip a processor
entirely — no spec, no work row, no CommEvent — once it converged on an
input boundary that has not changed since.  Re-running it would
deterministically reproduce its stored state, so skipping is invisible
to the results; these tests pin that down with a spy runtime recording
every dispatch, plus regression checks on the communication ledger
(which used to charge a full boundary send for every processor in every
round, dispatched or not).
"""

import numpy as np
import pytest

from repro.datagen.sequences import homologous_pair
from repro.ltdp.engine.forward import forward_phase, plan_fixup_round
from repro.ltdp.engine.runtime import LocalRuntime
from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.ltdp.partition import partition_stages
from repro.ltdp.sequential import solve_sequential
from repro.machine.executor import SerialExecutor
from repro.machine.metrics import RunMetrics
from repro.problems.alignment.lcs import LCSProblem

NUM_PROCS = 6


@pytest.fixture(scope="module")
def slow_instance():
    """An LCS instance that needs several fix-up rounds at P=6, with
    processors converging at different rounds (dispatch counts shrink)."""
    rng = np.random.default_rng(7)
    a, b = homologous_pair(200, rng, divergence=0.15)
    return LCSProblem(a, b, width=32)


class SpyRuntime(LocalRuntime):
    """LocalRuntime that records which processors each superstep dispatched."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dispatches: list[tuple[str, list[int]]] = []

    def run(self, specs, label=""):
        self.dispatches.append((label, [spec.proc for spec in specs]))
        return super().run(specs, label)


def run_forward_with_spy(problem, use_delta):
    opts = ParallelOptions(
        num_procs=NUM_PROCS,
        seed=0,
        executor=SerialExecutor(),
        use_delta=use_delta,
    )
    ranges = partition_stages(problem.num_stages, NUM_PROCS)
    metrics = RunMetrics(num_procs=len(ranges), num_stages=problem.num_stages)
    runtime = SpyRuntime(opts.executor, problem)
    try:
        finals = forward_phase(problem, ranges, opts, runtime, metrics)
    finally:
        runtime.finish()
    return runtime, metrics, finals


@pytest.mark.parametrize("use_delta", [False, True])
def test_converged_processors_not_redispatched(slow_instance, use_delta):
    runtime, metrics, _ = run_forward_with_spy(slow_instance, use_delta)
    fixup_rounds = [
        procs for label, procs in runtime.dispatches if label.startswith("fixup")
    ]
    assert len(fixup_rounds) >= 2  # the instance must exercise the loop
    # The scheduler must actually drop someone at some point.
    assert any(len(procs) < NUM_PROCS - 1 for procs in fixup_rounds)
    # A processor absent in one round only reappears if new input arrived;
    # on this instance convergence is monotone: once dropped, stay dropped.
    dropped: set[int] = set()
    for procs in fixup_rounds:
        assert dropped.isdisjoint(procs)
        dropped |= set(range(2, NUM_PROCS + 1)) - set(procs)
    # The metrics ledger mirrors the spy exactly.
    assert metrics.fixup_dispatched == [len(p) for p in fixup_rounds]


@pytest.mark.parametrize("use_delta", [False, True])
def test_skipping_preserves_bit_identity(slow_instance, use_delta):
    seq = solve_sequential(slow_instance)
    par = solve_parallel(
        slow_instance, num_procs=NUM_PROCS, seed=0, use_delta=use_delta
    )
    np.testing.assert_array_equal(par.path, seq.path)
    assert par.score == seq.score


def test_plan_fixup_round_skips_only_converged_unchanged(slow_instance):
    """Unit contract of the planner: a processor is skipped iff it
    converged last round AND its input boundary is unchanged."""
    opts = ParallelOptions(num_procs=3, seed=0)
    ranges = partition_stages(30, 3)
    finals = {rg.proc: np.arange(4, dtype=float) + rg.proc for rg in ranges}
    last_input = {rg.proc: np.array(finals[rg.proc - 1]) for rg in ranges[1:]}

    # Converged + unchanged input: skipped.
    specs, comm, _ = plan_fixup_round(
        ranges, finals, opts, 0.0,
        last_input=dict(last_input),
        last_converged={2: True, 3: True},
    )
    assert specs == [] and comm == []

    # Not converged: dispatched even though the input is unchanged.
    specs, comm, _ = plan_fixup_round(
        ranges, finals, opts, 0.0,
        last_input=dict(last_input),
        last_converged={2: False, 3: True},
    )
    assert [sp.proc for sp in specs] == [2]
    assert [(e.src, e.dst) for e in comm] == [(1, 2)]

    # Converged but the input moved: dispatched.
    moved = dict(last_input)
    moved[3] = moved[3] + 1.0
    specs, _, _ = plan_fixup_round(
        ranges, finals, opts, 0.0,
        last_input=moved,
        last_converged={2: True, 3: True},
    )
    assert [sp.proc for sp in specs] == [3]


@pytest.mark.parametrize("use_delta", [False, True])
def test_comm_events_only_for_dispatched_processors(slow_instance, use_delta):
    """Regression: every fix-up superstep used to record a full-boundary
    CommEvent for every processor, whether or not it was dispatched.
    The ledger must show exactly one message per dispatched processor,
    and idle processors must carry zero work."""
    sol = solve_parallel(
        slow_instance, num_procs=NUM_PROCS, seed=0, use_delta=use_delta
    )
    m = sol.metrics
    fwd_records = [s for s in m.supersteps if s.label.startswith("fixup")]
    assert [len(s.comm) for s in fwd_records] == m.fixup_dispatched
    bwd_records = [s for s in m.supersteps if s.label.startswith("bwd-fixup")]
    assert [len(s.comm) for s in bwd_records] == m.bwd_fixup_dispatched
    for record in fwd_records:
        dispatched = {e.dst for e in record.comm}
        for p in range(2, NUM_PROCS + 1):
            if p not in dispatched:
                assert record.work[p - 1] == 0.0
    # The schedule shrinks, so the total message count is strictly less
    # than the old one-per-processor-per-round accounting.
    rounds = len(fwd_records)
    assert sum(m.fixup_dispatched) < rounds * (NUM_PROCS - 1)


def test_delta_mode_ships_diffs_not_dense_boundaries(slow_instance):
    """In delta mode, re-dispatches after the first round ship sparse
    BoundaryDiffs whenever smaller: total fix-up bytes must undercut
    dense mode on a multi-round instance."""
    dense = solve_parallel(slow_instance, num_procs=NUM_PROCS, seed=0)
    delta = solve_parallel(
        slow_instance, num_procs=NUM_PROCS, seed=0, use_delta=True
    )

    def fixup_bytes(sol):
        return sum(
            e.num_bytes
            for s in sol.metrics.supersteps
            if s.label.startswith("fixup")
            for e in s.comm
        )

    assert fixup_bytes(delta) < fixup_bytes(dense)
    assert len(delta.metrics.fixup_changed_deltas) == len(
        delta.metrics.fixup_dispatched
    )
    np.testing.assert_array_equal(dense.path, delta.path)
