"""Cross-executor bit-identity of the kernel tier.

The tier axis of the PR 5 equivalence matrix: every (executor x
problem) cell must produce byte-identical results with the block-kernel
tier forced on, forced off, and in auto mode — including §4.7 delta
mode, adversarial instruction delivery (every superstep delivered
twice, the repeat in reverse order, or once in reverse order), and a
worker SIGKILLed mid-program.  The fast path must be invisible in
everything except the wall clock: path, score, fix-up iteration counts
and the per-processor work ledger all join the comparison.
"""

import numpy as np
import pytest

from repro.datagen.packets import make_received_packet
from repro.datagen.sequences import homologous_pair
from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.machine.executor import get_executor
from repro.machine.pool import PoolProcessExecutor
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.convolutional import VOYAGER
from tests.redelivery import (
    DuplicatingPool,
    DuplicatingSerialExecutor,
    DuplicatingThreadExecutor,
)

NUM_PROCS = 3
SEED = 11


def build_problems():
    rng = np.random.default_rng(41)
    a, b = homologous_pair(60, rng, divergence=0.08)
    _, viterbi = make_received_packet(VOYAGER, 60, rng, error_rate=0.03)
    return {
        "lcs": LCSProblem(a, b, width=10),
        "lcs-full": LCSProblem(a, b, width=70),
        "nw": NeedlemanWunschProblem(a, b, width=10),
        "viterbi": viterbi,
    }


PROBLEMS = build_problems()


def solve_with(problem, executor, **overrides):
    opts = ParallelOptions(
        num_procs=NUM_PROCS, seed=SEED, executor=executor, **overrides
    )
    return solve_parallel(problem, opts)


def assert_identical(got, base):
    np.testing.assert_array_equal(got.path, base.path)
    assert got.score == base.score  # bit-identical, never approx
    assert got.objective_stage == base.objective_stage
    assert got.objective_cell == base.objective_cell
    m, b = got.metrics, base.metrics
    assert m.forward_fixup_iterations == b.forward_fixup_iterations
    assert m.backward_fixup_iterations == b.backward_fixup_iterations
    assert m.fixup_stages == b.fixup_stages
    assert m.work_by_processor() == b.work_by_processor()


@pytest.fixture(scope="module")
def dense_baselines():
    """Serial solves with the tier forced off: the ground truth."""
    return {
        name: solve_with(p, get_executor("serial"), use_kernels=False)
        for name, p in PROBLEMS.items()
    }


class TestTierAxis:
    @pytest.mark.parametrize("kind", ["serial", "thread", "pool"])
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_tier_on_bit_identical_everywhere(self, name, kind, dense_baselines):
        ex = get_executor(kind, max_workers=2)
        try:
            got = solve_with(PROBLEMS[name], ex, use_kernels=True)
        finally:
            ex.close()
        assert_identical(got, dense_baselines[name])

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_auto_mode_matches_sequential(self, name, dense_baselines):
        seq = solve_sequential(PROBLEMS[name])
        got = solve_with(PROBLEMS[name], get_executor("serial"), use_kernels=None)
        np.testing.assert_array_equal(got.path, seq.path)
        assert got.score == seq.score
        assert_identical(got, dense_baselines[name])

    @pytest.mark.parametrize("kind", ["serial", "pool"])
    @pytest.mark.parametrize("name", ["lcs", "nw"])
    def test_tier_composes_with_delta_mode(self, name, kind, dense_baselines):
        """With ``use_kernels=True`` the block path covers the initial
        pass and every fix-up round, §4.7 delta rounds included (dense
        sweeps that keep no sparse state).  The answer must match the
        dense baseline."""
        ex = get_executor(kind, max_workers=2)
        try:
            got = solve_with(PROBLEMS[name], ex, use_kernels=True, use_delta=True)
        finally:
            ex.close()
        base = dense_baselines[name]
        np.testing.assert_array_equal(got.path, base.path)
        assert got.score == base.score
        assert (
            got.metrics.forward_fixup_iterations
            == base.metrics.forward_fixup_iterations
        )

    def test_env_kill_switch_end_to_end(self, monkeypatch, dense_baselines):
        monkeypatch.setenv("REPRO_KERNELS", "off")
        got = solve_with(PROBLEMS["nw"], get_executor("serial"), use_kernels=None)
        assert_identical(got, dense_baselines["nw"])


class TestTierUnderAdversarialDelivery:
    @pytest.mark.parametrize("name", ["nw", "viterbi", "lcs"])
    def test_duplicate_delivery(self, name, dense_baselines):
        """Each superstep runs twice on the driver-resident store, the
        repeat in reverse (LIFO) order; both passes must agree."""
        with DuplicatingSerialExecutor() as ex:
            got = solve_with(PROBLEMS[name], ex, use_kernels=True)
            assert ex.repeats > 0
        assert_identical(got, dense_baselines[name])

    @pytest.mark.parametrize("name", ["lcs", "viterbi"])
    def test_lifo_delivery(self, name, dense_baselines):
        """Every superstep's tasks run in reverse order on the thread
        pool."""
        with DuplicatingThreadExecutor(max_workers=2, runners=1, lifo=True) as ex:
            got = solve_with(PROBLEMS[name], ex, use_kernels=True)
            assert ex.reversals > 0
        assert_identical(got, dense_baselines[name])

    def test_duplicates_on_pool_with_delta(self, dense_baselines):
        with DuplicatingPool(max_workers=2) as ex:
            got = solve_with(
                PROBLEMS["nw"], ex, use_kernels=True, use_delta=True
            )
            assert ex.repeats > 0
        base = dense_baselines["nw"]
        np.testing.assert_array_equal(got.path, base.path)
        assert got.score == base.score


class TestTierUnderFaults:
    @pytest.mark.parametrize("name", ["viterbi", "nw"])
    def test_sigkill_mid_program_stays_bit_identical(self, name, dense_baselines):
        """A worker SIGKILLed at the forward dispatch is respawned and
        its journal replayed — with block kernels doing the replayed
        work.  Recovery must not perturb a single byte."""
        with PoolProcessExecutor(max_workers=2, fault_plan={2: 0}) as ex:
            got = solve_with(PROBLEMS[name], ex, use_kernels=True)
            assert ex.recovery_stats.respawns == 1
        assert_identical(got, dense_baselines[name])
        assert got.metrics.worker_respawns == 1

    def test_sigkill_during_fixup_with_tier(self, dense_baselines):
        with PoolProcessExecutor(max_workers=2, fault_plan={4: 1}) as ex:
            got = solve_with(PROBLEMS["lcs"], ex, use_kernels=True)
            assert ex.recovery_stats.respawns == 1
        assert_identical(got, dense_baselines["lcs"])
