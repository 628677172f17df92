"""Fault-injection suite for the self-healing pool runtime.

The pool's recovery contract: a worker SIGKILLed at *any* dispatch of a
parallel solve is respawned, its resident state is rebuilt by replaying
its journalled supersteps (recovery-by-replay — paper Fig 4's loop is
restartable from any boundary vector), the in-flight message is re-sent,
and the solve completes **bit-identically** to the serial executor, with
the recovery visible in ``RunMetrics``.

Also covers the pool-protocol regressions fixed alongside: the
partial-send desync (stale replies now discarded by sequence number),
worker tracebacks in :class:`ExecutorError`, dispatch timeouts, health
checks, and finalizer-based worker reaping.
"""

import gc
import multiprocessing as mp
import os
import signal
import time
from functools import partial

import numpy as np
import pytest

from repro.exceptions import ExecutorError
from repro.ltdp.matrix_problem import random_matrix_problem
from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.machine.executor import SerialExecutor
from repro.machine.pool import FAULT_PLAN_ENV, PoolProcessExecutor

NUM_PROCS = 4
SEED = 3


# --- module-level helpers: pool payloads must be picklable -------------

def _square(x):
    return x * x


def _task_pid():
    return os.getpid()


def _sleep_then_pid():
    time.sleep(2.0)
    return os.getpid()


def _make_closure(x):  # closes over a local → unpicklable on purpose
    def f():
        return x

    return f


def _die():
    os._exit(3)


def _ns_fail(ns):
    raise ValueError("resident kaboom")


def _make_problem():
    rng = np.random.default_rng(7)
    return random_matrix_problem(48, 6, rng, integer=True)


def _solve(problem, executor):
    opts = ParallelOptions(num_procs=NUM_PROCS, seed=SEED, executor=executor)
    return solve_parallel(problem, opts)


@pytest.fixture(scope="module")
def baseline():
    """Serial reference solution + the pooled solve's dispatch schedule.

    A clean pooled solve issues one ``_dispatch`` per superstep after
    the posted problem install (seq 1), so superstep labels map 1:1 onto
    dispatch sequence numbers — which is what fault plans key off.  The
    posted session drop from ``PoolRuntime.finish`` closes the solve
    with the seq after the last superstep (``"drop"``).
    """
    problem = _make_problem()
    serial = _solve(problem, SerialExecutor())
    with PoolProcessExecutor(max_workers=2) as ex:
        pooled = _solve(problem, ex)
        # Pin the framing: without faults, seq == dispatch index
        # (posted install + supersteps + posted session drop).
        assert ex.dispatch_count == 2 + len(pooled.metrics.supersteps)
        assert ex.recovery_stats.respawns == 0
    np.testing.assert_array_equal(pooled.path, serial.path)
    seq_of = {"reset": 1}
    for i, record in enumerate(pooled.metrics.supersteps):
        seq_of.setdefault(record.label, 2 + i)
    seq_of["drop"] = 2 + len(pooled.metrics.supersteps)
    return problem, serial, seq_of


def _assert_identical_to_serial(got, serial):
    np.testing.assert_array_equal(got.path, serial.path)
    assert got.score == serial.score
    m, base = got.metrics, serial.metrics
    assert m.forward_fixup_iterations == base.forward_fixup_iterations
    assert m.backward_fixup_iterations == base.backward_fixup_iterations
    assert m.fixup_stages == base.fixup_stages
    assert m.converged_first_iteration == base.converged_first_iteration


class TestCrashRecoveryMidSolve:
    """Kill one worker at a chosen superstep; the solve must not notice."""

    @pytest.mark.parametrize(
        "phase,worker",
        [
            ("reset", 0),  # on the posted problem install
            ("forward", 0),  # mid-forward initial pass
            ("forward", 1),
            ("fixup[1]", 0),  # mid-fix-up
            ("fixup[1]", 1),
            ("backward", 0),  # mid-traceback
            ("bwd-fixup[1]", 1),
        ],
    )
    def test_kill_recovers_bit_identical(self, baseline, phase, worker):
        problem, serial, seq_of = baseline
        if phase not in seq_of:
            pytest.skip(f"this instance has no {phase!r} superstep")
        plan = {seq_of[phase]: worker}
        with PoolProcessExecutor(max_workers=2, fault_plan=plan) as ex:
            got = _solve(problem, ex)
            assert ex.recovery_stats.respawns == 1
            assert ex.recovery_stats.retries >= 1
        _assert_identical_to_serial(got, serial)
        # Recovery is surfaced on the solve's metrics.
        assert got.metrics.worker_respawns == 1
        assert got.metrics.dispatch_retries >= 1
        if phase not in ("reset", "forward"):
            # By fix-up time the worker's journal holds replayable specs.
            assert got.metrics.replayed_supersteps >= 1

    @pytest.mark.parametrize("worker", [0, 1])
    def test_kill_on_posted_drop_recovers_in_next_solve(self, baseline, worker):
        """The session drop is posted, not awaited: a worker killed on it
        is found dead by the next solve's first dispatch, respawned, and
        rebuilt with the *new* session."""
        problem, serial, seq_of = baseline
        with PoolProcessExecutor(
            max_workers=2, fault_plan={seq_of["drop"]: worker}
        ) as ex:
            first = _solve(problem, ex)
            assert ex.recovery_stats.respawns == 0  # nothing waited on it
            second = _solve(problem, ex)
            assert ex.recovery_stats.respawns == 1
        _assert_identical_to_serial(first, serial)
        _assert_identical_to_serial(second, serial)
        assert second.metrics.worker_respawns == 1

    def test_two_kills_in_one_solve(self, baseline):
        problem, serial, seq_of = baseline
        # Seq 2 is the forward pass; the first recovery consumes a ping
        # and a replay seq, so seq 6 lands on a later superstep dispatch.
        with PoolProcessExecutor(
            max_workers=2, fault_plan={2: 0, 6: 1}
        ) as ex:
            got = _solve(problem, ex)
            assert ex.recovery_stats.respawns == 2
        _assert_identical_to_serial(got, serial)
        assert got.metrics.worker_respawns == 2

    def test_env_driven_fault_plan(self, baseline, monkeypatch):
        problem, serial, seq_of = baseline
        monkeypatch.setenv(FAULT_PLAN_ENV, f"{seq_of['forward']}:1")
        with PoolProcessExecutor(max_workers=2) as ex:
            got = _solve(problem, ex)
            assert ex.recovery_stats.respawns == 1
        _assert_identical_to_serial(got, serial)

    def test_state_survives_into_next_solve_after_recovery(self, baseline):
        """A pool that healed mid-solve is a healthy pool afterwards."""
        problem, serial, seq_of = baseline
        with PoolProcessExecutor(
            max_workers=2, fault_plan={seq_of["fixup[1]"]: 0}
        ) as ex:
            first = _solve(problem, ex)
            second = _solve(problem, ex)
            assert ex.recovery_stats.respawns == 1  # only the planned one
        _assert_identical_to_serial(first, serial)
        _assert_identical_to_serial(second, serial)
        # The second solve caused no recovery, and its metrics say so.
        assert second.metrics.worker_respawns == 0


class TestGenericTaskRecovery:
    def test_run_superstep_recovers_from_kill(self):
        # Seq 1 is the very first dispatch.
        with PoolProcessExecutor(max_workers=2, fault_plan={1: 0}) as ex:
            tasks = [partial(_square, i) for i in range(5)]
            assert ex.run_superstep(tasks) == [0, 1, 4, 9, 16]
            assert ex.recovery_stats.respawns == 1
            # Pool remains healthy.
            assert ex.run_superstep(tasks) == [0, 1, 4, 9, 16]
            assert ex.recovery_stats.respawns == 1

    def test_check_health_respawns_killed_worker(self):
        with PoolProcessExecutor(max_workers=2) as ex:
            pids = ex.worker_pids()
            os.kill(pids[0], signal.SIGKILL)
            new_pids = ex.check_health()
            assert ex.recovery_stats.respawns == 1
            assert new_pids[0] != pids[0]
            assert new_pids[1] == pids[1]
            assert ex.run_superstep([partial(_square, 3)]) == [9]


class TestProtocolRegressions:
    def test_partial_send_failure_does_not_poison_next_superstep(self):
        """Regression (pre-fault-tolerance pool): a dispatch that failed
        after its first send left an unread reply in worker 0's pipe,
        silently corrupting every later superstep.  Sequence-numbered
        framing discards the stale reply instead."""
        with PoolProcessExecutor(max_workers=2) as ex:
            with pytest.raises(ExecutorError, match="picklable"):
                # Worker 0's send succeeds, worker 1's raises on pickle.
                ex.run_superstep([_task_pid, _make_closure(1)])
            tasks = [partial(_square, i) for i in range(4)]
            assert ex.run_superstep(tasks) == [0, 1, 4, 9]
            # And again, to prove the pipes are fully drained.
            assert ex.run_superstep(tasks) == [0, 1, 4, 9]

    def test_call_slots_failure_names_slot_with_traceback(self):
        with PoolProcessExecutor(max_workers=2) as ex:
            with pytest.raises(
                ExecutorError, match="processor 4 failed"
            ) as excinfo:
                ex.call_slots([(4, _ns_fail, ())])
            text = str(excinfo.value)
            assert "Traceback (most recent call last)" in text
            assert "resident kaboom" in text
            assert "_ns_fail" in text

    def test_dispatch_timeout_fails_fast_and_marks_broken(self):
        with PoolProcessExecutor(max_workers=1, dispatch_timeout=0.2) as ex:
            with pytest.raises(ExecutorError, match="dispatch timeout"):
                ex.run_superstep([_sleep_then_pid])
            # A hung protocol is unrecoverable: the executor says so
            # instead of silently desynchronizing.
            with pytest.raises(ExecutorError, match="broken"):
                ex.run_superstep([_task_pid])

    def test_worker_death_exhausts_retries_then_raises(self):
        """A task that kills its own worker dies again on every re-send;
        after ``max_retries`` respawns the pool gives up loudly."""
        with PoolProcessExecutor(
            max_workers=1, max_retries=2, retry_backoff=0.01
        ) as ex:
            with pytest.raises(ExecutorError, match="kept dying"):
                ex.run_superstep([_die])
            assert ex.recovery_stats.respawns == 2
            with pytest.raises(ExecutorError, match="broken"):
                ex.run_superstep([_task_pid])


class TestLifecycle:
    def test_workers_reaped_on_gc_without_close(self):
        ex = PoolProcessExecutor(max_workers=2)
        assert ex.run_superstep([partial(_square, 2)]) == [4]
        pids = set(ex.worker_pids())
        del ex
        gc.collect()
        alive = {p.pid for p in mp.active_children()}
        assert not (pids & alive)

    def test_context_manager_reaps_workers(self):
        with PoolProcessExecutor(max_workers=2) as ex:
            pids = set(ex.worker_pids())
        alive = {p.pid for p in mp.active_children()}
        assert not (pids & alive)
