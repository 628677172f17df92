"""Tests for the persistent worker-pool executor.

The pool's contract: workers are spawned once, their PIDs stay stable
across supersteps *and* solves, and per-slot state survives between
calls in the worker's namespace.
"""

import os

import numpy as np
import pytest

from repro.exceptions import ExecutorError
from repro.ltdp.matrix_problem import random_matrix_problem
from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.machine.pool import PoolProcessExecutor


# --- module-level helpers: run_superstep tasks must be picklable -------

def _square(x):
    return x * x


def _task_pid():
    return os.getpid()


def _boom():
    raise ValueError("boom")


def _make_square(x):
    def task():
        return x * x

    return task


# namespace functions for call_slots / broadcast ------------------------

def _ns_put(ns, key, value):
    ns[key] = value
    return os.getpid()


def _ns_get(ns, key):
    return ns.get(key)


def _ns_pid(ns):
    return os.getpid()


class TestGenericTasks:
    def test_results_in_order(self):
        with PoolProcessExecutor(max_workers=2) as ex:
            from functools import partial

            tasks = [partial(_square, i) for i in range(7)]
            assert ex.run_superstep(tasks) == [0, 1, 4, 9, 16, 25, 36]

    def test_empty_superstep(self):
        with PoolProcessExecutor(max_workers=1) as ex:
            assert ex.run_superstep([]) == []

    def test_at_most_max_workers_processes(self):
        with PoolProcessExecutor(max_workers=2) as ex:
            pids = ex.run_superstep([_task_pid for _ in range(8)])
            assert len(set(pids)) <= 2
            assert set(pids) <= set(ex.worker_pids())

    def test_pids_stable_across_supersteps(self):
        with PoolProcessExecutor(max_workers=2) as ex:
            first = set(ex.run_superstep([_task_pid for _ in range(4)]))
            for _ in range(5):
                again = set(ex.run_superstep([_task_pid for _ in range(4)]))
                assert again == first

    def test_pid_log_subset_of_spawned_workers(self):
        with PoolProcessExecutor(max_workers=3) as ex:
            spawned = set(ex.worker_pids())
            for _ in range(3):
                ex.run_superstep([_task_pid for _ in range(6)])
            assert ex.pid_log
            for step_pids in ex.pid_log:
                assert step_pids <= spawned

    def test_error_contract_names_task_and_slot(self):
        """Failures name the 0-based task index AND its 1-based slot,
        and carry the worker-side traceback."""
        with PoolProcessExecutor(max_workers=2) as ex:
            with pytest.raises(
                ExecutorError, match=r"task 1 \(processor 2\) failed"
            ) as excinfo:
                ex.run_superstep([_task_pid, _boom, _task_pid])
            assert "Traceback (most recent call last)" in str(excinfo.value)
            assert "_boom" in str(excinfo.value)
            # The pool survives a failed superstep.
            assert ex.run_superstep([_task_pid]) != []

    def test_unpicklable_task_raises_executor_error(self):
        closure = _make_square(3)  # closes over a local, not picklable
        with PoolProcessExecutor(max_workers=1) as ex:
            with pytest.raises(ExecutorError, match="picklable"):
                ex.run_superstep([closure])

    def test_invalid_max_workers(self):
        with pytest.raises(ValueError):
            PoolProcessExecutor(max_workers=0)

    def test_close_idempotent(self):
        ex = PoolProcessExecutor(max_workers=1)
        ex.run_superstep([_task_pid])
        ex.close()
        ex.close()


class TestResidentState:
    def test_state_persists_between_calls(self):
        with PoolProcessExecutor(max_workers=2) as ex:
            ex.call_slots([(1, _ns_put, ("x", 11)), (2, _ns_put, ("x", 22))])
            values = ex.call_slots([(1, _ns_get, ("x",)), (2, _ns_get, ("x",))])
            assert values == [11, 22]

    def test_slots_map_to_fixed_workers(self):
        with PoolProcessExecutor(max_workers=2) as ex:
            # Slots 1 and 3 share worker 0; slot 2 lives on worker 1.
            p1, p2, p3 = ex.call_slots(
                [(1, _ns_pid, ()), (2, _ns_pid, ()), (3, _ns_pid, ())]
            )
            assert p1 == p3
            assert p1 != p2
            # Stable on repeat.
            assert ex.call_slots([(1, _ns_pid, ())]) == [p1]

    def test_shared_worker_shares_namespace(self):
        """Slots co-located on one worker see one namespace dict; the
        LTDP runtime namespaces its keys per slot for this reason."""
        with PoolProcessExecutor(max_workers=1) as ex:
            ex.call_slots([(1, _ns_put, ("k", "from-slot-1"))])
            assert ex.call_slots([(2, _ns_get, ("k",))]) == ["from-slot-1"]

    def test_broadcast_hits_every_worker(self):
        with PoolProcessExecutor(max_workers=3) as ex:
            pids = ex.broadcast(_ns_pid)
            assert sorted(pids) == sorted(ex.worker_pids())

    def test_call_slots_error_names_slot(self):
        def bad(ns):  # local → unpicklable, but check the message path
            raise RuntimeError("nope")

        with PoolProcessExecutor(max_workers=1) as ex:
            with pytest.raises(ExecutorError):
                ex.call_slots([(4, bad, ())])


class TestSolveIntegration:
    def test_stable_pids_across_whole_solves(self):
        rng = np.random.default_rng(5)
        problem = random_matrix_problem(40, 6, rng, integer=True)
        with PoolProcessExecutor(max_workers=2) as ex:
            opts = ParallelOptions(num_procs=4, executor=ex)
            first = solve_parallel(problem, opts)
            baseline_pids = set(ex.worker_pids())
            second = solve_parallel(problem, opts)
            np.testing.assert_array_equal(first.path, second.path)
            assert first.score == second.score
            # Every superstep of both solves ran on the original workers.
            assert ex.pid_log
            for step_pids in ex.pid_log:
                assert step_pids <= baseline_pids
            assert len(baseline_pids) <= 2
