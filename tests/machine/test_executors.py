"""Tests for the superstep executors."""

import time

import pytest

from repro.exceptions import ExecutorError
from repro.machine.executor import (
    EXECUTOR_KINDS,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
)
from repro.machine.pool import PoolProcessExecutor


def make_tasks(n=5):
    return [lambda i=i: i * i for i in range(n)]


class TestSerialExecutor:
    def test_results_in_order(self):
        assert SerialExecutor().run_superstep(make_tasks()) == [0, 1, 4, 9, 16]

    def test_empty(self):
        assert SerialExecutor().run_superstep([]) == []

    def test_exception_propagates(self):
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            SerialExecutor().run_superstep([boom])


class TestThreadExecutor:
    def test_results_in_order(self):
        with ThreadExecutor(max_workers=3) as ex:
            assert ex.run_superstep(make_tasks()) == [0, 1, 4, 9, 16]

    def test_exception_becomes_executor_error_with_index(self):
        """Matches the worker pool's contract: ExecutorError naming the
        0-based task index and its 1-based processor slot, original
        exception chained."""

        def ok():
            return 1

        def boom():
            raise ValueError("boom")

        with ThreadExecutor() as ex:
            with pytest.raises(
                ExecutorError, match=r"task 1 \(processor 2\)"
            ) as excinfo:
                ex.run_superstep([ok, boom, ok])
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_failure_drains_running_siblings(self):
        """After a failed superstep no sibling task is still running."""
        finished = []

        def boom():
            raise ValueError("boom")

        def slow(i):
            def task():
                time.sleep(0.05)
                finished.append(i)

            return task

        with ThreadExecutor(max_workers=4) as ex:
            with pytest.raises(ExecutorError):
                ex.run_superstep([boom, slow(1), slow(2), slow(3)])
            # Started siblings were drained (ran to completion) before the
            # raise; cancelled ones never ran.  Either way nothing is
            # still in flight now.
            snapshot = list(finished)
        assert snapshot == finished

    def test_close_idempotent(self):
        ex = ThreadExecutor()
        ex.close()
        ex.close()


class TestFactory:
    def test_kinds(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("thread"), ThreadExecutor)
        pool = get_executor("pool", max_workers=1)
        try:
            assert isinstance(pool, PoolProcessExecutor)
        finally:
            pool.close()

    def test_executor_kinds_constant_matches_factory(self):
        for kind in EXECUTOR_KINDS:
            kwargs = {} if kind == "serial" else {"max_workers": 1}
            ex = get_executor(kind, **kwargs)
            ex.close()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            get_executor("gpu")
        # The retired fork-per-task kind is not silently remapped.
        assert "process" not in EXECUTOR_KINDS
        with pytest.raises(ValueError):
            get_executor("process")

    def test_all_executors_agree(self):
        tasks = make_tasks(8)
        expected = [t() for t in tasks]
        for kind in ("serial", "thread"):
            ex = get_executor(kind)
            try:
                assert ex.run_superstep(tasks) == expected
            finally:
                ex.close()
