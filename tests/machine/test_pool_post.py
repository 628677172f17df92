"""One-way posts on the worker pool and the pool runtime built on them.

``PoolProcessExecutor.post`` sends a namespace call to every worker
under one sequence number and does not wait.  ``PoolRuntime`` posts its
problem install and its session drop this way, so a solve costs no
install or drop round trip.  These tests pin what that must not break:

- a post keeps pipe order, and its reply is discarded as stale by the
  next dispatch;
- no solve's session outlives the next dispatch on the pool;
- an install that fails in the workers surfaces as a typed
  :class:`ExecutorError` that names the session, not a bare ``KeyError``;
- a worker that is dead when a post is sent is recovered by the next
  dispatch;
- a traced post still counts its request and reply bytes.

A desynchronized post hangs rather than fails, so CI runs this file
under a hard timeout.
"""

import os
import signal

import numpy as np
import pytest

from repro.exceptions import ExecutorError
from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.ltdp.matrix_problem import MatrixLTDPProblem, random_matrix_problem
from repro.machine.executor import SerialExecutor
from repro.machine.pool import PoolProcessExecutor
from repro.machine.trace import Tracer

DRIVER_PID = os.getpid()


def _ns_set(ns, key, value):
    ns[key] = value


def _ns_get(ns, key):
    return ns.get(key)


def _ns_sessions(ns):
    return sorted(ns.get("sessions", {}))


class _DriverOnlyProblem(MatrixLTDPProblem):
    """Pickles in the driver but refuses to unpickle anywhere else."""

    def __setstate__(self, state):
        if os.getpid() != DRIVER_PID:
            raise RuntimeError("this problem cannot be installed in a worker")
        self.__dict__.update(state)


class _FailsInWorkers(MatrixLTDPProblem):
    """Installs fine, then fails its first stage inside a worker."""

    def apply_stage_with_pred(self, i, v):
        if os.getpid() != DRIVER_PID:
            raise RuntimeError("stage kaboom")
        return super().apply_stage_with_pred(i, v)


def _problem(seed=7):
    return random_matrix_problem(48, 6, np.random.default_rng(seed), integer=True)


def _recast(cls, problem):
    return cls(
        problem.initial_vector(),
        [problem.stage_matrix(i) for i in range(1, problem.num_stages + 1)],
    )


def _solve(problem, executor, **kw):
    return solve_parallel(
        problem, ParallelOptions(num_procs=4, seed=3, executor=executor, **kw)
    )


class TestPost:
    def test_post_is_one_seq_and_keeps_pipe_order(self):
        with PoolProcessExecutor(max_workers=2) as ex:
            before = ex.dispatch_count
            assert ex.post(_ns_set, ("marker", 41)) is None
            assert ex.dispatch_count == before + 1
            # The next dispatch runs after the post and skips its reply.
            assert ex.broadcast(_ns_get, ("marker",)) == [41, 41]
            assert ex.call_slots([(1, _ns_get, ("marker",))]) == [41]

    def test_many_posts_then_one_dispatch(self):
        with PoolProcessExecutor(max_workers=2) as ex:
            for i in range(20):
                ex.post(_ns_set, ("marker", i))
            assert ex.broadcast(_ns_get, ("marker",)) == [19, 19]
            assert all(ex.ping(w) for w in range(2))

    def test_post_to_a_dead_worker_is_recovered_by_the_next_dispatch(self):
        with PoolProcessExecutor(max_workers=2) as ex:
            pids = ex.worker_pids()
            os.kill(pids[0], signal.SIGKILL)
            ex._procs[0].join(timeout=5)
            ex.post(_ns_set, ("marker", 1))  # must not raise
            assert ex.call_slots([(2, _ns_get, ("marker",))]) == [1]
            ex.call_slots([(1, _ns_get, ("marker",))])  # respawns worker 0
            assert ex.recovery_stats.respawns == 1

    def test_post_after_close_raises(self):
        ex = PoolProcessExecutor(max_workers=1)
        ex.close()
        with pytest.raises(ExecutorError, match="closed"):
            ex.post(_ns_set, ("marker", 1))

    def test_unpicklable_post_raises_executor_error(self):
        with PoolProcessExecutor(max_workers=1) as ex:
            with pytest.raises(ExecutorError, match="picklable"):
                ex.post(_ns_set, ("marker", lambda: 1))
            # The protocol is intact afterwards.
            assert ex.broadcast(_ns_get, ("marker",)) == [None]

    def test_traced_post_span_is_completed_by_its_stale_reply(self):
        tracer = Tracer()
        with PoolProcessExecutor(max_workers=2) as ex:
            ex.set_tracer(tracer)
            ex.post(_ns_set, ("marker", b"x" * 1000))
            posts = [s for s in tracer.spans if s.name == "dispatch"]
            assert sorted(s.attrs["worker"] for s in posts) == [0, 1]
            for span in posts:
                assert span.attrs["kind"] == "post"
                assert span.attrs["request_bytes"] > 1000
                assert span.attrs["reply_bytes"] == 0  # not read yet
            ex.set_tracer(None)
            ex.broadcast(_ns_get, ("marker",))  # untraced; drains the replies
        for span in posts:
            assert span.attrs["reply_bytes"] > 0
            assert 0.0 <= span.attrs["compute_seconds"] <= span.duration + 1e-6
            assert span.attrs["queue_wait_seconds"] >= 0.0
        assert len([s for s in tracer.spans if s.name == "dispatch"]) == 2


class TestPoolRuntimeSessions:
    def test_no_session_survives_the_next_dispatch(self):
        problem = _problem()
        with PoolProcessExecutor(max_workers=2) as ex:
            for _ in range(3):
                _solve(problem, ex)
            assert ex.broadcast(_ns_sessions) == [[], []]

    def test_failed_solve_drops_its_session_too(self):
        base = _problem()
        with PoolProcessExecutor(max_workers=2) as ex:
            with pytest.raises(ExecutorError, match="stage kaboom"):
                _solve(_recast(_FailsInWorkers, base), ex)
            assert ex.broadcast(_ns_sessions) == [[], []]

    def test_failed_install_is_a_typed_error_naming_the_session(self):
        base = _problem()
        with PoolProcessExecutor(max_workers=2) as ex:
            with pytest.raises(ExecutorError) as excinfo:
                _solve(_recast(_DriverOnlyProblem, base), ex)
            text = str(excinfo.value)
            assert "LookupError" in text and "KeyError" not in text
            assert "pool session 'solve-" in text
            assert "is not installed" in text
            # The pool is healthy afterwards: a good problem solves.
            good = _solve(base, ex)
        serial = _solve(base, SerialExecutor())
        np.testing.assert_array_equal(good.path, serial.path)
        assert good.score == serial.score

    def test_solve_dispatches_only_supersteps_plus_two_posts(self):
        problem = _problem()
        with PoolProcessExecutor(max_workers=2) as ex:
            first = _solve(problem, ex)
            after_first = ex.dispatch_count
            _solve(problem, ex)
            assert ex.dispatch_count - after_first == 2 + len(first.metrics.supersteps)
