"""The driver's reply read: a blocking ``recv_bytes``, no polling loop.

Without a ``dispatch_timeout`` the driver blocks in the read; a worker
that dies there must still be detected, because its end of the pipe
closes and the read ends in EOF.  With a timeout the read polls for the
remaining time, so a hung worker still fails fast and a worker that
dies during the poll is still a crash, not a timeout.

A lost reply hangs rather than fails, so every blocking call here runs
in a daemon thread joined with a deadline.
"""

import os
import signal
import threading
import time

import pytest

from repro.exceptions import ExecutorError
from repro.machine.pool import PoolProcessExecutor

#: Seconds a sleeping worker takes; well past every detection bound.
SLEEP = 3.0


def _ns_sleep_pid(ns, seconds):
    time.sleep(seconds)
    return os.getpid()


def _ns_pid(ns):
    return os.getpid()


def _call_in_thread(fn, *args):
    """Run ``fn(*args)`` in a daemon thread; returns (thread, box)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # surfaced by the test's assertions
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


def _kill_when_busy(pid, delay=0.3):
    time.sleep(delay)  # the driver is blocked in the read by now
    os.kill(pid, signal.SIGKILL)


class TestBlockingRead:
    def test_worker_killed_during_blocking_read_is_detected(self):
        with PoolProcessExecutor(max_workers=1, retry_backoff=0.01) as ex:
            assert ex.dispatch_timeout is None
            (victim,) = ex.worker_pids()
            killer = threading.Thread(target=_kill_when_busy, args=(victim,))
            t0 = time.monotonic()
            thread, box = _call_in_thread(
                ex.call_slots, [(1, _ns_sleep_pid, (SLEEP,))]
            )
            killer.start()
            killer.join()
            # The crash is seen at once and the call is re-sent to the
            # respawned worker, which then sleeps its full term.
            thread.join(timeout=SLEEP + 20)
            assert not thread.is_alive(), "the driver never noticed the dead worker"
            assert "error" not in box, box.get("error")
            (pid,) = box["value"]
            assert pid != victim
            assert ex.recovery_stats.respawns == 1
            assert ex.recovery_stats.retries == 1
            assert time.monotonic() - t0 < 2 * SLEEP
            assert ex.call_slots([(1, _ns_pid, ())]) == [pid]

    def test_dispatch_timeout_fires_on_a_hung_worker(self):
        with PoolProcessExecutor(max_workers=1, dispatch_timeout=0.3) as ex:
            ex.call_slots([(1, _ns_pid, ())])  # workers up
            t0 = time.monotonic()
            thread, box = _call_in_thread(
                ex.call_slots, [(1, _ns_sleep_pid, (SLEEP,))]
            )
            thread.join(timeout=SLEEP + 20)
            assert not thread.is_alive()
            assert isinstance(box.get("error"), ExecutorError)
            assert "dispatch timeout" in str(box["error"])
            assert time.monotonic() - t0 < SLEEP
            with pytest.raises(ExecutorError, match="broken"):
                ex.call_slots([(1, _ns_pid, ())])

    def test_worker_killed_during_timed_read_is_a_crash(self):
        with PoolProcessExecutor(
            max_workers=1, dispatch_timeout=3 * SLEEP, retry_backoff=0.01
        ) as ex:
            (victim,) = ex.worker_pids()
            killer = threading.Thread(target=_kill_when_busy, args=(victim,))
            thread, box = _call_in_thread(
                ex.call_slots, [(1, _ns_sleep_pid, (2.0,))]
            )
            killer.start()
            killer.join()
            thread.join(timeout=3 * SLEEP + 20)
            assert not thread.is_alive()
            assert "error" not in box, box.get("error")
            assert box["value"] != [victim]
            assert ex.recovery_stats.respawns == 1
