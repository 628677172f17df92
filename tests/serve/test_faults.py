"""A pool worker SIGKILLed under concurrent clients of a pooled service.

Every class is pinned to the pool, and the pool's fault plan kills one
worker just before the first request's backward superstep.  The pool
respawns the worker, rebuilds its resident state by replaying the
solve's recorded forward and fix-up instructions, and re-sends the
in-flight message.  The serving contract under that failure: every
ticket resolves exactly once, within a bounded time, either ``ok`` and
bit-identical to ``solve_sequential`` or as a typed ``error``; none
hangs.
"""

import threading

import numpy as np

from repro.datagen.sequences import homologous_pair
from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.machine.pool import PoolProcessExecutor
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.serve import STATUS_ERROR, STATUS_OK, LTDPService

SIZE = 40
WIDTH = 8
NUM_THREADS = 4
PER_THREAD = 4


def _problem(cls, rng):
    return cls(*homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH)


def _backward_seq(problem):
    """Dispatch seq of the backward superstep of a clean pooled solve:
    seq 1 is the problem broadcast, then one dispatch per superstep."""
    with PoolProcessExecutor(max_workers=2) as pool:
        solution = solve_parallel(
            problem, ParallelOptions(num_procs=2, executor=pool, seed=0)
        )
    labels = [record.label for record in solution.metrics.supersteps]
    return 2 + labels.index("backward")


def test_worker_killed_mid_stream_resolves_every_ticket_once(pin_pool_path):
    first = _problem(LCSProblem, np.random.default_rng(299))
    plan = {_backward_seq(first): 1}
    results = []  # (problem, ticket)
    lock = threading.Lock()
    with PoolProcessExecutor(max_workers=2, fault_plan=plan) as pool:
        service = LTDPService(executor=pool, num_procs=2, max_queue=64).start()

        def client(tid):
            rng = np.random.default_rng(300 + tid)
            for k in range(PER_THREAD):
                problem = _problem((LCSProblem, NeedlemanWunschProblem)[k % 2], rng)
                ticket = service.submit(problem)
                with lock:
                    results.append((problem, ticket))

        try:
            results.append((first, service.submit(first)))
            threads = [
                threading.Thread(target=client, args=(tid,))
                for tid in range(NUM_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
            responses = [t.result(timeout=120.0) for _, t in results]
        finally:
            stats = service.close()
        respawns = pool.recovery_stats.respawns

    assert len(results) == 1 + NUM_THREADS * PER_THREAD
    ids = [r.request_id for r in responses]
    assert len(set(ids)) == len(ids)
    for (problem, ticket), response in zip(results, responses):
        assert response.request_id == ticket.request_id
        assert response.status in (STATUS_OK, STATUS_ERROR)
        if response.status == STATUS_OK:
            expected = solve_sequential(problem)
            np.testing.assert_array_equal(response.solution.path, expected.path)
            assert response.solution.score == expected.score
        else:
            assert "failure" in response.reason
    # The kill landed in the first request, and replay recovered it.
    assert responses[0].status == STATUS_OK
    assert responses[0].solution.metrics.worker_respawns == 1
    assert responses[0].solution.metrics.replayed_supersteps > 0
    total = stats["total"]
    # Each ticket was observed exactly once: no request answered twice.
    assert total["requests"] == len(results)
    assert total["ok"] + total["errors"] == len(results)
    assert total["rejected"] == 0
    assert respawns == 1
