"""Cost model: converts exact work/communication counts into seconds.

The parallel algorithm runs for real (every fix-up stage is genuinely
recomputed); what a 1-core host cannot produce is *wall-clock overlap*.
The cost model supplies the clock:

``time = Σ_supersteps [ max_p work_p · cell_cost + barrier + Σ msgs (α + bytes·β) ]``

which is the standard BSP/LogP-style machine abstraction.  The default
communication constants are representative of the paper's FDR
InfiniBand fat-tree (~1-2 µs latency, ~6 GB/s per-link bandwidth);
``cell_cost`` should be **calibrated** against the real kernel with
:func:`calibrate_cell_cost` so that absolute throughput numbers (Mb/s,
GCUPS) are grounded in measured single-core performance.

Speedup/efficiency shapes are dominated by the work terms (they come
from the real algorithm); the constants only set absolute scale and the
small-packet overhead regime.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, replace
from typing import Callable

from repro.machine.metrics import RunMetrics

__all__ = ["CostModel", "ProcChoice", "calibrate_cell_cost", "choose_num_procs"]

#: Measured wall-clock of one no-op superstep on the persistent worker
#: pool: dispatch, worker wake-up and reply (median of 79 rounds, 2
#: workers, Python 3.11, 2-vCPU Intel Xeon; EXPERIMENTS.md "Runtime
#: overhead").  Every superstep of a pooled solve pays it on top of its
#: compute, which is why it, not ``CostModel.barrier_latency``, prices
#: the P choice below.
POOL_ROUND_TRIP_SECONDS = 207e-6


@dataclass(frozen=True)
class CostModel:
    """A BSP-style machine cost model.

    Attributes
    ----------
    cell_cost:
        Seconds to compute one DP cell with the problem's kernel
        (calibrate per kernel!).
    barrier_latency:
        Seconds per global barrier.
    comm_latency:
        Per-message latency α in seconds.
    comm_byte_cost:
        Per-byte cost β in seconds (1/bandwidth).
    traceback_cell_cost:
        Seconds per backward-phase step (a table lookup, far cheaper
        than a forward cell).
    """

    cell_cost: float = 2e-9
    barrier_latency: float = 5e-6
    comm_latency: float = 2e-6
    comm_byte_cost: float = 1.0 / 6e9
    traceback_cell_cost: float = 2e-10

    def __post_init__(self) -> None:
        for name in (
            "cell_cost",
            "barrier_latency",
            "comm_latency",
            "comm_byte_cost",
            "traceback_cell_cost",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    # ------------------------------------------------------------------
    def superstep_time(self, critical_work: float, comm_events, *, backward: bool = False) -> float:
        cell = self.traceback_cell_cost if backward else self.cell_cost
        t = critical_work * cell + self.barrier_latency
        for e in comm_events:
            t += self.comm_latency + e.num_bytes * self.comm_byte_cost
        return t

    def run_time(self, metrics: RunMetrics) -> float:
        """Simulated wall-clock time of a recorded run.

        Each superstep is priced by its explicit
        :attr:`~repro.machine.metrics.SuperstepRecord.phase`; records
        without one fall back to label classification, which raises on
        unknown labels rather than silently pricing them as forward work.
        """
        total = 0.0
        for s in metrics.supersteps:
            total += self.superstep_time(
                s.critical_work, s.comm, backward=s.resolved_phase() == "backward"
            )
        return total

    def sequential_time(self, num_cells: float, *, traceback_steps: float = 0.0) -> float:
        """Time of the sequential algorithm: no barriers, no messages."""
        return num_cells * self.cell_cost + traceback_steps * self.traceback_cell_cost

    def with_cell_cost(self, cell_cost: float) -> "CostModel":
        return replace(self, cell_cost=cell_cost)


def calibrate_cell_cost(
    kernel: Callable[[], object],
    cells_per_call: float,
    *,
    min_seconds: float = 0.05,
    max_calls: int = 10_000,
) -> float:
    """Measure the real per-cell cost of a stage kernel.

    Runs ``kernel`` repeatedly until ``min_seconds`` of wall time
    accumulates (at least 3 calls) and returns seconds per DP cell.
    This grounds the simulator's absolute throughput numbers in the
    actual single-core performance of *this* host and *this* kernel —
    the same role Spiral's measured sequential throughput plays in the
    paper's Fig 7.
    """
    if cells_per_call <= 0:
        raise ValueError("cells_per_call must be positive")
    kernel()  # warm-up (allocations, caches)
    calls = 0
    start = _time.perf_counter()
    elapsed = 0.0
    while (elapsed < min_seconds or calls < 3) and calls < max_calls:
        kernel()
        calls += 1
        elapsed = _time.perf_counter() - start
    return elapsed / (calls * cells_per_call)


def _min_pool_supersteps(problem) -> int:
    """Fewest supersteps a ``P > 1`` solve of ``problem`` takes on the pool.

    The forward pass and at least one fix-up round, the backward pass
    and at least one backward fix-up round; stage-objective problems add
    the objective reduction.  A lower bound, so the prediction is
    optimistic for the parallel side.
    """
    return 5 if problem.tracks_stage_objective else 4


@dataclass(frozen=True)
class ProcChoice:
    """Outcome of :func:`choose_num_procs`.

    ``parallel_procs`` / ``parallel_seconds`` describe the best
    ``P >= 2`` candidate (``0`` / ``inf`` when the ceiling is 1);
    ``num_procs`` is that ``P`` if it beats ``seq_seconds``, else 1.
    """

    num_procs: int
    seq_seconds: float
    parallel_procs: int
    parallel_seconds: float


def choose_num_procs(
    seq_seconds: float,
    ceiling: int,
    problem,
    executor,
    *,
    round_trip: float = POOL_ROUND_TRIP_SECONDS,
) -> ProcChoice:
    """Pick ``P`` in ``1 .. min(ceiling, num_stages)`` for ``problem``,
    whose sequential solve takes ``seq_seconds``, on ``executor``.

    Each ``P >= 2`` is predicted as ``T_seq / min(P, workers) +
    supersteps · round_trip``, where ``workers`` is the executor's
    ``max_workers`` (1 for executors that run supersteps in-process) and
    ``supersteps`` the fewest a pooled solve of ``problem`` takes.  The
    fastest wins (the smallest ``P`` on ties, since processors past the
    worker count add fix-up work the model does not charge).  ``P = 1``
    is kept whenever no prediction beats the sequential time: parallel
    DP must not cost more than the sequential algorithm it replaces.
    """
    workers = getattr(executor, "max_workers", 1)
    supersteps = _min_pool_supersteps(problem)
    best_p, best_t = 0, float("inf")
    for p in range(2, min(ceiling, problem.num_stages) + 1):
        t = seq_seconds / min(p, workers) + supersteps * round_trip
        if t < best_t:
            best_p, best_t = p, t
    chosen = best_p if best_t < seq_seconds else 1
    return ProcChoice(chosen, seq_seconds, best_p, best_t)
