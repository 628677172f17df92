"""Processor-count sweeps: the x-axes of paper Figures 7-11.

:func:`scaling_sweep` runs the *real* parallel algorithm once per
processor count, prices each run with the cluster's cost model, and
returns the speedup/efficiency series relative to the sequential
algorithm priced by the same model.  ``converged_first_iteration``
distinguishes the paper's filled vs non-filled data points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.ltdp.parallel import ParallelOptions, solve_parallel
from repro.ltdp.problem import LTDPProblem
from repro.machine.cluster import SimCluster

__all__ = [
    "ScalingPoint",
    "ScalingCurve",
    "scaling_sweep",
    "throughput_mbps",
    "throughput_gcups",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One (processor count, performance) point of a scaling curve."""

    num_procs: int
    time_seconds: float
    speedup: float
    efficiency: float
    fixup_iterations: int
    converged_first_iteration: bool
    total_work_cells: float

    @property
    def filled(self) -> bool:
        """Paper Figs 7/9/10 mark one-iteration convergence with filled points."""
        return self.converged_first_iteration


@dataclass
class ScalingCurve:
    """A full sweep over processor counts for one workload."""

    label: str
    sequential_time: float
    points: list[ScalingPoint]

    def speedups(self) -> list[float]:
        return [p.speedup for p in self.points]

    def efficiencies(self) -> list[float]:
        return [p.efficiency for p in self.points]

    def best(self) -> ScalingPoint:
        return max(self.points, key=lambda p: p.speedup)


def scaling_sweep(
    problem: LTDPProblem,
    cluster: SimCluster,
    proc_counts: Sequence[int],
    *,
    label: str = "",
    seed: int = 0,
    use_delta: bool = False,
    make_options: Callable[[int], ParallelOptions] | None = None,
) -> ScalingCurve:
    """Sweep processor counts on one LTDP instance.

    The sequential baseline is the same problem priced with the same
    cost model (forward cells + traceback steps), mirroring the paper's
    "speedup over the sequential performance of the baseline".
    """
    seq_time = cluster.sequential_time(
        problem.total_cells(), traceback_steps=float(problem.num_stages)
    )
    points: list[ScalingPoint] = []
    for p in proc_counts:
        if make_options is not None:
            opts = make_options(p)
        else:
            opts = ParallelOptions(
                num_procs=p,
                seed=seed,
                use_delta=use_delta,
                # Modeled time prices the recorded work, and only the
                # per-stage path runs the sparse §4.7 kernels (a block
                # kernel sweep recomputes whole stages).
                use_kernels=False if use_delta else None,
                exact_score=False,
                executor=cluster.executor,
            )
        solution = solve_parallel(problem, opts)
        metrics = solution.metrics
        assert metrics is not None
        t = cluster.with_procs(p).time_of(metrics)
        points.append(
            ScalingPoint(
                num_procs=p,
                time_seconds=t,
                speedup=seq_time / t if t > 0 else float("inf"),
                efficiency=(seq_time / t / p) if t > 0 else float("inf"),
                fixup_iterations=metrics.forward_fixup_iterations,
                converged_first_iteration=metrics.converged_first_iteration,
                total_work_cells=metrics.total_work,
            )
        )
    return ScalingCurve(label=label, sequential_time=seq_time, points=points)


def throughput_mbps(num_payload_bits: int, time_seconds: float) -> float:
    """Viterbi decoder throughput in megabits/second (paper Fig 7 y-axis)."""
    if time_seconds <= 0:
        raise ValueError("time must be positive")
    return num_payload_bits / time_seconds / 1e6


def throughput_gcups(num_cells: float, time_seconds: float) -> float:
    """Alignment throughput in giga cell-updates/second (Figs 8-10 y-axis)."""
    if time_seconds <= 0:
        raise ValueError("time must be positive")
    return num_cells / time_seconds / 1e9
