"""Kernel-tier sequential solve: the fast ``P = 1`` path.

One gated :func:`~repro.kernels.block_sweep` over all stages from the
true ``s_0``, then :func:`~repro.ltdp.sequential.backward_sequential`.
Every stage vector is exact (the sweep never starts from a guessed
vector), so the score is ``s_n[0]`` itself and the answer is
bit-identical to :func:`~repro.ltdp.sequential.solve_sequential`.
Whenever the tier is off for the problem, no kernel accepts the sweep,
the sweep hits an all-0̄ stage, or the problem tracks a stage objective,
the dense :func:`~repro.ltdp.sequential.forward_sequential` runs instead
(and raises the proper :class:`~repro.exceptions.ZeroVectorError`).

:class:`SequentialAnswer` keeps that exact forward state resident, so
the serving layer can answer a near-duplicate request by re-sweeping
only the suffix from its first dirty stage (:meth:`SequentialAnswer.
repair`).  The dense ``solve_sequential`` stays kernel-free: it is the
oracle a kernel bug must not reach.
"""

from __future__ import annotations

import time

from repro.ltdp.problem import LTDPProblem, LTDPSolution
from repro.ltdp.sequential import forward_sequential, sequential_solution
from repro.machine.trace import NULL_TRACER, Tracer

__all__ = ["SequentialAnswer"]


class SequentialAnswer:
    """The exact forward state and answer of one problem, repairable.

    Solving runs the forward sweep inside a ``phase`` (forward) span and
    the traceback inside a ``phase`` (backward) span of ``tracer``.
    ``forward_seconds`` and ``swept_cells`` are the wall-clock and the
    cells (``stage_cost`` units) of the last forward sweep.
    """

    def __init__(
        self,
        problem: LTDPProblem,
        *,
        use_kernels: bool,
        tracer: Tracer | None = None,
    ) -> None:
        n = problem.num_stages
        self.problem = problem
        self.use_kernels = use_kernels
        self.tracer = tracer or NULL_TRACER
        self.vectors: list = [None] * (n + 1)
        self.vectors[0] = problem.initial_vector()
        self.preds: list = [None] * (n + 1)
        self.forward_seconds = 0.0
        self.swept_cells = 0.0
        self.solution = self._solve_from(0)

    def repair(self, problem: LTDPProblem, dirty: set[int]) -> float:
        """Re-answer for ``problem``, which differs from the resident one
        only at the ``dirty`` stages (``dirty_stages_against`` proved it).

        Stages before ``min(dirty)`` are untouched; the suffix is swept
        again from the stored exact vector (a stage-objective problem,
        whose optimum may lie in the prefix, is solved again whole).
        Returns the cells recomputed.
        """
        self.problem = problem
        start = 0 if problem.tracks_stage_objective else min(dirty) - 1
        self.solution = self._solve_from(start)
        return self.swept_cells

    # ------------------------------------------------------------------
    def _solve_from(self, start: int) -> LTDPSolution:
        t0 = time.perf_counter()
        with self.tracer.span("phase", phase="forward"):
            best = self._forward_from(start)
        self.forward_seconds = time.perf_counter() - t0
        with self.tracer.span("phase", phase="backward"):
            return sequential_solution(self.vectors[-1], self.preds, best)

    def _forward_from(self, start: int) -> tuple[float, int, int] | None:
        """Sweep stages ``start + 1 .. n``; returns the stage objective's
        optimum (``None`` for problems without one)."""
        problem = self.problem
        n = problem.num_stages
        if self.use_kernels and not problem.tracks_stage_objective:
            from repro.kernels import block_sweep

            sweep = block_sweep(problem, start, n, self.vectors[start])
            if sweep is not None and sweep.zero_index is None:
                self.vectors[start + 1 :] = [sweep.value(r) for r in range(len(sweep))]
                self.preds[start + 1 :] = [sweep.pred(r) for r in range(len(sweep))]
                self.swept_cells = float(sweep.costs.sum())
                return None
        _, preds, vectors, best = forward_sequential(
            problem,
            keep_stage_vectors=True,
            start=start,
            start_vector=self.vectors[start],
        )
        self.vectors[start + 1 :] = vectors[start + 1 :]
        self.preds[start + 1 :] = preds[start + 1 :]
        self.swept_cells = float(
            sum(problem.stage_cost(i) for i in range(start + 1, n + 1))
        )
        return best
