"""Kernel-tier sequential solve: the fast ``P = 1`` path.

The engine's own specs, executed in-line on one
:class:`~repro.ltdp.engine.store.DriverStore`: a
:class:`~repro.ltdp.engine.specs.ForwardInitSpec` over every stage from
the true ``s_0`` (one gated block sweep when a kernel accepts the
problem, the spec's dense loop otherwise), an
:class:`~repro.ltdp.engine.specs.ObjectiveSpec` when the problem tracks
a stage objective, and a
:class:`~repro.ltdp.engine.specs.BackwardInitSpec` for the compiled
traceback.  Every stage vector is exact (processor 1 starts from a
stored exact vector, never a guessed one), so the score is ``s_n[0]``
itself and the answer is bit-identical to
:func:`~repro.ltdp.sequential.solve_sequential`.

:class:`SequentialAnswer` keeps that store resident, so the serving
layer can answer a near-duplicate request by re-sweeping only the
suffix from its first dirty stage (:meth:`SequentialAnswer.repair`):
the new suffix segment shadows the old rows.  The dense
``solve_sequential`` stays kernel-free: it is the oracle a kernel bug
must not reach.
"""

from __future__ import annotations

import time

import numpy as np

from repro.ltdp.engine.specs import BackwardInitSpec, ForwardInitSpec, ObjectiveSpec
from repro.ltdp.engine.store import DriverStore
from repro.ltdp.problem import LTDPProblem, LTDPSolution
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
        self.problem = problem
        self.use_kernels = use_kernels
        self.tracer = tracer or NULL_TRACER
        self.store = DriverStore(problem)
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
        self.problem = self.store.problem = problem
        start = 0 if problem.tracks_stage_objective else min(dirty) - 1
        self.solution = self._solve_from(start)
        return self.swept_cells

    # ------------------------------------------------------------------
    def _solve_from(self, start: int) -> LTDPSolution:
        problem, store = self.problem, self.store
        n = problem.num_stages
        objective = None
        t0 = time.perf_counter()
        with self.tracer.span("phase", phase="forward"):
            forward = ForwardInitSpec(
                proc=1, lo=start, hi=n, use_kernels=self.use_kernels
            ).execute(problem, store)
            store.apply(forward)
            if problem.tracks_stage_objective:
                objective = (
                    ObjectiveSpec(proc=1, lo=0, hi=n, include_initial=True)
                    .execute(problem, store)
                    .objective
                )
        self.forward_seconds = time.perf_counter() - t0
        self.swept_cells = forward.work
        final = store.get_s(n)
        if objective is None:
            score, end_stage, end_cell = float(final[0]), n, 0
        else:
            score, end_stage, end_cell = objective
        with self.tracer.span("phase", phase="backward"):
            path = np.zeros(n + 1, dtype=np.int64)
            path[end_stage] = end_cell
            traced = BackwardInitSpec(
                proc=1, lo=0, hi=end_stage, start_index=end_cell
            ).execute(problem, store)
            path[:end_stage] = traced.path_segment[1]
        return LTDPSolution(
            path=path,
            score=float(score),
            final_vector=final,
            objective_stage=None if objective is None else end_stage,
            objective_cell=None if objective is None else end_cell,
        )
