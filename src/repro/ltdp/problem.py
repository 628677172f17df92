"""The LTDP problem abstraction.

A problem presents its recurrence as a sequence of *stage operators*:
``apply_stage(i, v)`` computes ``A_i ⨂ v`` and
``apply_stage_with_pred(i, v)`` additionally returns the predecessor
product ``A_i ⋆ v``.  Problems are free to implement these with
specialized vectorized kernels (banded shifts, trellis butterflies,
striped scans) — the paper's point that "an implementation does not
need to represent the solutions in a stage as a vector and perform
matrix-vector operations" (§3).  The operator must nevertheless *be*
tropically linear; :mod:`repro.ltdp.validation` can check that, and
:meth:`LTDPProblem.stage_matrix` recovers the explicit ``A_i`` by
probing the kernel with tropical unit vectors.

Solution convention (paper Fig 2): the answer to the optimization
problem is the value of **subproblem 0 of the last stage**.  Problems
whose natural answer lives elsewhere append an extra stage that moves
it there (Viterbi's all-zero final matrix, Smith-Waterman's running
maximum; see §5).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import ProblemDefinitionError
from repro.machine.metrics import RunMetrics
from repro.semiring.tropical import NEG_INF, matvec_with_pred, tropical_matvec

__all__ = ["LTDPProblem", "LTDPSolution"]


class LTDPProblem(ABC):
    """A linear-tropical dynamic program with ``num_stages`` stages.

    Stage indices: ``0`` is the base case (``initial_vector``);
    ``1 .. num_stages`` are computed stages.  ``stage_width(i)`` is the
    length of the solution vector at stage ``i``; widths may vary
    between stages (the transformation matrices are then rectangular).
    """

    #: Absolute tolerance used by tropical-parallelism tests on this
    #: problem's vectors.  0.0 is exact and correct for integer-scored
    #: problems; floating-point log-prob problems should set ~1e-9.
    parallel_tol: float = 0.0

    #: Problems whose answer is the best subproblem over *all* stages
    #: (Smith–Waterman's "maximum of all subproblems in all stages", §5)
    #: set this and implement :meth:`stage_objective`.  Carrying a
    #: running-maximum cell inside the stage vector would make rank
    #: convergence impossible once the global optimum lies in an earlier
    #: processor's range (the accumulator never refreshes, so vectors
    #: never become parallel); instead the solvers evaluate a
    #: *shift-invariant* per-stage objective and reduce it across stages
    #: — exactly what an implementation reusing Farrar's kernel as a
    #: black box does.
    tracks_stage_objective: bool = False

    # -- shape ----------------------------------------------------------
    @property
    @abstractmethod
    def num_stages(self) -> int:
        """Number of computed stages ``n`` (≥ 1)."""

    @abstractmethod
    def stage_width(self, i: int) -> int:
        """Length of the solution vector at stage ``i`` (``0 ≤ i ≤ n``)."""

    def max_stage_width(self) -> int:
        """Widest ``stage_width(i)`` over stages ``0 .. n`` (cached).

        Solvers record this once per solve (the Table 1 "Width"
        convention); the naive per-solve scan is an O(n) Python loop
        that lands on the driver's critical path, so the first scan is
        memoized — the problem shape is immutable by contract.
        """
        cached = self.__dict__.get("_max_stage_width")
        if cached is None:
            cached = max(self.stage_width(i) for i in range(self.num_stages + 1))
            object.__setattr__(self, "_max_stage_width", cached)
        return cached

    # -- recurrence ------------------------------------------------------
    @abstractmethod
    def initial_vector(self) -> np.ndarray:
        """The base-case solution vector ``s_0``."""

    @abstractmethod
    def apply_stage(self, i: int, v: np.ndarray) -> np.ndarray:
        """``A_i ⨂ v`` for ``1 ≤ i ≤ n``; must be tropically linear in ``v``."""

    def apply_stage_with_pred(
        self, i: int, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(A_i ⨂ v, A_i ⋆ v)``.

        Default falls back to probing the explicit matrix; problems
        with fast kernels should override with a fused implementation.
        """
        return matvec_with_pred(self.stage_matrix(i), v)

    # -- sparse delta fix-up (§4.7) ---------------------------------------
    #: Problems with a real sparse fix-up kernel (LCS / Needleman–Wunsch)
    #: set this True.  The kernel must be *bit-identical* to the dense
    #: one, so implementations only advertise support when every float64
    #: operation they reorder is exact — in practice, when all scores and
    #: base-case values are integral.
    supports_sparse_fixup: bool = False

    def apply_stage_with_state(
        self, i: int, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, Any]:
        """Dense ``apply_stage_with_pred`` that also returns an opaque
        evaluation-state cache for :meth:`apply_stage_sparse`.

        The state captures whatever intermediates the sparse kernel
        needs to repair a later evaluation of the same stage from a
        slightly different input (the §4.7 resident delta state).  The
        default returns ``None`` state — no sparse repair possible.
        """
        out, pred = self.apply_stage_with_pred(i, v)
        return out, pred, None

    def apply_stage_sparse(
        self, i: int, v: np.ndarray, state: Any, crossover: float
    ) -> tuple[np.ndarray, np.ndarray, Any, float] | None:
        """Sparse re-evaluation of stage ``i`` at input ``v``.

        ``state`` is the cache returned by the stage's previous
        evaluation (:meth:`apply_stage_with_state` or a previous sparse
        call).  Returns ``(out, pred, new_state, cells_touched)`` with
        ``out``/``pred`` bit-identical to ``apply_stage_with_pred(i, v)``,
        or ``None`` to request the dense kernel (no usable state, or the
        changed-input fraction exceeds ``crossover``).  The default has
        no sparse kernel and always returns ``None``.
        """
        return None

    # -- near-duplicate detection (serving layer) --------------------------
    def dirty_stages_against(self, base: "LTDPProblem") -> "set[int] | None":
        """Stages whose transforms differ from ``base``'s, or ``None``.

        The serving layer (:mod:`repro.serve`) uses this for in-process
        (``P = 1``) classes only: it answers a near-duplicate request by
        re-sweeping the resident answer of ``base`` from the first dirty
        stage (:meth:`SequentialAnswer.repair
        <repro.ltdp.engine.inprocess.SequentialAnswer.repair>`) instead
        of solving from scratch.  When this returns a
        set ``D``, the contract is that for every stage ``i ∉ D``
        (``1 ≤ i ≤ num_stages``) ``apply_stage``/``apply_stage_with_pred``
        of ``self`` and ``base`` are **bit-identical functions**, and the
        base cases (``initial_vector``) are bit-identical too.  ``None``
        means "cannot prove a bounded diff" and forces a fresh solve —
        the safe default, returned here.
        """
        return None

    # -- costs ------------------------------------------------------------
    def stage_cost(self, i: int) -> float:
        """DP cells computed by one application of stage ``i`` (cost-model units).

        Defaults to the output width; problems with denser kernels
        (e.g. dense Viterbi mat-vec: width²) should override so the
        simulated clock reflects real per-stage work.
        """
        return float(self.stage_width(i))

    def total_cells(self) -> float:
        """Total forward-phase work of the sequential algorithm."""
        return float(sum(self.stage_cost(i) for i in range(1, self.num_stages + 1)))

    # -- explicit matrices -------------------------------------------------
    def stage_matrix(self, i: int) -> np.ndarray:
        """The explicit transformation matrix ``A_i`` (probed from the kernel).

        ``A_i[:, k] = apply_stage(i, e_k)`` with ``e_k`` the tropical
        unit vector (0̄ everywhere except 1̄ = 0 at ``k``) — exact for
        any genuinely linear kernel.  O(width²); intended for analysis
        and tests, not hot paths.
        """
        w_in = self.stage_width(i - 1)
        w_out = self.stage_width(i)
        A = np.empty((w_out, w_in), dtype=np.float64)
        for k in range(w_in):
            unit = np.full(w_in, NEG_INF)
            unit[k] = 0.0
            col = self.apply_stage(i, unit)
            if col.shape != (w_out,):
                raise ProblemDefinitionError(
                    f"stage {i} kernel returned shape {col.shape}, "
                    f"expected ({w_out},)"
                )
            A[:, k] = col
        return A

    # -- stage objective (running-maximum problems) -------------------------
    def stage_objective_cost(self, i: int) -> float:
        """Cells charged for evaluating :meth:`stage_objective` at stage ``i``.

        Defaults to the stage width (one reduction pass).  Problems
        whose stage kernel already folds the reduction into
        :meth:`stage_cost` — as Farrar's kernel tracks the column max
        inside the sweep — should return 0 to avoid double charging.
        """
        return float(self.stage_width(i))

    def stage_objective(self, i: int, vector: np.ndarray) -> tuple[float, int]:
        """``(value, cell)`` of this stage's contribution to the answer.

        Only meaningful when ``tracks_stage_objective``.  Must be
        **shift-invariant**: adding a constant to ``vector`` may not
        change the value or the cell, because parallel runs only
        guarantee stage vectors up to a tropical scalar.
        """
        raise NotImplementedError(
            "stage_objective is only defined for tracks_stage_objective problems"
        )

    # -- solution decoding --------------------------------------------------
    def extract(self, solution: "LTDPSolution") -> Any:
        """Decode the stage-level path into the problem's natural answer.

        Default returns the solution unchanged; e.g. alignment problems
        override to reconstruct the aligned strings and the Viterbi
        decoder to emit the decoded bit-stream.
        """
        return solution

    # -- conveniences ----------------------------------------------------
    def check_stage_index(self, i: int) -> None:
        if not 1 <= i <= self.num_stages:
            raise ProblemDefinitionError(
                f"stage index {i} out of range 1..{self.num_stages}"
            )

    def reference_apply(self, i: int, v: np.ndarray) -> np.ndarray:
        """Slow reference: explicit mat-vec via the probed matrix (for tests)."""
        return tropical_matvec(self.stage_matrix(i), v)


@dataclass
class LTDPSolution:
    """Result of an LTDP solve.

    Attributes
    ----------
    path:
        ``path[i]`` = index of the optimal subproblem at stage ``i``,
        for ``0 ≤ i ≤ n`` (``path[n] == 0`` by the solution convention).
        Equivalent to the paper's ``res`` with ``res[i] = path[i-1]``.
    score:
        ``s_n[0]`` — the optimal objective value.
    final_vector:
        The solution vector at the last stage.  For parallel runs this
        is guaranteed only *parallel* to the true ``s_n`` except that
        processor-1-owned suffixes are exact; ``score`` is always taken
        from an exact run context (see solver docs).
    metrics:
        Work accounting when solved on a cluster, else ``None``.
    stage_vectors:
        All stage vectors when the solver was asked to keep them.
    objective_stage, objective_cell:
        For ``tracks_stage_objective`` problems: where the global
        optimum was found (the traceback starts there; ``path`` entries
        beyond ``objective_stage`` are 0 and meaningless).
    """

    path: np.ndarray
    score: float
    final_vector: np.ndarray
    metrics: RunMetrics | None = None
    stage_vectors: list[np.ndarray] | None = field(default=None, repr=False)
    objective_stage: int | None = None
    objective_cell: int | None = None

    def __post_init__(self) -> None:
        self.path = np.asarray(self.path, dtype=np.int64)
