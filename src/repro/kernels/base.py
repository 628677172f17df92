"""Contracts of the raw-speed kernel tier.

A :class:`StageBlockKernel` turns *many* forward stages into one
dispatch: at plan time it lays the problem's stage transforms out as
contiguous arrays (branch-metric matrices, band geometry tables), and
at run time it sweeps a whole ``(lo .. hi]`` stage-block through a
vectorized add-compare-select loop — compiled when a backend is
available (:mod:`repro.kernels.backend`), pure NumPy otherwise.

The tier is an *optimization*, never a semantic: it computes stage
vectors and predecessors only, and every result is proven against the
dense per-stage kernel.  Plans are only built when
the problem's transforms are provably representable in the kernel's
layout; every dispatch re-checks its input against the dense kernel's
expectations and returns ``None`` (automatic dense fallback) on any
mismatch; and the registry cross-checks the first, one seeded interior
and the last kernel-computed block stages against the dense per-stage
kernel bit-for-bit before accepting a sweep
(:func:`repro.kernels.registry.block_sweep`).  Each kernel class
documents its gate in ``bit_identity_gate`` — a declaration the
registry enforces at registration time and ``repro lint`` (REP006)
enforces statically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BlockSweep", "StageBlockKernel"]


@dataclass
class BlockSweep:
    """One kernel dispatch's output: stages ``lo+1 .. hi`` of a sweep.

    Row ``r`` of ``values`` / ``preds`` is stage ``lo + 1 + r``, one
    contiguous ``(k, W)`` allocation each.  Where stage widths differ
    (banded stages near the band edges, a width-1 selector stage)
    ``widths[r]`` is row ``r``'s width and the rest of the row is
    padding; :meth:`value` / :meth:`pred` return the trimmed views.  The
    engine treats stage vectors as immutable, so sharing the block is
    safe.
    """

    #: ``(k, W)`` float64 stage vectors.
    values: np.ndarray
    #: ``(k, W)`` int64 predecessor vectors.
    preds: np.ndarray
    #: Per-row widths (int64), or ``None`` when every row spans ``W``.
    widths: np.ndarray | None
    #: Per-stage modeled work, identical to ``problem.stage_cost(i)``.
    costs: np.ndarray
    #: Offset of the first all-0̄ stage in the block (``None`` if none) —
    #: found by the kernel itself so the spec can raise the same
    #: ZeroVectorError the dense path would, without a per-stage scan.
    zero_index: int | None
    #: Trailing stages computed by the problem's own dense per-stage
    #: method (the width-1 selector), which the registry's last-stage
    #: gate skips: its target is the last *kernel-computed* stage.
    dense_tail: int = 0

    def __len__(self) -> int:
        return len(self.values)

    def value(self, r: int) -> np.ndarray:
        """Stage ``lo + 1 + r``'s vector (a view, trimmed to its width)."""
        if self.widths is None:
            return self.values[r]
        return self.values[r, : self.widths[r]]

    def pred(self, r: int) -> np.ndarray:
        """Stage ``lo + 1 + r``'s predecessors (a view, trimmed)."""
        if self.widths is None:
            return self.preds[r]
        return self.preds[r, : self.widths[r]]


class StageBlockKernel:
    """A fast-path executor for whole stage-blocks of one problem family.

    Subclasses are registered per *concrete* problem class (never for
    subclasses — an override of any stage method would silently break
    the layout assumptions) and must declare ``bit_identity_gate``: a
    human-readable statement of every condition under which the kernel
    is allowed to replace the dense per-stage path.  The registry
    rejects kernels without one, and the REP006 lint rule enforces the
    declaration statically.
    """

    #: Short stable identifier (plan-cache key component).
    name: str = ""

    #: Required declaration of the kernel's exactness gate (REP006).
    bit_identity_gate: str = ""

    def fingerprint(self, problem) -> tuple:
        """Hashable content key of everything the plan depends on.

        Problems are re-pickled into every pool worker, so plans are
        cached by *content*, not identity; two equal fingerprints must
        imply bit-identical plans.
        """
        raise NotImplementedError

    def plan(self, problem):
        """Build the preplanned layout, or ``None`` when ineligible.

        ``None`` is cached: the problem permanently takes the dense
        path for this kernel.
        """
        raise NotImplementedError

    def run(self, problem, plan, lo: int, hi: int, v: np.ndarray) -> BlockSweep | None:
        """Sweep stages ``lo+1 .. hi`` from input ``v``.

        Returns ``None`` whenever any per-call gate fails (input shape
        mismatch, range outside the planned stages, exactness
        cross-check failure) — the caller falls back to the dense
        per-stage loop, which also owns raising the proper errors for
        genuinely invalid inputs.
        """
        raise NotImplementedError

    def price(self, problem, plan, path: np.ndarray) -> float | None:
        """Vectorized exact-score pricing of a traced path, or ``None``.

        Only returns a value when the summation is provably exact in
        any association order (integral edge weights within the float64
        integer range); otherwise the driver's sequential scalar loop
        runs.
        """
        return None
