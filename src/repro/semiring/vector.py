"""Tropical vector predicates: parallelism, all-non-zero, normalization.

Tropical parallelism (paper §2) is the heart of the parallel algorithm's
convergence test: two vectors are parallel iff they differ by a constant
offset on their (identical) finite support.  The fix-up loop of Fig 4
exits as soon as the recomputed stage vector is parallel to the stored
one (line 21), and Lemma 3 guarantees the traceback cannot tell the
difference.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError
from repro.semiring.tropical import NEG_INF, as_tropical_vector

__all__ = [
    "is_all_nonzero",
    "is_zero_vector",
    "are_parallel",
    "first_parallel_row",
    "parallel_offset",
    "normalize",
    "random_nonzero_vector",
]


def is_all_nonzero(v: np.ndarray) -> bool:
    """True when no entry of ``v`` is the tropical zero ``-inf`` (§4.5)."""
    v = np.asarray(v, dtype=np.float64)
    return bool(np.all(np.isfinite(v)))


def is_zero_vector(v: np.ndarray) -> bool:
    """True when every entry of ``v`` is ``-inf`` (the tropical zero vector)."""
    v = np.asarray(v, dtype=np.float64)
    return bool(np.all(v == NEG_INF))


def are_parallel(u: np.ndarray, v: np.ndarray, *, tol: float = 0.0) -> bool:
    """Tropical parallelism test: ``u ∥ v`` iff ``u ⊗ x = v ⊗ y`` for scalars x, y.

    Equivalently (for non-zero vectors): the ``-inf`` masks coincide and
    ``u - v`` is constant across the finite support.  Two all-zero
    vectors are parallel (both lie on the degenerate "line").

    Parameters
    ----------
    u, v:
        Tropical vectors of equal length.
    tol:
        Absolute tolerance on offset constancy.  The paper's integral
        problems (LCS, NW, Viterbi branch metrics) need ``tol=0``;
        floating-point log-probability instances may need a small
        tolerance.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionError(f"incompatible shapes {u.shape} and {v.shape}")
    finite_u = np.isfinite(u)
    finite_v = np.isfinite(v)
    if not np.array_equal(finite_u, finite_v):
        return False
    if not finite_u.any():
        return True  # both are the zero vector
    diff = u[finite_u] - v[finite_v]
    if tol == 0.0:
        return bool(np.all(diff == diff[0]))
    return bool(np.max(diff) - np.min(diff) <= tol)


#: Elements per vectorized block of :func:`first_parallel_row`.  Blocks
#: keep every temporary below the allocator's mmap threshold (a fresh
#: 128 KiB+ array pays a page fault per page on every call) and let a
#: scan that finds an early parallel row skip the remaining rows.
_PARALLEL_BLOCK_ELEMS = 2048


def first_parallel_row(new_rows, old_rows, tol: float = 0.0, widths=None) -> int | None:
    """Index of the first ``r`` with ``are_parallel(new_rows[r], old_rows[r])``.

    ``None`` when no row pair is parallel.  Rows are tested a block at a
    time with exactly :func:`are_parallel`'s semantics (same ``-inf``
    masks, all-zero pairs parallel, exact offset equality at
    ``tol == 0``, offset spread ``<= tol`` otherwise).  ``new_rows`` /
    ``old_rows`` are sequences of rows or 2-D arrays; with ``widths``
    they are 2-D arrays whose row ``r`` counts only its first
    ``widths[r]`` entries (the rest is padding).  A block whose rows
    differ in width (banded stages change width at the band edges)
    falls back to :func:`are_parallel` row by row.
    """
    if len(new_rows) != len(old_rows):
        raise DimensionError(
            f"{len(new_rows)} new rows against {len(old_rows)} stored rows"
        )
    if not len(new_rows):
        return None
    if widths is not None and widths.min() == widths.max():
        w = int(widths[0])
        new_rows, old_rows, widths = new_rows[:, :w], old_rows[:, :w], None
    width = np.size(new_rows[0]) if widths is None else int(widths.max())
    step = max(1, _PARALLEL_BLOCK_ELEMS // max(1, width))
    for start in range(0, len(new_rows), step):
        new_block = new_rows[start : start + step]
        old_block = old_rows[start : start + step]
        if widths is not None:
            w = widths[start : start + step]
            if w.min() == w.max():
                new_block, old_block = new_block[:, : w[0]], old_block[:, : w[0]]
            else:
                new_block = [row[:n] for row, n in zip(new_block, w)]
                old_block = [row[:n] for row, n in zip(old_block, w)]
        try:
            u = np.asarray(new_block, dtype=np.float64)
            v = np.asarray(old_block, dtype=np.float64)
        except ValueError:  # ragged block
            u = v = None
        if u is None or u.ndim != 2 or u.shape != v.shape or not u.shape[1]:
            for r, (a, b) in enumerate(zip(new_block, old_block)):
                if are_parallel(a, b, tol=tol):
                    return start + r
            continue
        hits = _parallel_rows(u, v, tol)
        if hits.size:
            return start + int(hits[0])
    return None


def _parallel_rows(u: np.ndarray, v: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the rows where ``u[r] ∥ v[r]`` (2-D, equal shapes)."""
    with np.errstate(invalid="ignore", over="ignore"):
        diff = u - v
        if np.isfinite(diff).all():
            # The common case.  An infinite entry in either row makes
            # its difference non-finite, so both rows are finite
            # everywhere and there are no masks to compare.
            if tol == 0.0:
                return np.flatnonzero(np.all(diff == diff[:, :1], axis=1))
            return np.flatnonzero(np.ptp(diff, axis=1) <= tol)
        finite = np.isfinite(u)
        same_mask = np.all(finite == np.isfinite(v), axis=1)
        any_finite = finite.any(axis=1)
        if tol == 0.0:
            # Each row's offset is its first finite difference.
            first = diff[np.arange(diff.shape[0]), np.argmax(finite, axis=1)]
            constant = np.all((diff == first[:, None]) | ~finite, axis=1)
        else:
            hi = np.max(np.where(finite, diff, -np.inf), axis=1)
            lo = np.min(np.where(finite, diff, np.inf), axis=1)
            constant = hi - lo <= tol
    return np.flatnonzero(same_mask & (constant | ~any_finite))


def parallel_offset(u: np.ndarray, v: np.ndarray, *, tol: float = 0.0) -> float:
    """The constant ``c`` with ``u = v ⊗ c`` (elementwise ``u = v + c``).

    Raises ``ValueError`` when the vectors are not parallel or are both
    zero vectors (offset undefined).
    """
    if not are_parallel(u, v, tol=tol):
        raise ValueError("vectors are not tropically parallel")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    finite = np.isfinite(u)
    if not finite.any():
        raise ValueError("offset between zero vectors is undefined")
    diffs = u[finite] - v[finite]
    return float(np.median(diffs)) if tol else float(diffs[0])


def normalize(v: np.ndarray) -> np.ndarray:
    """Canonical representative of ``v``'s tropical direction.

    Subtracts the maximum finite entry, so the result has max 0.  Two
    vectors are parallel iff their normalizations are equal (on the
    nose), which gives the test-suite a convenient canonical form.
    Zero vectors normalize to themselves.
    """
    v = as_tropical_vector(v, copy=True)
    finite = np.isfinite(v)
    if not finite.any():
        return v
    v[finite] -= np.max(v[finite])
    return v


def random_nonzero_vector(
    n: int,
    rng: np.random.Generator,
    *,
    low: float = -10.0,
    high: float = 10.0,
    integer: bool = True,
) -> np.ndarray:
    """A random all-non-zero start vector ``nz`` for paper Fig 4 line 8.

    Every entry is finite, satisfying the all-non-zero requirement of
    §4.5.  By default entries are random *integers* in ``[low, high]``:
    integer-scored problems (Viterbi branch metrics, LCS, NW, SW) then
    stay bit-exact in float64 arithmetic, so the tropical-parallelism
    test of the fix-up loop is an exact comparison, just as in the
    paper's integer SIMD kernels.  ``integer=False`` gives uniform
    floats (offsets then carry ±ulp noise and problems must set a
    ``parallel_tol``).
    """
    if n <= 0:
        raise ValueError(f"vector length must be positive, got {n}")
    if not low < high:
        raise ValueError("require low < high")
    if integer:
        return rng.integers(int(low), int(high) + 1, size=n).astype(np.float64)
    return rng.uniform(low, high, size=n)
