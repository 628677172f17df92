"""``first_parallel_row`` is ``are_parallel`` row by row, vectorized.

The kernel-tier fix-up finds its convergence stage with one
``first_parallel_row`` call per chunk, so the vectorized test must agree
with the scalar predicate on every input the fix-up can meet: ``-inf``
masks (equal and unequal), all-zero rows, signed zeros, offsets that
overflow to ``inf``, and both the exact (``tol == 0``) and the spread
(``tol > 0``) form of parallelism.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionError
from repro.semiring import vector as vector_mod
from repro.semiring.vector import are_parallel, first_parallel_row

# Row entries: -inf, signed zeros, small integers, a fraction, and
# magnitudes whose differences overflow.
ELEMS = st.sampled_from(
    [-math.inf, 0.0, -0.0, 1.0, -3.0, 7.0, 0.25, 1e308, -1e308]
)
OFFSETS = st.sampled_from([0.0, -0.0, 2.0, -5.0, 0.25, 1e-12])
#: Includes spreads a tweak can produce exactly (1.0, 2.0), so the
#: ``<= tol`` boundary is exercised.
TOLS = st.sampled_from([0.0, -0.0, 1e-9, 0.3, 1.0, 2.0])
TWEAKS = st.sampled_from([1.0, 2.0, -1.0])


def _scalar(new_rows, old_rows, tol):
    with np.errstate(over="ignore", invalid="ignore"):
        for r, (u, v) in enumerate(zip(new_rows, old_rows)):
            if are_parallel(u, v, tol=tol):
                return r
    return None


@st.composite
def row_pairs(draw, ragged=False):
    """``(new_rows, old_rows)``: each old row is a shifted copy of its new
    row (parallel), a shifted copy with one entry replaced or moved by a
    small step (parallel only within a tolerance), or unrelated."""
    k = draw(st.integers(1, 12))
    width = draw(st.integers(1, 5))
    new_rows, old_rows = [], []
    for _ in range(k):
        w = draw(st.integers(1, 5)) if ragged else width
        u = np.array(draw(st.lists(ELEMS, min_size=w, max_size=w)), dtype=np.float64)
        kind = draw(st.sampled_from(["shift", "tweak", "random", "zero"]))
        if kind == "zero":
            u = np.full(w, -math.inf)
            v = np.full(w, -math.inf)
        elif kind == "random":
            v = np.array(draw(st.lists(ELEMS, min_size=w, max_size=w)), dtype=np.float64)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                v = u + draw(OFFSETS)
            if kind == "tweak":
                j = draw(st.integers(0, w - 1))
                if draw(st.booleans()):
                    v[j] = draw(ELEMS)
                else:
                    v[j] += draw(TWEAKS)
        new_rows.append(u)
        old_rows.append(v)
    return new_rows, old_rows


class TestFirstParallelRow:
    @settings(max_examples=400, deadline=None)
    @given(row_pairs(), TOLS, st.sampled_from([1, 3, 2048]))
    def test_equals_are_parallel_row_by_row(self, pairs, tol, block):
        new_rows, old_rows = pairs
        saved = vector_mod._PARALLEL_BLOCK_ELEMS
        vector_mod._PARALLEL_BLOCK_ELEMS = block  # exercise several blocks
        try:
            got = first_parallel_row(new_rows, old_rows, tol)
        finally:
            vector_mod._PARALLEL_BLOCK_ELEMS = saved
        assert got == _scalar(new_rows, old_rows, tol)

    @settings(max_examples=200, deadline=None)
    @given(row_pairs(ragged=True), TOLS)
    def test_ragged_rows_fall_back_to_are_parallel(self, pairs, tol):
        new_rows, old_rows = pairs
        with np.errstate(over="ignore", invalid="ignore"):
            got = first_parallel_row(new_rows, old_rows, tol)
        assert got == _scalar(new_rows, old_rows, tol)

    @settings(max_examples=200, deadline=None)
    @given(row_pairs(ragged=True), TOLS, st.sampled_from([1, 3, 2048]), st.integers(0, 2))
    def test_padded_blocks_with_widths_equal_the_trimmed_rows(self, pairs, tol, block, extra):
        """Rows padded into 2-D arrays (different padding on each side)
        and trimmed back by ``widths``: the kernel sweep's layout."""
        new_rows, old_rows = pairs
        widths = np.array([len(u) for u in new_rows], dtype=np.int64)
        W = int(widths.max())
        new = np.full((len(new_rows), W), 9.0)
        old = np.full((len(old_rows), W + extra), -math.inf)
        for r, (u, v) in enumerate(zip(new_rows, old_rows)):
            new[r, : len(u)] = u
            old[r, : len(v)] = v
        saved = vector_mod._PARALLEL_BLOCK_ELEMS
        vector_mod._PARALLEL_BLOCK_ELEMS = block
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                got = first_parallel_row(new, old, tol, widths)
        finally:
            vector_mod._PARALLEL_BLOCK_ELEMS = saved
        assert got == _scalar(new_rows, old_rows, tol)

    def test_accepts_a_2d_block(self):
        new = np.array([[1.0, 2.0], [3.0, -math.inf], [0.0, 5.0]])
        old = np.array([[1.0, 3.0], [4.0, -math.inf], [1.0, 6.0]])
        assert first_parallel_row(new, old) == 1
        assert first_parallel_row(new[:1], old[:1]) is None

    def test_signed_zero_offsets_are_parallel(self):
        assert first_parallel_row([np.array([0.0, -0.0])], [np.array([-0.0, 0.0])]) == 0

    def test_all_zero_pair_is_parallel_but_zero_against_nonzero_is_not(self):
        zero = np.full(3, -math.inf)
        assert first_parallel_row([zero, zero], [np.zeros(3), zero]) == 1

    def test_empty_input(self):
        assert first_parallel_row([], []) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionError):
            first_parallel_row([np.zeros(2)], [])

    def test_width_mismatch_raises_like_are_parallel(self):
        with pytest.raises(DimensionError):
            first_parallel_row([np.zeros(2)], [np.zeros(3)])
