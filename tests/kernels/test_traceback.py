"""The compiled traceback equals the Python walk it replaces.

``repro.kernels.backend.traceback`` walks a contiguous predecessor
block from a start index (``x = P[r, x]`` for ``r = k-1 .. 0``) and,
given the stored path entries, stops at the first entry that agrees.
The backward specs walk a slot's resident segments with it, top down.
Every case is checked against the one-row-at-a-time Python walk the
backward specs used before, under the C backend and under the NumPy
fallback.
"""

import numpy as np
import pytest

from repro.kernels.backend import get_backend, reset_backend_cache, traceback
from repro.ltdp.engine.specs import (
    BackwardFixupSpec,
    BackwardInitSpec,
    SpecResult,
    StageBlock,
)
from repro.ltdp.engine.store import DriverStore, WorkerStore
from repro.problems.alignment.lcs import LCSProblem

N = 90  # stages of the store-level cases


@pytest.fixture(params=["cc", "numpy"])
def backend(request, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", request.param)
    reset_backend_cache()
    resolved = get_backend()
    if resolved.kind != request.param:
        pytest.skip(f"{request.param} backend unavailable on this host")
    yield resolved
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    reset_backend_cache()


def python_walk(rows, x, ref=None):
    """The per-row walk: ``(out, stop)`` like :func:`traceback`."""
    out = np.zeros(len(rows), dtype=np.int64)
    for r in range(len(rows) - 1, -1, -1):
        x = int(rows[r][x])
        out[r] = x
        if ref is not None and ref[r] == x:
            return out, r
    return out, None


def random_block(rng, k, W):
    return rng.integers(0, W, size=(k, W), dtype=np.int64)


class TestPrimitive:
    @pytest.mark.parametrize("seed", range(6))
    def test_full_walk_matches(self, backend, seed):
        rng = np.random.default_rng(seed)
        k, W = int(rng.integers(1, 300)), int(rng.integers(1, 40))
        P = random_block(rng, k, W)
        x = int(rng.integers(0, W))
        out = np.zeros(k, dtype=np.int64)
        assert traceback(P, x, out) is None
        want, _ = python_walk(P, x)
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("where", ["top", "bottom", "inside", "never"])
    def test_walk_with_ref_stops_at_first_agreement(self, backend, where):
        rng = np.random.default_rng(11)
        k, W = 120, 16
        P = random_block(rng, k, W)
        x = 3
        full, _ = python_walk(P, x)
        ref = (full + 1) % W  # disagrees everywhere
        stop_at = {"top": k - 1, "bottom": 0, "inside": 57, "never": None}[where]
        if stop_at is not None:
            ref[stop_at] = full[stop_at]
            ref[: stop_at] = full[: stop_at]  # later agreements never reached
        out = np.full(k, -7, dtype=np.int64)
        stop = traceback(P, x, out, ref)
        want_out, want_stop = python_walk(P, x, ref)
        assert stop == want_stop == stop_at
        first = 0 if stop is None else stop
        assert np.array_equal(out[first:], want_out[first:])
        assert np.all(out[:first] == -7)  # rows below the stop untouched

    def test_index_outside_the_block_raises(self, backend):
        P = np.zeros((4, 3), dtype=np.int64)
        P[2, 0] = 9
        with pytest.raises(IndexError):
            traceback(P, 0, np.zeros(4, dtype=np.int64))
        with pytest.raises(IndexError):
            traceback(P, 3, np.zeros(4, dtype=np.int64))


def _segmented_store(kind, seed=0):
    """A store whose predecessors of stages 1..N span several segments:
    a forward block, then later blocks shadowing parts of it (banded
    ragged rows included)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, N - 1)
    problem = LCSProblem(a, a.copy(), width=5)
    store = (DriverStore if kind == "driver" else WorkerStore)(problem)
    widths = [problem.stage_width(i - 1) for i in range(1, N + 1)]
    rows = [rng.integers(0, w, problem.stage_width(i)) for i, w in zip(range(1, N + 1), widths)]
    store.apply(SpecResult(proc=1, pred_blocks=[StageBlock.stack(1, rows, np.int64)]))
    for lo, hi in ((20, 41), (33, 37), (60, 89)):
        fresh = [rng.integers(0, widths[i - 1], problem.stage_width(i)) for i in range(lo, hi)]
        store.apply(SpecResult(proc=1, pred_blocks=[StageBlock.stack(lo, fresh, np.int64)]))
        rows[lo - 1 : hi - 1] = fresh
    assert len(store.pred_blocks(1, N + 1)) > 3
    return problem, store, [None] + rows


class TestBackwardSpecsOverSegments:
    @pytest.mark.parametrize("kind", ["driver", "worker"])
    @pytest.mark.parametrize("lo,hi", [(0, N), (10, 70), (34, 36), (59, 60)])
    def test_init_walk_matches(self, backend, kind, lo, hi):
        problem, store, pred = _segmented_store(kind)
        result = BackwardInitSpec(proc=1, lo=lo, hi=hi, start_index=0).execute(problem, store)
        want, _ = python_walk(pred[lo + 1 : hi + 1], 0)
        start, entries = result.path_segment
        assert start == lo and np.array_equal(entries, want)
        assert result.work == float(hi - lo)

    @pytest.mark.parametrize("kind", ["driver", "worker"])
    @pytest.mark.parametrize("stop_stage", ["top", "bottom", 45, None])
    def test_fixup_walk_stops_like_the_per_stage_loop(self, backend, kind, stop_stage):
        lo, hi = 10, 80
        problem, store, pred = _segmented_store(kind, seed=1)
        full, _ = python_walk(pred[lo + 1 : hi + 1], 0)
        stored = np.zeros(problem.num_stages + 1, dtype=np.int64)
        stored[lo:hi] = -1  # never a valid index: disagrees everywhere
        stage = {"top": hi - 1, "bottom": lo, 45: 45, None: None}[stop_stage]
        if stage is not None:
            stored[lo : stage + 1] = full[: stage + 1 - lo]
        if kind == "driver":
            store.path = stored
        else:
            store.apply(SpecResult(proc=1, path_segment=(0, stored)))
        result = BackwardFixupSpec(proc=1, lo=lo, hi=hi, boundary_index=0).execute(problem, store)
        # The per-stage loop the spec used to run:
        x, updates, work, converged = 0, {}, 0.0, False
        for i in range(hi, lo, -1):
            x = int(pred[i][x])
            work += 1.0
            if stored[i - 1] == x:
                converged = True
                break
            updates[i - 1] = x
        start, entries = result.path_segment
        assert dict(zip(range(start, start + len(entries)), entries.tolist())) == updates
        assert result.work == work
        assert result.converged == converged == (stage is not None)
