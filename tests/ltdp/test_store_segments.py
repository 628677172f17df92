"""Stage stores hold immutable 2-D segments.

``DriverStore`` and ``WorkerStore`` keep stage vectors and predecessors
as :class:`~repro.ltdp.engine.store.Segments` of
:class:`~repro.ltdp.engine.specs.StageBlock`: an apply adopts each
block whole and a later segment shadows the rows it covers.  Rows are
never written in place, so a row handed out earlier (a neighbour's
boundary, a delta-mode ``fixup_input``) is unchanged by later applies.
"""

import numpy as np
import pytest

from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.ltdp.engine.poolrt import _w_collect, _w_install_pred
from repro.ltdp.engine.specs import SpecResult, StageBlock
from repro.ltdp.engine.store import DriverStore, Segments, WorkerStore
from repro.ltdp.partition import partition_stages
from repro.ltdp.sequential import solve_sequential
from repro.machine.pool import PoolProcessExecutor
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.smith_waterman import SmithWatermanProblem

STORES = [DriverStore, WorkerStore]


def _problem():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 4, 40)
    return LCSProblem(a, rng.integers(0, 4, 37), width=6)


def _block(start, k, fill, W=4):
    return StageBlock(start, np.full((k, W), float(fill)))


class TestSegments:
    def test_later_block_shadows_only_what_it_covers(self):
        seg = Segments()
        seg.put(_block(1, 10, 1.0))
        seg.put(_block(4, 3, 2.0))
        assert [seg.get(i)[0] for i in range(1, 11)] == [1, 1, 1, 2, 2, 2, 1, 1, 1, 1]
        pieces = seg.blocks(2, 9)
        assert [(b.start, b.stop) for b in pieces] == [(2, 4), (4, 7), (7, 9)]

    def test_block_covering_several_segments_replaces_them(self):
        seg = Segments()
        for start in (1, 4, 7):
            seg.put(_block(start, 3, start))
        seg.put(_block(2, 7, 0.0))
        assert [(b.start, b.stop) for b in seg.held()] == [(1, 2), (2, 9), (9, 10)]

    def test_gap_is_a_key_error(self):
        seg = Segments()
        seg.put(_block(1, 3, 1.0))
        seg.put(_block(6, 3, 1.0))
        with pytest.raises(KeyError):
            seg.blocks(2, 8)
        with pytest.raises(KeyError):
            seg.get(5)
        assert 5 not in seg and 6 in seg

    def test_ragged_rows_are_trimmed(self):
        block = StageBlock.stack(3, [np.arange(2.0), np.arange(5.0), np.arange(3.0)], np.float64)
        assert block.rows.shape == (3, 5)
        assert [len(block.row(i)) for i in (3, 4, 5)] == [2, 5, 3]
        assert block.sub(4, 6).row(5).tolist() == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("store_type", STORES)
class TestStoreApply:
    def test_row_handed_out_is_unchanged_by_a_later_apply(self, store_type):
        problem = _problem()
        store = store_type(problem)
        first = [np.arange(problem.stage_width(i), dtype=np.float64) for i in range(1, 21)]
        store.apply(SpecResult(proc=1, s_blocks=[StageBlock.stack(1, first, np.float64)]), seq=1)
        handed = store.get_s(10)
        before = handed.tobytes()
        again = [row + 100.0 for row in first[5:15]]
        store.apply(SpecResult(proc=1, s_blocks=[StageBlock.stack(6, again, np.float64)]), seq=2)
        assert handed.tobytes() == before
        assert store.get_s(10).tobytes() == again[4].tobytes()
        assert store.get_s(5).tobytes() == first[4].tobytes()

    def test_duplicate_delivery_applies_once(self, store_type):
        problem = _problem()
        store = store_type(problem)
        rows = [np.zeros(problem.stage_width(i), dtype=np.int64) for i in range(1, 11)]
        one = SpecResult(proc=1, pred_blocks=[StageBlock.stack(1, rows, np.int64)])
        two = SpecResult(proc=1, pred_blocks=[StageBlock.stack(1, [r + 1 for r in rows], np.int64)])
        store.apply(one, seq=7)
        store.apply(two, seq=7)  # a re-delivered seq: dropped
        assert all(store.pred.get(i).sum() == 0 for i in range(1, 11))
        assert len(store.pred.held()) == 1

    def test_stage_zero_is_the_initial_vector(self, store_type):
        problem = _problem()
        store = store_type(problem)
        assert store.get_s(0).tobytes() == problem.initial_vector().tobytes()


class TestWorkerCollectInstall:
    def test_collect_then_install_moves_predecessor_blocks(self):
        problem = _problem()
        states = {1: WorkerStore(problem), 2: WorkerStore(problem)}
        ns = {"sessions": {"k": {"problem": problem, "states": states}}}
        rows = [np.arange(problem.stage_width(i), dtype=np.int64) % 3 for i in range(1, 31)]
        states[1].apply(SpecResult(proc=1, pred_blocks=[StageBlock.stack(1, rows, np.int64)]))
        fresh = [r + 1 for r in rows[9:14]]
        states[1].apply(SpecResult(proc=1, pred_blocks=[StageBlock.stack(10, fresh, np.int64)]))
        blocks = _w_collect(ns, "k", 1, "pred", 5, 25)
        assert [(b.start, b.stop) for b in blocks] == [(5, 10), (10, 15), (15, 25)]
        _w_install_pred(ns, "k", 2, blocks)
        for i in range(5, 25):
            assert np.array_equal(states[2].pred.get(i), states[1].pred.get(i))
        with pytest.raises(KeyError):
            states[2].pred.get(4)

    def test_objective_problem_with_repartitioned_backward_range(self):
        """Smith-Waterman's optimum lies before the last stage, so the
        backward phase covers fewer stages than the forward one and
        every slot fetches predecessor blocks it did not compute."""
        rng = np.random.default_rng(8)
        query = rng.integers(0, 4, 12)
        db = rng.integers(0, 4, 90)
        db[20:32] = query  # a strong local hit early in the database
        problem = SmithWatermanProblem(query, db)
        want = solve_sequential(problem)
        fwd = partition_stages(problem.num_stages, 4)
        bwd = partition_stages(want.objective_stage, 4)
        # Some backward slot reaches outside its own forward range.
        assert any(b.lo < f.lo or b.hi > f.hi for b, f in zip(bwd, fwd))
        with PoolProcessExecutor(max_workers=2) as pool:
            got = solve_parallel(
                problem, ParallelOptions(num_procs=4, executor=pool, seed=1)
            )
        np.testing.assert_array_equal(got.path, want.path)
        assert got.score == want.score
