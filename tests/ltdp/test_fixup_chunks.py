"""The chunked kernel-tier fix-up sweep equals the per-stage sweep.

``ForwardFixupSpec._execute_block`` sweeps its range in chunks of 64,
128, 256, ... stages and stops after the first chunk that holds a
converged stage, so its wall-clock follows ``stages_done``.  Everything
it returns must still equal the dense per-stage loop
(``_execute_stages``): updates, predecessors, work (same summation
order), ``stages_done``, ``converged``, the advertised boundary, and
the stage a ``ZeroVectorError`` names.  It returns no §4.7 state.

The stored vectors are built so that the first stage parallel to the
recomputed one is chosen by the test: inside chunk 1, on the last row
of chunk 1 (stage ``lo + 64``), on the first row of chunk 2
(``lo + 65``), or never.
"""

import math

import numpy as np
import pytest

from repro.exceptions import ZeroVectorError
from repro.kernels import BlockSweep, StageBlockKernel, register_kernel
from repro.kernels import registry as kregistry
from repro.ltdp.engine.specs import (
    FIXUP_FIRST_CHUNK,
    ForwardFixupSpec,
    SpecResult,
    StageBlock,
)
from repro.ltdp.engine.store import DriverStore
from repro.ltdp.matrix_problem import MatrixLTDPProblem
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.convolutional import VOYAGER, ViterbiDecoderProblem

LO = 5
SPAN = 200
HI = LO + SPAN


def _problems():
    rng = np.random.default_rng(23)
    a = rng.integers(0, 4, 230)
    b = a.copy()
    hit = rng.random(a.size) < 0.1
    b[hit] = (b[hit] + 1) % 4
    bits = rng.integers(0, 2, 460).astype(np.uint8)  # rate 1/2: 230 stages
    return {
        "viterbi": ViterbiDecoderProblem(VOYAGER, bits, terminated=True),
        "lcs": LCSProblem(a, b, width=12),
        "nw": NeedlemanWunschProblem(a, b, width=12),
    }


PROBLEMS = _problems()

#: (use_delta, sparse) modes: dense fix-up, modeled §4.7 delta work, and
#: the sparse-kernel §4.7 mode (LCS / NW only).
MODES = {
    "dense": (False, False),
    "delta": (True, False),
    "sparse": (True, True),
}


def _dense_rows(problem, lo, hi, v):
    rows = []
    for i in range(lo + 1, hi + 1):
        v, _ = problem.apply_stage_with_pred(i, v)
        rows.append(v)
    return rows


def _not_parallel(row):
    """A copy of ``row`` whose ``-inf`` mask differs (never parallel)."""
    out = row.copy()
    finite = np.isfinite(out)
    if finite.sum() >= 2:
        out[np.argmax(finite)] = -math.inf
    else:
        out[np.argmax(~finite)] = 0.0
    return out


def _store_converging_at(problem, lo, hi, boundary, first_parallel):
    """A store whose vectors on ``(lo, hi]`` are parallel to the fix-up's
    recomputed ones exactly from offset ``first_parallel`` on (``None``:
    nowhere)."""
    store = DriverStore(problem)
    rows = _dense_rows(problem, lo, hi, boundary)
    stored = [
        row + 3.0
        if first_parallel is not None and r >= first_parallel
        else _not_parallel(row)
        for r, row in enumerate(rows)
    ]
    store.apply(SpecResult(proc=2, s_blocks=[StageBlock.stack(lo + 1, stored, np.float64)]))
    return store


def _boundary(problem, lo, seed=0):
    rng = np.random.default_rng(seed)
    v = problem.initial_vector()
    for i in range(1, lo + 1):
        v, _ = problem.apply_stage_with_pred(i, v)
    # A different but finite-where-v-is-finite input: the fix-up's view.
    return np.where(np.isfinite(v), v + rng.integers(-3, 4, v.size), v)


def _spec(lo, hi, boundary, mode):
    use_delta, sparse = MODES[mode]
    return ForwardFixupSpec(
        proc=2, lo=lo, hi=hi, boundary=boundary,
        use_delta=use_delta, sparse=sparse, use_kernels=True,
    )


def assert_same_result(block, dense):
    assert block is not None, "the kernel tier declined a supported range"
    assert block.work == dense.work
    assert block.stages_done == dense.stages_done
    assert block.converged == dense.converged
    assert block.boundary.tobytes() == dense.boundary.tobytes()
    block_s, dense_s = block.s_rows(), dense.s_rows()
    assert sorted(block_s) == sorted(dense_s)
    for i, v in dense_s.items():
        assert np.asarray(block_s[i]).tobytes() == v.tobytes()
    block_p, dense_p = block.pred_rows(), dense.pred_rows()
    assert sorted(block_p) == sorted(dense_p)
    for i, p in dense_p.items():
        assert np.array_equal(block_p[i], p)
    assert not block.fixup_state_updates  # a block sweep keeps no §4.7 state
    if dense.fixup_input is None:
        assert block.fixup_input is None
    else:
        assert block.fixup_input[0] == dense.fixup_input[0]
        assert block.fixup_input[1].tobytes() == dense.fixup_input[1].tobytes()


CASES = [
    (name, mode)
    for name in PROBLEMS
    for mode in MODES
    if not (mode == "sparse" and name == "viterbi")
]


class TestChunkedFixupMatchesPerStage:
    @pytest.mark.parametrize(
        "first_parallel",
        [0, 17, FIXUP_FIRST_CHUNK - 1, FIXUP_FIRST_CHUNK, 150, None],
        ids=["first-row", "in-chunk-1", "stage-lo+64", "stage-lo+65",
             "in-chunk-2", "never"],
    )
    @pytest.mark.parametrize("name,mode", CASES)
    def test_same_spec_result(self, name, mode, first_parallel):
        problem = PROBLEMS[name]
        boundary = _boundary(problem, LO)
        store = _store_converging_at(problem, LO, HI, boundary, first_parallel)
        spec = _spec(LO, HI, boundary, mode)
        dense = spec._execute_stages(problem, store, boundary)
        block = spec._execute_block(problem, store, boundary)
        assert_same_result(block, dense)
        expected = SPAN if first_parallel is None else first_parallel + 1
        assert dense.stages_done == expected
        assert dense.converged == (first_parallel is not None)

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_later_chunk_declined_falls_back_to_dense(self, name, monkeypatch):
        """A kernel declining chunk 2 sends the *whole* range dense."""
        import repro.kernels as kernels

        problem = PROBLEMS[name]
        boundary = _boundary(problem, LO)
        store = _store_converging_at(problem, LO, HI, boundary, 100)
        spec = _spec(LO, HI, boundary, "dense")
        real = kernels.block_sweep
        calls = []

        def decline_second(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs) if len(calls) == 1 else None

        monkeypatch.setattr(kernels, "block_sweep", decline_second)
        assert spec._execute_block(problem, store, boundary) is None
        assert calls == [(LO, LO + 64), (LO + 64, LO + 192)]
        dense = spec._execute_stages(problem, store, boundary)
        assert_same_result(spec.execute(problem, store), dense)

    def test_chunks_double_and_stop_at_convergence(self, monkeypatch):
        import repro.kernels as kernels

        problem = PROBLEMS["viterbi"]
        boundary = _boundary(problem, LO)
        store = _store_converging_at(problem, LO, HI, boundary, 70)
        real = kernels.block_sweep
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "block_sweep", spy)
        result = _spec(LO, HI, boundary, "dense")._execute_block(problem, store, boundary)
        assert result.stages_done == 71
        # Converged in chunk 2 (64..192): chunk 3 is never swept.
        assert calls == [(LO, LO + 64), (LO + 64, LO + 192)]

    def test_one_stage_remainder_joins_the_last_chunk(self, monkeypatch):
        import repro.kernels as kernels

        problem = PROBLEMS["lcs"]
        hi = LO + FIXUP_FIRST_CHUNK + 1
        boundary = _boundary(problem, LO)
        store = _store_converging_at(problem, LO, hi, boundary, None)
        real = kernels.block_sweep
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "block_sweep", spy)
        spec = _spec(LO, hi, boundary, "dense")
        assert_same_result(
            spec._execute_block(problem, store, boundary),
            spec._execute_stages(problem, store, boundary),
        )
        assert calls == [(LO, hi)]


# ----------------------------------------------------------------------
# Zero vectors: a matrix problem with an all--inf stage and a kernel
# that replays the dense stages (so the registry's gate accepts it).
# ----------------------------------------------------------------------


class _ZeroStageProblem(MatrixLTDPProblem):
    pass


class _ReplayKernel(StageBlockKernel):
    name = "test-replay"
    bit_identity_gate = "test stub: replays apply_stage_with_pred verbatim"

    def fingerprint(self, problem):
        return id(problem)

    def plan(self, problem):
        return "plan"

    def run(self, problem, plan, lo, hi, v):
        vals, preds = [], []
        for i in range(lo + 1, hi + 1):
            v, p = problem.apply_stage_with_pred(i, v)
            vals.append(v)
            preds.append(p)
        zero = [r for r, row in enumerate(vals) if np.all(np.isneginf(row))]
        return BlockSweep(
            values=np.array(vals),
            preds=np.array(preds),
            widths=None,
            costs=np.array([problem.stage_cost(i) for i in range(lo + 1, hi + 1)]),
            zero_index=zero[0] if zero else None,
        )


ZERO_STAGE = 90  # in chunk 2 of a fix-up starting at stage LO


@pytest.fixture
def zero_problem():
    rng = np.random.default_rng(5)
    n, width = HI + 5, 4
    mats = [rng.integers(-5, 6, (width, width)).astype(np.float64) for _ in range(n)]
    mats[ZERO_STAGE - 1] = np.full((width, width), -math.inf)
    problem = _ZeroStageProblem(np.zeros(width), mats, allow_trivial=True)
    register_kernel(_ZeroStageProblem, _ReplayKernel())
    yield problem
    kregistry._KERNELS.pop(_ZeroStageProblem, None)
    kregistry.reset_plan_cache()


class TestZeroVectors:
    def _store(self, problem, boundary, first_parallel):
        with np.errstate(invalid="ignore"):
            return _store_converging_at(problem, LO, HI, boundary, first_parallel)

    def test_zero_before_convergence_raises_at_the_same_stage(self, zero_problem):
        boundary = np.arange(4, dtype=np.float64)
        store = self._store(zero_problem, boundary, None)
        spec = _spec(LO, HI, boundary, "dense")
        with pytest.raises(ZeroVectorError) as dense:
            spec._execute_stages(zero_problem, store, boundary)
        with pytest.raises(ZeroVectorError) as block:
            spec._execute_block(zero_problem, store, boundary)
        assert str(block.value) == str(dense.value)
        assert f"stage {ZERO_STAGE} " in str(block.value)

    def test_zero_after_convergence_is_never_reached(self, zero_problem):
        boundary = np.arange(4, dtype=np.float64)
        # Converges in chunk 2, before the zero stage in the same chunk.
        first_parallel = ZERO_STAGE - LO - 10
        store = self._store(zero_problem, boundary, first_parallel)
        spec = _spec(LO, HI, boundary, "dense")
        dense = spec._execute_stages(zero_problem, store, boundary)
        assert dense.converged and dense.stages_done == first_parallel + 1
        assert_same_result(spec._execute_block(zero_problem, store, boundary), dense)

    def test_zero_at_the_first_parallel_stage_still_raises(self, zero_problem):
        # Stored zero vectors are parallel to recomputed zero vectors;
        # the zero check comes first, exactly as on the per-stage path.
        boundary = np.arange(4, dtype=np.float64)
        store = self._store(zero_problem, boundary, ZERO_STAGE - LO - 1)
        spec = _spec(LO, HI, boundary, "dense")
        with pytest.raises(ZeroVectorError) as dense:
            spec._execute_stages(zero_problem, store, boundary)
        with pytest.raises(ZeroVectorError) as block:
            spec._execute_block(zero_problem, store, boundary)
        assert str(block.value) == str(dense.value)
