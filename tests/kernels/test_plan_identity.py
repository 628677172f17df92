"""Kernel plans are byte-identical to the per-stage construction.

The banded plan takes its band geometry from a cache keyed by
``(n, m, width)``, and the hard-decision Viterbi plan gathers its
branch-metric matrix from a per-code symbol table.  Both are only
faster ways to build the same arrays: every field is compared here
byte for byte with the straightforward construction (kept below as the
reference), over random shapes and packets.
"""

import numpy as np
import pytest

from repro.kernels import registry as kregistry
from repro.kernels import reset_plan_cache
from repro.kernels.banded import BandedBlockKernel, _band_geometry
from repro.kernels.bitparallel_lcs import BitParallelLCSKernel
from repro.kernels.viterbi import ViterbiBlockKernel
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.scoring import ScoringScheme
from repro.problems.convolutional import (
    CDMA_IS95,
    LTE,
    VOYAGER,
    PuncturedViterbiDecoderProblem,
    SoftViterbiDecoderProblem,
    ViterbiDecoderProblem,
)

_EXACT = float(2**40)


def reference_banded(problem):
    """The banded plan's arrays built row-table by row-table, from scratch."""
    n, m, width = problem._n, problem._m, problem.width
    rows = np.arange(n + 1)
    los = np.maximum(0, rows - width).astype(np.int64)
    his = np.minimum(m, rows + width).astype(np.int64)
    widths = his - los + 1
    lo, hi, lo_p, hi_p = los[1:], his[1:], los[:-1], his[:-1]
    s = np.maximum(lo, lo_p)
    e = np.minimum(hi, hi_p)
    ds = np.maximum(np.maximum(lo, lo_p + 1), 1)
    de = np.minimum(hi, hi_p + 1)
    geom = np.zeros((n, 8), dtype=np.int64)
    geom[:, 0] = widths[1:]
    geom[:, 1] = s - lo
    geom[:, 2] = e - lo + 1
    geom[:, 3] = s - lo_p
    geom[:, 4] = ds - lo
    geom[:, 5] = de - lo + 1
    geom[:, 6] = ds - 1 - lo_p
    Wmax = int(widths.max())
    jj = np.arange(Wmax)
    col_mat = lo[:, None] + jj[None, :]
    valid = (jj[None, :] >= geom[:, 4:5]) & (jj[None, :] < geom[:, 5:6])
    bsym = problem.b[np.clip(col_mat - 1, 0, m - 1)]
    a_col = problem.a[:, None]
    if isinstance(problem, NeedlemanWunschProblem):
        sc = problem.scoring
        if sc.substitution is not None:
            scores = np.asarray(sc.substitution, dtype=np.float64)[a_col, bsym]
        else:
            scores = np.where(bsym == a_col, sc.match, sc.mismatch)
    else:
        scores = (bsym == a_col).astype(np.float64)
    MS = np.ascontiguousarray(np.where(valid, scores, 0.0), dtype=np.float64)
    return {"geom": geom, "los": los, "widths": widths, "MS": MS, "Wmax": Wmax}


def reference_viterbi_hard(problem):
    """``M`` from the per-stage symbol compare of every stage."""
    S = problem.code.num_states
    out, sym = problem._out, problem._symbols
    agree = out[None, :, :, :] == sym[:, None, None, :]
    mask = getattr(problem, "_mask", None)
    if mask is not None:
        agree = agree & mask[:, None, None, :]
    bm = agree.sum(axis=3, dtype=np.float64)
    M = np.empty((sym.shape[0], 2 * S), dtype=np.float64)
    M[:, :S] = bm[:, :, 0]
    M[:, S:] = bm[:, :, 1]
    integral = bool(np.all(M == np.floor(M)) and np.all(np.abs(M) < _EXACT))
    costs = np.full(problem.num_stages, 2.0 * S)
    if problem.num_stages > sym.shape[0]:
        costs[-1] = float(S)
    return M, costs, integral


def _alignment_cases():
    rng = np.random.default_rng(41)
    cases = []
    for k in range(18):
        n, m = (int(x) for x in rng.integers(1, 70, 2))
        width = int(rng.integers(abs(n - m) + 1, max(n, m) + 5))
        a, b = rng.integers(0, 4, n), rng.integers(0, 4, m)
        kind = k % 3
        if kind == 0:
            problem = LCSProblem(a, b, width=width)
        elif kind == 1:
            problem = NeedlemanWunschProblem(a, b, width=width)
        else:
            sub = rng.integers(-3, 4, (4, 4)).astype(np.float64)
            problem = NeedlemanWunschProblem(
                a, b, width=width,
                scoring=ScoringScheme(gap_open=2.0, gap_extend=2.0, substitution=sub),
            )
        cases.append(pytest.param(problem, id=f"{type(problem).__name__}-{k}-{n}x{m}w{width}"))
    return cases


class TestBandedPlan:
    @pytest.mark.parametrize("problem", _alignment_cases())
    def test_plan_is_byte_identical(self, problem):
        plan = BandedBlockKernel().plan(problem)
        ref = reference_banded(problem)
        assert plan.Wmax == ref["Wmax"]
        for name in ("geom", "los", "widths", "MS"):
            got = getattr(plan, name)
            assert got.dtype == ref[name].dtype and got.shape == ref[name].shape, name
            assert got.tobytes() == ref[name].tobytes(), name

    def test_geometry_is_shared_by_shape(self):
        rng = np.random.default_rng(2)
        one = LCSProblem(rng.integers(0, 4, 30), rng.integers(0, 4, 33), width=7)
        two = LCSProblem(rng.integers(0, 4, 30), rng.integers(0, 4, 33), width=7)
        p1, p2 = BandedBlockKernel().plan(one), BandedBlockKernel().plan(two)
        assert p1.geom is p2.geom and p1.los is p2.los
        assert _band_geometry(30, 33, 7) is _band_geometry(30, 33, 7)
        assert not p1.geom.flags.writeable

    def test_fingerprint_uses_the_dtype_code(self):
        problem = LCSProblem(np.arange(5) % 4, np.arange(6) % 4, width=3)
        fp = BandedBlockKernel().fingerprint(problem)
        assert problem.a.dtype.str in fp and str(problem.a.dtype) not in fp


class TestBitParallelFingerprint:
    def test_clipped_band_is_content_free_and_ineligible(self):
        rng = np.random.default_rng(5)
        kernel = BitParallelLCSKernel()
        problems = [
            LCSProblem(rng.integers(0, 4, 40), rng.integers(0, 4, 44), width=9)
            for _ in range(3)
        ]
        prints = {kernel.fingerprint(p) for p in problems}
        assert len(prints) == 1
        assert all(kernel.plan(p) is None for p in problems)

    def test_full_band_still_keyed_by_content(self):
        rng = np.random.default_rng(6)
        kernel = BitParallelLCSKernel()
        one = LCSProblem(rng.integers(0, 4, 20), rng.integers(0, 4, 21), width=30)
        two = LCSProblem(rng.integers(0, 4, 20), rng.integers(0, 4, 21), width=30)
        assert kernel.fingerprint(one) != kernel.fingerprint(two)
        assert kernel.plan(one) is not None

    def test_banded_requests_share_one_plan_cache_entry(self):
        reset_plan_cache()
        rng = np.random.default_rng(9)
        for _ in range(5):
            kregistry.warm_kernels(
                LCSProblem(rng.integers(0, 4, 40), rng.integers(0, 4, 40), width=6)
            )
        names = [key[0] for key in kregistry._PLAN_CACHE]
        assert names.count("bitparallel-lcs") == 1
        assert names.count("banded-block") == 5
        reset_plan_cache()


def _viterbi_cases():
    rng = np.random.default_rng(17)
    cases = []
    for code in (VOYAGER, LTE, CDMA_IS95):
        rate = code.rate_denominator
        for terminated in (True, False):
            stages = int(rng.integers(5, 120))
            bits = rng.integers(0, 2, rate * stages).astype(np.uint8)
            cases.append(pytest.param(
                ViterbiDecoderProblem(code, bits, terminated=terminated),
                id=f"hard-K{code.constraint_length}-r{rate}-term{terminated}",
            ))
    for pattern, terminated in (([1, 1, 0, 1], True), ([1, 0, 1, 1, 1, 0], False)):
        pattern = np.array(pattern, dtype=bool)
        full = rng.integers(0, 2, pattern.size * 20).astype(np.uint8)
        kept = full[np.tile(pattern, 20)]
        cases.append(pytest.param(
            PuncturedViterbiDecoderProblem(VOYAGER, kept, pattern, terminated=terminated),
            id=f"punctured-{pattern.size}-term{terminated}",
        ))
    return cases


class TestViterbiPlan:
    @pytest.mark.parametrize("problem", _viterbi_cases())
    def test_hard_decision_plan_is_byte_identical(self, problem):
        plan = ViterbiBlockKernel().plan(problem)
        M, costs, integral = reference_viterbi_hard(problem)
        assert plan.M.dtype == M.dtype and plan.M.shape == M.shape
        assert plan.M.flags.c_contiguous
        assert plan.M.tobytes() == M.tobytes()
        assert plan.costs.tobytes() == costs.tobytes()
        assert plan.integral is integral

    def test_soft_plan_still_takes_the_per_stage_metrics(self):
        rng = np.random.default_rng(3)
        problem = SoftViterbiDecoderProblem(VOYAGER, rng.normal(0, 1, 80), terminated=True)
        plan = ViterbiBlockKernel().plan(problem)
        S = problem.code.num_states
        for i in range(1, problem._num_symbol_stages + 1):
            bm = problem._branch_metrics(i)
            assert plan.M[i - 1, :S].tobytes() == np.ascontiguousarray(bm[:, 0]).tobytes()
            assert plan.M[i - 1, S:].tobytes() == np.ascontiguousarray(bm[:, 1]).tobytes()
