"""Stage-block kernel for banded alignment problems (LCS / NW).

Plan layout: the per-row band geometry (the up/diagonal source slices
``_entry_values`` recomputes every stage) becomes one ``(n, 8)`` int64
table, and the per-row match scores become one padded ``(n, Wmax)``
float64 matrix — built vectorized from the concrete problem's own
scoring formula and therefore entry-for-entry identical to
``match_score``.  One dispatch then sweeps a whole stage-block of the
entry + left-gap-scan recurrence and returns stage vectors and
predecessors only; the §4.7 per-stage state stays with the problem's
own per-stage kernels.

Registered only for the *concrete* classes ``LCSProblem`` and
``NeedlemanWunschProblem``: any subclass (which could override
``match_score`` / ``row0_value``) gets no kernel and stays on the
dense path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.kernels.backend import get_backend
from repro.kernels.base import BlockSweep, StageBlockKernel
from repro.semiring.tropical import NEG_INF

__all__ = ["BandedBlockKernel"]

_EXACT_SUM_BOUND = float(2**40)


@dataclass
class BandedPlan:
    n: int
    m: int
    Wmax: int
    gu: float  # gap_up
    g: float  # gap_left
    geom: np.ndarray  # (n, 8) int64: W, u0, u1, us0, d0, d1, vs0, pad
    MS: np.ndarray  # (n, Wmax) float64 match scores, row i-1 valid on [d0, d1)
    los: np.ndarray  # (n + 1,) int64 band lower bound per row
    widths: np.ndarray  # (n + 1,) int64 band width per row
    costs: np.ndarray  # (num_stages,) float64 == problem.stage_cost(i)
    selector_source: int
    integral: bool  # scores and gaps integral: pricing sums are order-free


@dataclass(frozen=True)
class _BandGeometry:
    """The content-free part of a banded plan, shared by every problem
    of one ``(n, m, width)`` shape (read-only arrays)."""

    geom: np.ndarray  # (n, 8) int64: W, u0, u1, us0, d0, d1, vs0, pad
    los: np.ndarray  # (n + 1,) int64 band lower bound per row
    widths: np.ndarray  # (n + 1,) int64 band width per row
    Wmax: int
    valid: np.ndarray  # (n, Wmax) bool: diagonal-move cells of each row
    bcol: np.ndarray  # (n, Wmax) int64: index into b of each cell's symbol


_GEOMETRY_CACHE: OrderedDict = OrderedDict()
_GEOMETRY_CACHE_MAX = 32


def _band_geometry(n: int, m: int, width: int) -> _BandGeometry:
    """Band geometry of an ``n x m`` table at ``width``, cached by shape.

    The plan cache is keyed by content, so every fresh or near-duplicate
    request would rebuild this; it depends only on the shape.
    """
    key = (n, m, width)
    hit = _GEOMETRY_CACHE.get(key)
    if hit is not None:
        _GEOMETRY_CACHE.move_to_end(key)
        return hit
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
    bcol = np.clip(col_mat - 1, 0, m - 1)
    for a in (geom, los, widths, valid, bcol):
        a.flags.writeable = False
    hit = _BandGeometry(geom, los, widths, Wmax, valid, bcol)
    _GEOMETRY_CACHE[key] = hit
    if len(_GEOMETRY_CACHE) > _GEOMETRY_CACHE_MAX:
        _GEOMETRY_CACHE.popitem(last=False)
    return hit


class BandedBlockKernel(StageBlockKernel):
    name = "banded-block"
    bit_identity_gate = (
        "plan built only for the concrete LCS/NW classes (subclasses fall "
        "back dense) with the match-score plane spot-checked against "
        "match_score on the first and last rows; per call the input width "
        "must equal the stage-lo band width and the registry cross-checks "
        "the first, a seeded interior and the last kernel-computed block "
        "stages (values and preds) against the dense kernel bit-for-bit; the "
        "width-1 selector stage always runs dense"
    )

    def fingerprint(self, problem) -> tuple:
        parts = [
            type(problem).__name__,
            int(problem.width),
            problem.a.tobytes(),
            problem.b.tobytes(),
            problem.a.dtype.str,
            problem.b.dtype.str,
        ]
        scoring = getattr(problem, "scoring", None)
        if scoring is not None:
            parts.extend([scoring.match, scoring.mismatch, scoring.gap_open, scoring.gap_extend])
            sub = scoring.substitution
            parts.append(None if sub is None else np.asarray(sub).tobytes())
        return tuple(parts)

    def _score_plane(self, problem, bsym: np.ndarray) -> np.ndarray | None:
        """(n, Wmax) scores via the concrete class's own formula."""
        from repro.problems.alignment.lcs import LCSProblem
        from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem

        a_col = problem.a[:, None]
        if type(problem) is LCSProblem:
            return (bsym == a_col).astype(np.float64)
        if type(problem) is NeedlemanWunschProblem:
            sc = problem.scoring
            if sc.substitution is not None:
                sub = np.asarray(sc.substitution, dtype=np.float64)
                return sub[a_col, bsym]
            return np.where(bsym == a_col, sc.match, sc.mismatch)
        return None

    def plan(self, problem):
        n, m, width = problem._n, problem._m, problem.width
        if n < 1 or m < 1:
            return None
        band = _band_geometry(n, m, width)
        geom, los, widths, Wmax = band.geom, band.los, band.widths, band.Wmax
        bsym = problem.b[band.bcol]
        scores = self._score_plane(problem, bsym)
        if scores is None:
            return None
        MS = np.ascontiguousarray(np.where(band.valid, scores, 0.0), dtype=np.float64)
        # Spot-check the plane against the dense scoring on the first and
        # last rows (the registry re-verifies the first dispatched stage
        # per call; this catches plan-layout bugs early and cheaply).
        for i in (1, n):
            d0, d1 = int(geom[i - 1, 4]), int(geom[i - 1, 5])
            if d0 < d1:
                cols = np.arange(los[i] + d0, los[i] + d1)
                if MS[i - 1, d0:d1].tobytes() != np.asarray(
                    problem.match_score(i, cols), dtype=np.float64
                ).tobytes():
                    return None
        costs = np.empty(n + 1, dtype=np.float64)
        costs[:n] = widths[1:]
        costs[n] = problem.stage_cost(problem.num_stages)
        if costs[0] != problem.stage_cost(1) or costs[n - 1] != problem.stage_cost(n):
            return None
        gu, g = float(problem.gap_up), float(problem.gap_left)
        integral = bool(
            gu.is_integer()
            and g.is_integer()
            and abs(gu) < _EXACT_SUM_BOUND
            and abs(g) < _EXACT_SUM_BOUND
            and np.all(MS == np.floor(MS))
            and np.all(np.abs(MS) < _EXACT_SUM_BOUND)
        )
        return BandedPlan(
            n=n,
            m=m,
            Wmax=Wmax,
            gu=gu,
            g=g,
            geom=geom,
            MS=MS,
            los=los,
            widths=widths,
            costs=costs,
            selector_source=int(problem._selector_source()),
            integral=integral,
        )

    def run(self, problem, plan, lo, hi, v):
        if lo >= plan.n:
            return None  # selector-only range
        v = np.asarray(v)
        if v.shape != (int(plan.widths[lo]),) or v.dtype != np.float64:
            return None
        k = min(hi, plan.n) - lo
        tail = 1 if hi > plan.n else 0
        Wmax = plan.Wmax
        # Padding past each row's width stays -inf, so "every entry is
        # -inf" is one pass over the block.
        out_s = np.full((k + tail, Wmax), NEG_INF, dtype=np.float64)
        out_p = np.zeros((k + tail, Wmax), dtype=np.int64)
        geom = plan.geom[lo : lo + k]
        MS = plan.MS[lo : lo + k]
        backend = get_backend()
        if backend.banded_block is not None:
            backend.banded_block(
                np.ascontiguousarray(v), geom, MS, plan.gu, plan.g, NEG_INF,
                out_s[:k], out_p[:k],
            )
        else:
            self._run_numpy(plan, geom, MS, v, out_s[:k], out_p[:k])
        widths = plan.widths[lo + 1 : lo + 1 + k]
        if tail:
            widths = np.append(widths, 1)  # the width-1 selector stage
        zero_rows = np.flatnonzero(np.isneginf(out_s[:k]).all(axis=1))
        zero_index = int(zero_rows[0]) if zero_rows.size else None
        sweep = BlockSweep(
            values=out_s,
            preds=out_p,
            widths=widths,
            costs=plan.costs[lo : lo + k],
            zero_index=zero_index,
            dense_tail=tail,
        )
        if tail:
            # Width-1 selector stage: dense.
            tv, tp = problem.apply_stage_with_pred(plan.n + 1, sweep.value(k - 1))
            out_s[k, :1] = tv
            out_p[k, :1] = tp
            sweep.costs = np.concatenate([sweep.costs, plan.costs[-1:]])
            if zero_index is None and np.all(np.isneginf(tv)):
                sweep.zero_index = k
        return sweep

    @staticmethod
    def _run_numpy(plan, geom, MS, v, out_s, out_p):
        """Row loop over preplanned geometry — the dense ops without the
        per-stage band/score recomputation (blocked NumPy fallback)."""
        g, gu = plan.g, plan.gu
        vin = v
        k = out_s.shape[0]
        with np.errstate(invalid="ignore"):
            for r in range(k):
                W, u0, u1, us0, d0, d1, vs0 = (int(x) for x in geom[r, :7])
                entry = np.full(W, NEG_INF)
                epred = np.zeros(W, dtype=np.int64)
                if u0 < u1:
                    entry[u0:u1] = vin[us0 : us0 + (u1 - u0)] - gu
                    epred[u0:u1] = np.arange(us0, us0 + (u1 - u0))
                if d0 < d1:
                    diag = vin[vs0 : vs0 + (d1 - d0)] + MS[r, d0:d1]
                    better = diag >= entry[d0:d1]
                    entry[d0:d1] = np.where(better, diag, entry[d0:d1])
                    epred[d0:d1] = np.where(
                        better, np.arange(vs0, vs0 + (d1 - d0)), epred[d0:d1]
                    )
                idx = np.arange(W, dtype=np.float64)
                t = entry + g * idx
                cm = np.maximum.accumulate(t)
                newmax = np.empty(W, dtype=bool)
                newmax[0] = True
                newmax[1:] = t[1:] > cm[:-1]
                estar = np.maximum.accumulate(np.where(newmax, np.arange(W), -1))
                vals = cm - g * idx
                out_s[r, :W] = vals
                out_p[r, :W] = epred[estar]
                vin = out_s[r, :W]

    def price(self, problem, plan, path):
        if not plan.integral:
            return None
        if path.shape != (plan.n + 2,):
            return None
        p = np.asarray(path, dtype=np.int64)
        if int(p[plan.n + 1]) != 0 or int(p[plan.n]) != plan.selector_source:
            return None  # selector edge would be -inf: dense prices it
        k, j = p[: plan.n], p[1 : plan.n + 1]
        lo_p, lo = plan.los[: plan.n], plan.los[1 : plan.n + 1]
        wid_p, wid = plan.widths[: plan.n], plan.widths[1 : plan.n + 1]
        if np.any((k < 0) | (k >= wid_p) | (j < 0) | (j >= wid)):
            return None
        c_in = lo_p + k
        c_out = lo + j
        up_ok = (c_out >= c_in) & (c_in >= lo)
        up_w = np.where(up_ok, -plan.gu - plan.g * (c_out - c_in), NEG_INF)
        diag_ok = (c_out >= c_in + 1) & (c_in + 1 >= lo) & (c_in + 1 >= 1)
        ms_idx = np.clip(c_in + 1 - lo, 0, plan.Wmax - 1)
        ms = plan.MS[np.arange(plan.n), ms_idx]
        diag_w = np.where(diag_ok, ms - plan.g * (c_out - c_in - 1), NEG_INF)
        best = np.maximum(up_w, diag_w)
        if np.any(np.isneginf(best)):
            return None
        s0 = problem.initial_vector()
        t0 = float(s0[int(p[0])])
        if not np.isfinite(t0) or t0 != np.floor(t0):
            return None
        # Selector edge contributes exactly 0.0 (checked above); all other
        # terms are integers, so any-order summation is exact.
        return float(t0 + np.sum(best))
