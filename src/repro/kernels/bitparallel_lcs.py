"""Hyyrö's bit-parallel LCS sweep promoted to an executor fast path.

Previously test-only (:mod:`repro.problems.alignment.bitparallel`), the
bignum bit-vector recurrence now runs whole stage-blocks of the
full-band LCS forward pass: each stage is one word-level update
``U = V & M[a_i]``; ``V ← ((V + U) | (V − U)) & mask`` instead of an
``O(m)`` tropical scan.

The gate is strict — and self-proving.  The bit recurrence only
represents rows whose consecutive differences are exactly ``{0, 1}``
(true LCS rows; the random fix-up seed vectors of far processors fail
this and fall through to the banded kernel / dense path).  After the
bit sweep, the decoded rows are pushed through a row-vectorized replica
of the dense entry+scan ops, which (a) yields predecessors and §4.7
capture planes bit-identical to the dense kernel and (b) re-derives
every row's values; the sweep is accepted only if the scan values match
the decoded values byte-for-byte — an inductive per-call proof of the
whole block, stage by stage, starting from the caller's input vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.base import BlockSweep, StageBlockKernel
from repro.problems.alignment.banded import BandedStageState
from repro.problems.alignment.bitparallel import build_match_masks

__all__ = ["BitParallelLCSKernel"]

_EXACT_BASE_BOUND = float(2**40)


@dataclass
class BitParallelPlan:
    n: int
    m: int
    nbytes: int
    mask_all: int
    row_masks: list  # per a-row bignum match mask over b's bit positions
    MS: np.ndarray  # (n, m) float64 match scores (b == a[i]) rows
    costs: np.ndarray  # (num_stages,) float64 == problem.stage_cost(i)
    selector_source: int


class BitParallelLCSKernel(StageBlockKernel):
    name = "bitparallel-lcs"
    bit_identity_gate = (
        "plan built only for the concrete full-band LCSProblem with an "
        "integer symbol alphabet; per call the input row must have "
        "consecutive differences exactly in {0, 1} with an integral base "
        "and no negative zeros, and the block is accepted only when a "
        "dense-op scan replay of the decoded rows reproduces them "
        "byte-for-byte (inductive exactness proof from the input vector); "
        "the registry additionally cross-checks the first and last "
        "kernel-computed stages against the dense kernel and the selector "
        "stage always runs dense"
    )

    def fingerprint(self, problem) -> tuple:
        return (
            type(problem).__name__,
            int(problem.width),
            problem.a.tobytes(),
            problem.b.tobytes(),
            str(problem.a.dtype),
            str(problem.b.dtype),
        )

    def plan(self, problem):
        from repro.problems.alignment.lcs import LCSProblem

        if type(problem) is not LCSProblem:
            return None
        n, m = problem._n, problem._m
        if n < 1 or m < 1:
            return None
        if problem.width < max(n, m):
            return None  # band clips the table: rows are not full-width
        for seq in (problem.a, problem.b):
            if not (seq.dtype == np.bool_ or np.issubdtype(seq.dtype, np.integer)):
                return None
        masks = build_match_masks(problem.b)
        a_syms = np.asarray(problem.a, dtype=np.int64).tolist()
        row_masks = [masks.get(sym, 0) for sym in a_syms]
        MS = (problem.b[None, :] == problem.a[:, None]).astype(np.float64)
        costs = np.full(n + 1, float(m + 1), dtype=np.float64)
        costs[n] = problem.stage_cost(problem.num_stages)
        if costs[0] != problem.stage_cost(1) or costs[n - 1] != problem.stage_cost(n):
            return None
        return BitParallelPlan(
            n=n,
            m=m,
            nbytes=(m + 7) // 8,
            mask_all=(1 << m) - 1,
            row_masks=row_masks,
            MS=MS,
            costs=costs,
            selector_source=int(problem._selector_source()),
        )

    def run(self, problem, plan, lo, hi, v, *, capture_state=False):
        m = plan.m
        if lo >= plan.n:
            return None
        v = np.asarray(v)
        if v.shape != (m + 1,) or v.dtype != np.float64:
            return None
        base = float(v[0])
        if not np.isfinite(base) or base != np.floor(base) or abs(base) > _EXACT_BASE_BOUND:
            return None
        diffs = v[1:] - v[:-1]
        if np.any((diffs != 0.0) & (diffs != 1.0)):
            return None
        if np.any((v == 0.0) & np.signbit(v)):
            return None  # -0.0 would make byte-level comparison ambiguous
        k = min(hi, plan.n) - lo

        # Bignum sweep: encode the input row (bit j set <=> no increment
        # at column j+1), then one word update per stage.
        bits_in = np.packbits((diffs == 0.0).astype(np.uint8), bitorder="little")
        vcur = int.from_bytes(bits_in.tobytes(), "little")
        raw = bytearray()
        for r in range(k):
            mt = plan.row_masks[lo + r]
            u = vcur & mt
            vcur = ((vcur + u) | (vcur - u)) & plan.mask_all
            raw += vcur.to_bytes(plan.nbytes, "little")

        # Decode all rows at once: value[j] = base + j - popcount(prefix).
        bits = np.unpackbits(
            np.frombuffer(bytes(raw), dtype=np.uint8).reshape(k, plan.nbytes),
            axis=1,
            bitorder="little",
        )[:, :m]
        decoded = np.empty((k, m + 1), dtype=np.float64)
        decoded[:, 0] = base
        decoded[:, 1:] = base + (
            np.arange(1, m + 1, dtype=np.float64) - np.cumsum(bits, axis=1)
        )

        # Dense-op replay (row-vectorized _entry_values + _scan with the
        # LCS gaps gu = g = 0.0 applied literally): predecessors, capture
        # planes, and the exactness cross-check all come from here.
        vin_rows = np.empty((k, m + 1), dtype=np.float64)
        vin_rows[0] = v
        vin_rows[1:] = decoded[:-1]
        entry = vin_rows - 0.0
        epred = np.broadcast_to(np.arange(m + 1, dtype=np.int64), (k, m + 1)).copy()
        diag = vin_rows[:, :m] + plan.MS[lo : lo + k]
        better = diag >= entry[:, 1:]
        entry[:, 1:] = np.where(better, diag, entry[:, 1:])
        epred[:, 1:] = np.where(better, np.arange(m, dtype=np.int64), epred[:, 1:])
        idx = np.arange(m + 1, dtype=np.float64)
        t = entry + 0.0 * idx
        cm = np.maximum.accumulate(t, axis=1)
        newmax = np.empty((k, m + 1), dtype=bool)
        newmax[:, 0] = True
        newmax[:, 1:] = t[:, 1:] > cm[:, :-1]
        estar = np.maximum.accumulate(
            np.where(newmax, np.arange(m + 1, dtype=np.int64), -1), axis=1
        )
        vals = cm - 0.0 * idx
        if vals.tobytes() != decoded.tobytes():
            return None  # bit sweep and dense replay disagree: fall back
        preds = np.take_along_axis(epred, estar, axis=1)

        values = list(vals)
        pred_list = list(preds)
        states = None
        if capture_state:
            states = [
                BandedStageState(
                    in_vec=vin_rows[r],
                    entry=entry[r],
                    epred=epred[r],
                    cm=cm[r],
                    estar=estar[r],
                    out=values[r],
                    pred=pred_list[r],
                )
                for r in range(k)
            ]
        costs = plan.costs[lo : lo + k]
        zero_index = None  # every row is finite by the diff gate
        if hi > plan.n:
            if capture_state:
                tv, tp, ts = problem.apply_stage_with_state(plan.n + 1, values[-1])
                states.append(ts)
            else:
                tv, tp = problem.apply_stage_with_pred(plan.n + 1, values[-1])
            values.append(tv)
            pred_list.append(tp)
            costs = np.concatenate([costs, plan.costs[-1:]])
            if np.all(np.isneginf(tv)):
                zero_index = k
        return BlockSweep(
            values=values,
            preds=pred_list,
            states=states,
            costs=costs,
            zero_index=zero_index,
            dense_tail=len(values) - k,
        )

    def price(self, problem, plan, path):
        # The banded kernel (registered alongside this one) owns pricing.
        return None
