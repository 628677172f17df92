"""Stage-block kernel for the Viterbi trellis problems (hard/soft/punctured).

Plan layout: the per-stage ``(S, 2)`` branch metrics become one
contiguous ``(n, 2S)`` matrix in *branch-major* order (column ``b*S+s``
is branch ``b`` into state ``s``), and the predecessor table becomes a
flat gather permutation.  One block dispatch then runs the whole
add-compare-select recurrence ``k`` stages deep.

The radix-2 trellis identity ``pred[s, 1] == pred[s, 0] + 1`` (checked
at plan time, a consequence of the shift-register state update) lets
the kernel emit predecessors as ``pred0[s] + (c1 > c0)`` — the exact
tie-breaking of ``np.argmax`` (branch 0 on equal metrics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.backend import get_backend
from repro.kernels.base import BlockSweep, StageBlockKernel

__all__ = ["ViterbiBlockKernel"]

#: Conservative magnitude bound under which any-order float64 integer
#: summation is exact (far below 2**53 even after n_sym additions).
_EXACT_SUM_BOUND = float(2**40)


@dataclass
class ViterbiPlan:
    S: int
    n_sym: int
    num_stages: int
    terminated: bool
    perm: np.ndarray  # (2S,) int64 flat predecessor gather
    pred0: np.ndarray  # (S,) int64 branch-0 predecessors
    M: np.ndarray  # (n_sym, 2S) float64 branch metrics, branch-major
    costs: np.ndarray  # (num_stages,) float64 == problem.stage_cost(i)
    integral: bool  # metrics exactly integral and small: pricing is order-free


class ViterbiBlockKernel(StageBlockKernel):
    name = "viterbi-block"
    bit_identity_gate = (
        "plan built only when the trellis satisfies pred[:,1] == pred[:,0]+1 "
        "and the preplanned branch-metric matrix reproduces _branch_metrics "
        "row-for-row; per call the input must be a float64 vector of width S "
        "and the registry cross-checks the first and last kernel-computed "
        "block stages against apply_stage_with_pred bit-for-bit, falling "
        "back to the dense path otherwise; selector stages always run dense"
    )

    def fingerprint(self, problem) -> tuple:
        parts = [
            type(problem).__name__,
            problem.code.constraint_length,
            tuple(problem.code.generators),
            bool(problem.terminated),
            problem._symbols.tobytes(),
        ]
        llrs = getattr(problem, "_llrs", None)
        if llrs is not None:
            parts.append(llrs.tobytes())
        mask = getattr(problem, "_mask", None)
        if mask is not None:
            parts.append(mask.tobytes())
        return tuple(parts)

    def plan(self, problem):
        pred = problem._pred
        S = int(problem.code.num_states)
        pred0 = np.ascontiguousarray(pred[:, 0], dtype=np.int64)
        if not np.array_equal(pred[:, 1], pred0 + 1):
            return None
        n_sym = int(problem._num_symbol_stages)
        num_stages = int(problem.num_stages)
        if n_sym < 1:
            return None
        M = np.empty((n_sym, 2 * S), dtype=np.float64)
        llrs = getattr(problem, "_llrs", None)
        if llrs is not None:
            # Soft metrics: reuse the dense per-stage matmul verbatim so
            # float summation order inside each metric is untouched.
            for i in range(1, n_sym + 1):
                bm = problem._branch_metrics(i)
                M[i - 1, :S] = bm[:, 0]
                M[i - 1, S:] = bm[:, 1]
        else:
            out = problem._out  # (S, 2, rate) uint8
            sym = problem._symbols  # (n, rate)
            agree = out[None, :, :, :] == sym[:, None, None, :]
            mask = getattr(problem, "_mask", None)
            if mask is not None:
                agree = agree & mask[:, None, None, :]
            bm = agree.sum(axis=3, dtype=np.float64)  # (n, S, 2)
            M[:, :S] = bm[:, :, 0]
            M[:, S:] = bm[:, :, 1]
        costs = np.full(num_stages, 2.0 * S, dtype=np.float64)
        if num_stages > n_sym:
            costs[-1] = float(S)
        # Spot-check the modeled work against the problem's own accounting.
        if costs[0] != problem.stage_cost(1) or costs[-1] != problem.stage_cost(num_stages):
            return None
        integral = bool(
            np.all(M == np.floor(M)) and np.all(np.abs(M) < _EXACT_SUM_BOUND)
        )
        perm = np.concatenate([pred0, pred0 + 1]).astype(np.int64)
        return ViterbiPlan(
            S=S,
            n_sym=n_sym,
            num_stages=num_stages,
            terminated=bool(problem.terminated),
            perm=perm,
            pred0=pred0,
            M=np.ascontiguousarray(M),
            costs=costs,
            integral=integral,
        )

    def run(self, problem, plan, lo, hi, v, *, capture_state=False):
        if capture_state:
            return None  # trellis problems have no §4.7 sparse state
        if lo >= plan.n_sym:
            return None  # selector-only range: dense handles it
        v = np.asarray(v)
        if v.shape != (plan.S,) or v.dtype != np.float64:
            return None
        k = min(hi, plan.n_sym) - lo
        out_s = np.empty((k, plan.S), dtype=np.float64)
        out_p = np.empty((k, plan.S), dtype=np.int64)
        backend = get_backend()
        M = plan.M[lo : lo + k]
        if backend.viterbi_block is not None:
            backend.viterbi_block(
                np.ascontiguousarray(v), M, plan.perm, plan.pred0, out_s, out_p
            )
        else:
            self._run_numpy(plan, M, v, out_s, out_p)
        neg = np.count_nonzero(np.isneginf(out_s), axis=1)
        zero_rows = np.flatnonzero(neg >= plan.S)
        zero_index = int(zero_rows[0]) if zero_rows.size else None
        values = list(out_s)
        preds = list(out_p)
        costs = plan.costs[lo : lo + k]
        if hi > plan.n_sym:
            # Width-1 selector stage of unterminated packets: dense.
            tv, tp = problem.apply_stage_with_pred(plan.num_stages, values[-1])
            values.append(tv)
            preds.append(tp)
            costs = np.concatenate([costs, plan.costs[-1:]])
            if zero_index is None and np.all(np.isneginf(tv)):
                zero_index = k
        return BlockSweep(
            values=values,
            preds=preds,
            states=None,
            costs=costs,
            zero_index=zero_index,
            dense_tail=len(values) - k,
        )

    @staticmethod
    def _run_numpy(plan, M, v, out_s, out_p):
        """Blocked pure-NumPy path: 3 array ops per stage + one
        vectorized predecessor post-pass over the whole block."""
        k, S = out_s.shape
        buf = np.empty(2 * S, dtype=np.float64)
        c0, c1 = buf[:S], buf[S:]
        vin = v
        for t in range(k):
            np.take(vin, plan.perm, out=buf)
            np.add(buf, M[t], out=buf)
            vin = np.maximum(c0, c1, out=out_s[t])
        vin_rows = np.empty((k, S), dtype=np.float64)
        vin_rows[0] = v
        vin_rows[1:] = out_s[:-1]
        cand = vin_rows[:, plan.perm] + M
        choice = cand[:, S:] > cand[:, :S]
        np.add(plan.pred0[None, :], choice, out=out_p)

    def price(self, problem, plan, path):
        if not plan.integral:
            return None
        if path.shape != (plan.num_stages + 1,):
            return None
        j = np.asarray(path[1 : plan.n_sym + 1], dtype=np.int64)
        k = np.asarray(path[: plan.n_sym], dtype=np.int64)
        if j.size and (j.min() < 0 or j.max() >= plan.S):
            return None
        b = k - plan.pred0[j]
        if np.any((b != 0) & (b != 1)):
            return None  # path not realizable branch-by-branch: dense prices it
        s0 = problem.initial_vector()
        t0 = float(s0[int(path[0])])
        if not np.isfinite(t0) or t0 != np.floor(t0):
            return None
        w = plan.M[np.arange(plan.n_sym), b * plan.S + j]
        # Unterminated selector edges weigh exactly 0.0 (see edge_weight),
        # so the trailing stage contributes nothing to the sum.
        return float(t0 + np.sum(w))
