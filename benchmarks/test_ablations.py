"""Ablations backing the paper's design arguments (DESIGN.md experiment index).

A. §4.7 delta computation: fix-up cells actually touched with vs
   without sparse delta propagation on banded NW/LCS — the sparse
   kernels must cut real fix-up work, and must never do more.
B. §4.5 nz initial vector: the result is invariant to the arbitrary
   start vectors (different seeds/ranges), and convergence behaviour is
   statistically stable.
C. §4.1 blocked matrix-product parallelization: forward work overhead
   over the rank-convergence algorithm grows linearly with stage width.
D. width scaling: steps-to-convergence grows with band width (the
   mechanism behind Figs 9/10's "larger widths perform poorer").
"""

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.datagen.sequences import homologous_pair
from repro.ltdp.blocked import solve_blocked
from repro.ltdp.convergence import measure_convergence_steps
from repro.ltdp.matrix_problem import random_matrix_problem
from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem


def fixup_work(solution):
    return sum(
        s.total_work
        for s in solution.metrics.supersteps
        if s.label.startswith("fixup")
    )


@pytest.fixture(scope="module")
def nw_instance():
    rng = np.random.default_rng(42)
    a, b = homologous_pair(3000, rng, divergence=0.05)
    return NeedlemanWunschProblem(a, b, width=64)


def test_ablation_delta_computation(nw_instance, report, benchmark):
    """A: sparse §4.7 fix-up touches measurably fewer cells than dense.

    Work here is *cells actually computed* by the sparse kernels (not a
    modeled delta count): a fix-up sweep runs dense until the incoming
    boundary delta-converges against the resident stage state, then
    repairs only changed-delta neighbourhoods.  The achievable saving is
    therefore bounded by how quickly each sweep's input becomes
    delta-sparse — ~1.5x on NW (affine entries keep the scan churning)
    and ~2x on LCS (zero gap costs realign almost immediately).  The
    kernel tier is pinned off: a block-kernel fix-up sweep recomputes
    every stage densely, so only the per-stage path runs the sparse
    kernels measured here.
    """
    rows = []
    nw_ratios = []
    for procs in (4, 8, 16, 32):
        full = solve_parallel(
            nw_instance, num_procs=procs, seed=1, use_delta=False, use_kernels=False
        )
        delta = solve_parallel(
            nw_instance, num_procs=procs, seed=1, use_delta=True, use_kernels=False
        )
        np.testing.assert_array_equal(full.path, delta.path)
        fw, dw = fixup_work(full), fixup_work(delta)
        ratio = fw / dw if dw else float("inf")
        nw_ratios.append(ratio)
        rows.append(["NW", procs, f"{fw:.0f}", f"{dw:.0f}", f"{ratio:.2f}x"])
    rng = np.random.default_rng(42)
    a, b = homologous_pair(3000, rng, divergence=0.05)
    lcs = LCSProblem(a, b, width=64)
    lcs_ratios = []
    for procs in (8, 32):
        full = solve_parallel(
            lcs, num_procs=procs, seed=1, use_delta=False, use_kernels=False
        )
        delta = solve_parallel(
            lcs, num_procs=procs, seed=1, use_delta=True, use_kernels=False
        )
        np.testing.assert_array_equal(full.path, delta.path)
        fw, dw = fixup_work(full), fixup_work(delta)
        ratio = fw / dw if dw else float("inf")
        lcs_ratios.append(ratio)
        rows.append(["LCS", procs, f"{fw:.0f}", f"{dw:.0f}", f"{ratio:.2f}x"])
    report(
        "ablation_delta",
        format_table(
            ["problem", "P", "fixup cells (full)", "fixup cells (delta)", "reduction"],
            rows,
            title="Ablation A — §4.7 sparse delta fix-up (banded, width 64)",
        ),
    )
    benchmark(
        lambda: solve_parallel(
            nw_instance, num_procs=8, seed=1, use_delta=True, use_kernels=False
        )
    )
    # Sparse fix-up must never touch more cells than dense (the kernel
    # caps repair cost at the dense stage cost), and must win clearly.
    assert all(r >= 1.0 for r in nw_ratios + lcs_ratios)
    assert max(nw_ratios) > 1.3
    assert max(lcs_ratios) > 1.6


def test_ablation_nz_invariance(nw_instance, report, benchmark):
    """B: the arbitrary start vectors never change the answer (§4.5)."""
    reference = solve_sequential(nw_instance)
    rows = []
    for seed, (lo, hi) in [
        (0, (-10, 10)),
        (1, (-10, 10)),
        (2, (-1, 1)),
        (3, (-1000, 1000)),
        (4, (5, 50)),
    ]:
        sol = solve_parallel(
            nw_instance,
            ParallelOptions(num_procs=8, seed=seed, nz_low=lo, nz_high=hi),
        )
        identical = bool(np.array_equal(sol.path, reference.path))
        rows.append(
            [
                seed,
                f"[{lo}, {hi}]",
                sol.metrics.forward_fixup_iterations,
                identical,
            ]
        )
        assert identical and sol.score == reference.score
    report(
        "ablation_nz",
        format_table(
            ["seed", "nz range", "fix-up iters", "path identical"],
            rows,
            title="Ablation B — invariance to the arbitrary nz start vector",
        ),
    )
    benchmark(lambda: solve_parallel(nw_instance, num_procs=8, seed=99))


def test_ablation_blocked_overhead(report, benchmark):
    """C: §4.1 matrix-product parallelization pays Θ(width) extra work."""
    rng = np.random.default_rng(0)
    rows = []
    overheads = []
    for width in (4, 8, 16, 32):
        problem = random_matrix_problem(48, width, rng, integer=True)
        blocked = solve_blocked(problem, num_procs=8)
        ltdp = solve_parallel(problem, num_procs=8, seed=0)
        np.testing.assert_array_equal(blocked.path, ltdp.path)
        b_work = blocked.metrics.total_work
        l_work = ltdp.metrics.total_work
        overhead = b_work / l_work
        overheads.append(overhead)
        rows.append([width, f"{b_work:.0f}", f"{l_work:.0f}", f"{overhead:.1f}x"])
    report(
        "ablation_blocked",
        format_table(
            ["width", "blocked work", "LTDP work", "overhead"],
            rows,
            title="Ablation C — §4.1 blocked matrix products vs rank convergence",
        ),
    )
    problem = random_matrix_problem(48, 16, rng, integer=True)
    benchmark(lambda: solve_blocked(problem, num_procs=8))
    # Overhead grows with width ("parallelization overhead linear in the
    # size of the stages").
    assert overheads[-1] > overheads[0]
    assert overheads[-1] > 4.0


def test_ablation_width_vs_convergence(report, benchmark):
    """D: convergence steps grow with band width (Fig 9/10 mechanism)."""
    rng = np.random.default_rng(5)
    a, b = homologous_pair(2500, rng, divergence=0.2)
    rows = []
    medians = []
    for width in (8, 16, 32, 64, 128):
        problem = NeedlemanWunschProblem(a, b, width=width)
        study = measure_convergence_steps(problem, num_trials=8, seed=2)
        med = study.median_steps if study.median_steps is not None else np.inf
        medians.append(med)
        rows.append(list(study.row()))
    report(
        "ablation_width",
        format_table(
            ["problem", "width", "min", "median", "max", "converged"],
            rows,
            title="Ablation D — convergence steps vs band width (NW)",
        ),
    )
    problem = NeedlemanWunschProblem(a, b, width=32)
    benchmark(lambda: solve_sequential(problem))
    assert medians[-1] > medians[0]
