#!/usr/bin/env python
"""Sequence alignment with NW (global) and SW (local) — the §6.3.2/6.3.3 scenario.

Globally aligns a homologous DNA pair with banded Needleman–Wunsch,
then searches a long synthetic "chromosome" for a planted gene with
affine-gap Smith–Waterman, both via the parallel LTDP algorithm.

Run:  python examples/sequence_alignment.py
"""

import numpy as np

from repro import (
    NeedlemanWunschProblem,
    ScoringScheme,
    SmithWatermanProblem,
    solve_parallel,
    solve_sequential,
)
from repro.datagen import homologous_pair, random_dna

rng = np.random.default_rng(11)


def global_alignment_demo() -> None:
    print("=== Needleman–Wunsch: global alignment of a homologous pair ===")
    a, b = homologous_pair(800, rng, divergence=0.06)
    scoring = ScoringScheme.unit_linear(gap=1.0)
    problem = NeedlemanWunschProblem(a, b, width=24, scoring=scoring)

    par = solve_parallel(problem, num_procs=8, seed=0)
    seq = solve_sequential(problem)
    assert par.score == seq.score

    alignment = problem.extract(par)
    identity = float(np.mean(alignment.top == alignment.bottom))
    print(f"alignment score    : {par.score:.0f}")
    print(f"alignment columns  : {len(alignment)}")
    print(f"percent identity   : {identity:.1%}")
    print(f"fix-up iterations  : {par.metrics.forward_fixup_iterations}")
    head = 60
    print("first 60 columns:")
    rendered = alignment.render()
    for line in rendered.splitlines():
        print("  " + line[:head])
    print()


def local_alignment_demo() -> None:
    print("=== Smith–Waterman: find a planted gene in a chromosome ===")
    gene = random_dna(60, rng)
    chromosome = random_dna(20_000, rng)
    where = 13_400
    # Plant a slightly mutated copy of the gene.
    copy = gene.copy()
    copy[::9] = (copy[::9] + 1) % 4
    chromosome[where : where + 60] = copy

    problem = SmithWatermanProblem(gene, chromosome)
    par = solve_parallel(problem, num_procs=16, seed=0)
    summary = problem.extract(par)
    print(f"best local score   : {par.score:.0f}")
    print(f"database window    : {summary.db_window} (planted at {where + 1})")
    print(f"query window       : {summary.query_window}")
    print(f"fix-up iterations  : {par.metrics.forward_fixup_iterations}")
    lo, hi = summary.db_window
    assert lo >= where - 5 and hi <= where + 66, "hit should be at the plant site"
    print("planted gene located correctly\n")


if __name__ == "__main__":
    global_alignment_demo()
    local_alignment_demo()
