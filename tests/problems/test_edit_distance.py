"""Tests for the edit-distance (min-plus) LTDP wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.sequences import homologous_pair, random_dna
from repro.ltdp.engine.driver import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.problems.alignment.edit_distance import (
    EditDistanceProblem,
    edit_distance_reference,
)

dna = st.lists(st.integers(0, 3), min_size=1, max_size=16).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


class TestEditDistance:
    @settings(max_examples=40, deadline=None)
    @given(a=dna, b=dna)
    def test_matches_levenshtein_reference(self, a, b):
        width = len(a) + len(b)  # unbanded
        problem = EditDistanceProblem(a, b, width=width)
        sol = solve_sequential(problem)
        assert EditDistanceProblem.distance(sol) == edit_distance_reference(a, b)

    def test_identical_strings_distance_zero(self, rng):
        a = random_dna(20, rng)
        sol = solve_sequential(EditDistanceProblem(a, a, width=4))
        assert EditDistanceProblem.distance(sol) == 0

    def test_known_example(self):
        # "kitten" -> "sitting" over a mapped alphabet: distance 3.
        mapping = {c: i for i, c in enumerate("kitensg")}
        a = np.array([mapping[c] for c in "kitten"])
        b = np.array([mapping[c] for c in "sitting"])
        sol = solve_sequential(EditDistanceProblem(a, b, width=13))
        assert EditDistanceProblem.distance(sol) == 3

    def test_narrow_band_never_underestimates(self, rng):
        a = random_dna(40, rng)
        b = random_dna(40, rng)
        exact = edit_distance_reference(a, b)
        banded = EditDistanceProblem.distance(
            solve_sequential(EditDistanceProblem(a, b, width=2))
        )
        assert banded >= exact

    def test_parallel_equals_sequential(self, rng):
        a, b = homologous_pair(120, rng, divergence=0.1)
        problem = EditDistanceProblem(a, b, width=12)
        seq = solve_sequential(problem)
        par = solve_parallel(problem, num_procs=4)
        np.testing.assert_array_equal(seq.path, par.path)
        assert seq.score == par.score

    def test_distance_tracks_divergence(self, rng):
        a1, b1 = homologous_pair(300, rng, divergence=0.02)
        a2, b2 = homologous_pair(300, rng, divergence=0.3)
        d1 = EditDistanceProblem.distance(
            solve_sequential(EditDistanceProblem(a1, b1, width=30))
        )
        d2 = EditDistanceProblem.distance(
            solve_sequential(EditDistanceProblem(a2, b2, width=30))
        )
        assert d1 < d2
