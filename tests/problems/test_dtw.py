"""Tests for dynamic time warping as LTDP."""

import numpy as np
import pytest

from repro.datagen.sequences import random_series
from repro.exceptions import ProblemDefinitionError
from repro.ltdp.engine.driver import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.ltdp.validation import validate_problem
from repro.problems.dtw import DTWProblem, dtw_distance_reference


class TestDTW:
    @pytest.mark.parametrize("seed", range(5))
    def test_wide_band_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        x = random_series(30, rng)
        y = random_series(30, rng)
        p = DTWProblem(x, y, width=60)
        sol = solve_sequential(p)
        assert -sol.score == pytest.approx(dtw_distance_reference(x, y))

    def test_identical_series_distance_zero(self, rng):
        x = random_series(25, rng)
        p = DTWProblem(x, x, width=5)
        assert -solve_sequential(p).score == pytest.approx(0.0)

    def test_band_restricts_distance(self, rng):
        """A narrow band can only increase (never decrease) the distance."""
        x = random_series(40, rng)
        y = random_series(40, rng)
        wide = -solve_sequential(DTWProblem(x, y, width=80)).score
        narrow = -solve_sequential(DTWProblem(x, y, width=2)).score
        assert narrow >= wide - 1e-12

    def test_parallel_equals_sequential(self, rng):
        x = random_series(120, rng)
        y = random_series(120, rng)
        p = DTWProblem(x, y, width=15)
        seq = solve_sequential(p)
        par = solve_parallel(p, num_procs=4)
        assert par.score == pytest.approx(seq.score, abs=1e-9)
        np.testing.assert_array_equal(seq.path, par.path)

    def test_warping_path_is_monotone(self, rng):
        x = random_series(40, rng)
        y = random_series(40, rng)
        p = DTWProblem(x, y, width=10)
        path = p.extract(solve_sequential(p))
        rows = [r for r, _ in path]
        cols = [c for _, c in path]
        assert rows == list(range(1, 41))
        assert all(c2 >= c1 for c1, c2 in zip(cols, cols[1:]))
        assert cols[-1] == 40  # ends at the last column

    def test_shifted_series_needs_warping(self, rng):
        base = np.sin(np.linspace(0, 6 * np.pi, 50))
        shifted = np.sin(np.linspace(0, 6 * np.pi, 50) + 0.4)
        d_dtw = -solve_sequential(DTWProblem(base, shifted, width=10)).score
        d_euclid = float(np.abs(base - shifted).sum())
        assert d_dtw < d_euclid  # warping absorbs the phase shift

    def test_band_validation(self, rng):
        with pytest.raises(ProblemDefinitionError):
            DTWProblem(random_series(30, rng), random_series(10, rng), width=3)

    def test_empty_rejected(self, rng):
        with pytest.raises(ProblemDefinitionError):
            DTWProblem(np.array([]), random_series(5, rng), width=3)

    def test_is_valid_ltdp(self, rng):
        p = DTWProblem(random_series(15, rng), random_series(15, rng), width=4)
        report = validate_problem(p, tol=1e-9)
        assert report.ok, report.failures

    def test_edge_weight_matches_probe(self, rng):
        from repro.ltdp.engine.driver import edge_weight_by_probe

        p = DTWProblem(random_series(8, rng), random_series(8, rng), width=3)
        for i in (1, 4, 8):
            for j in range(p.stage_width(i)):
                for k in range(p.stage_width(i - 1)):
                    assert p.edge_weight(i, j, k) == pytest.approx(
                        edge_weight_by_probe(p, i, j, k), abs=1e-12
                    )
