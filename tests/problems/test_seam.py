"""Tests for seam carving as LTDP."""

import numpy as np
import pytest

from repro.exceptions import ProblemDefinitionError
from repro.ltdp.engine.driver import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.ltdp.validation import validate_problem
from repro.problems.seam import (
    SeamCarvingProblem,
    gradient_energy,
    seam_energy_reference,
)


class TestEnergy:
    def test_gradient_energy_flat_image_is_zero(self):
        assert gradient_energy(np.full((5, 5), 3.0)).sum() == 0.0

    def test_gradient_energy_detects_edges(self):
        img = np.zeros((4, 6))
        img[:, 3:] = 1.0
        e = gradient_energy(img)
        assert e[:, 3].sum() > 0
        assert e[:, 1].sum() == 0

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            gradient_energy(np.zeros(5))


class TestSeamProblem:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_dp(self, seed):
        rng = np.random.default_rng(seed)
        E = rng.random((20, 12))
        p = SeamCarvingProblem(E)
        sol = solve_sequential(p)
        assert -sol.score == pytest.approx(seam_energy_reference(E))

    def test_seam_is_connected(self, rng):
        E = rng.random((30, 15))
        p = SeamCarvingProblem(E)
        seam = p.extract(solve_sequential(p))
        assert seam.shape == (30,)
        assert np.all(np.abs(np.diff(seam)) <= 1)

    def test_seam_prices_to_score(self, rng):
        E = rng.random((25, 10))
        p = SeamCarvingProblem(E)
        sol = solve_sequential(p)
        seam = p.extract(sol)
        total = sum(E[i, seam[i]] for i in range(25))
        assert total == pytest.approx(-sol.score)

    def test_avoids_high_energy_column(self, rng):
        E = rng.random((20, 9)) * 0.1
        E[:, 4] = 100.0  # wall
        seam = SeamCarvingProblem(E).extract(
            solve_sequential(SeamCarvingProblem(E))
        )
        assert not np.any(seam == 4)

    def test_parallel_equals_sequential(self, rng):
        E = rng.random((100, 16))
        p = SeamCarvingProblem(E)
        seq = solve_sequential(p)
        par = solve_parallel(p, num_procs=5)
        assert par.score == pytest.approx(seq.score, abs=1e-9)
        np.testing.assert_array_equal(seq.path, par.path)

    def test_single_row_image(self, rng):
        E = rng.random((1, 6))
        sol = solve_sequential(SeamCarvingProblem(E))
        assert -sol.score == pytest.approx(E.min())

    def test_single_column_image(self, rng):
        E = rng.random((5, 1))
        sol = solve_sequential(SeamCarvingProblem(E))
        assert -sol.score == pytest.approx(E.sum())

    def test_nonfinite_energy_rejected(self):
        E = np.ones((3, 3))
        E[1, 1] = np.inf
        with pytest.raises(ProblemDefinitionError):
            SeamCarvingProblem(E)

    def test_is_valid_ltdp(self, rng):
        p = SeamCarvingProblem(rng.random((10, 8)))
        report = validate_problem(p, tol=1e-9)
        assert report.ok, report.failures
