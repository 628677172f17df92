"""Tests for Smith–Waterman: LTDP formulation, striped baseline, objective."""

import numpy as np
import pytest

from repro.datagen.sequences import random_dna
from repro.exceptions import ProblemDefinitionError
from repro.ltdp.engine.driver import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.ltdp.validation import validate_problem
from repro.problems.alignment.reference import sw_score_reference, sw_table
from repro.problems.alignment.scoring import ScoringScheme
from repro.problems.alignment.smith_waterman import SmithWatermanProblem
from repro.problems.alignment.striped import build_query_profile, sw_score_striped

AFFINE = ScoringScheme(match=2.0, mismatch=-1.0, gap_open=3.0, gap_extend=1.0)
LINEAR = ScoringScheme(match=2.0, mismatch=-1.0, gap_open=2.0, gap_extend=2.0)


class TestStripedBaseline:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("scoring", [AFFINE, LINEAR], ids=["affine", "linear"])
    def test_matches_gotoh_reference(self, seed, scoring):
        rng = np.random.default_rng(seed)
        q = random_dna(int(rng.integers(3, 25)), rng)
        db = random_dna(int(rng.integers(3, 60)), rng)
        assert sw_score_striped(q, db, scoring, alphabet_size=4) == pytest.approx(
            sw_score_reference(q, db, scoring)
        )

    def test_empty_inputs_score_zero(self):
        assert sw_score_striped(np.array([], int), np.array([1])) == 0.0

    def test_query_profile_shape(self, rng):
        q = random_dna(10, rng)
        prof = build_query_profile(q, AFFINE, 4)
        assert prof.shape == (4, 10)
        assert prof[int(q[0]), 0] == AFFINE.match

    def test_lazy_f_loop_exercised(self):
        """A long vertical gap chain forces multiple lazy-F passes."""
        q = np.array([0, 1, 1, 1, 1, 1, 1, 0], dtype=int)
        db = np.array([0, 0], dtype=int)
        scoring = ScoringScheme(match=10.0, mismatch=-1.0, gap_open=1.0, gap_extend=1.0)
        assert sw_score_striped(q, db, scoring, alphabet_size=4) == pytest.approx(
            sw_score_reference(q, db, scoring)
        )


class TestSWProblem:
    @pytest.mark.parametrize("seed", range(6))
    def test_score_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        q = random_dna(15, rng)
        db = random_dna(80, rng)
        p = SmithWatermanProblem(q, db, scoring=AFFINE)
        sol = solve_sequential(p)
        assert sol.score == sw_score_reference(q, db, AFFINE)

    def test_objective_stage_is_argmax_column(self, rng):
        q = random_dna(12, rng)
        db = random_dna(60, rng)
        p = SmithWatermanProblem(q, db, scoring=AFFINE)
        sol = solve_sequential(p)
        H = sw_table(q, db, AFFINE)
        best_by_column = H.max(axis=0)
        assert best_by_column[sol.objective_stage] == sol.score
        # earliest column achieving the max (sequential tie-break)
        assert sol.objective_stage == int(np.argmax(best_by_column >= sol.score))

    def test_planted_hit_found(self, rng):
        q = random_dna(25, rng)
        db = random_dna(300, rng)
        db[150:175] = q
        p = SmithWatermanProblem(q, db)
        sol = solve_sequential(p)
        assert sol.score == 25 * p.scoring.match
        summary = p.extract(sol)
        assert summary.db_window == (151, 175)
        assert summary.query_window == (1, 25)

    def test_parallel_equals_sequential(self, rng):
        q = random_dna(20, rng)
        db = random_dna(400, rng)
        db[60:80] = q[:20]
        p = SmithWatermanProblem(q, db)
        seq = solve_sequential(p)
        par = solve_parallel(p, num_procs=8)
        assert seq.score == par.score
        assert seq.objective_stage == par.objective_stage
        assert seq.objective_cell == par.objective_cell
        np.testing.assert_array_equal(seq.path, par.path)

    def test_parallel_converges_despite_early_global_max(self, rng):
        """The reduction design: an early hit must not devolve the fix-up."""
        q = random_dna(16, rng)
        db = random_dna(800, rng)
        db[10:26] = q  # global max in processor 1's range
        p = SmithWatermanProblem(q, db)
        par = solve_parallel(p, num_procs=8)
        assert par.metrics.forward_fixup_iterations <= 2
        assert par.score == sw_score_reference(q, db, p.scoring)

    def test_no_hit_scores_zero_like(self, rng):
        q = np.zeros(5, dtype=int)
        db = np.ones(30, dtype=int)
        scoring = ScoringScheme(match=1.0, mismatch=-5.0, gap_open=5.0, gap_extend=5.0)
        p = SmithWatermanProblem(q, db, scoring=scoring)
        sol = solve_sequential(p)
        assert sol.score == 0.0

    def test_stage_objective_shift_invariant(self, rng):
        q = random_dna(10, rng)
        db = random_dna(20, rng)
        p = SmithWatermanProblem(q, db)
        v = rng.integers(-5, 6, size=p.stage_width(0)).astype(float)
        val1, cell1 = p.stage_objective(3, v)
        val2, cell2 = p.stage_objective(3, v + 17.0)
        assert val1 == val2 and cell1 == cell2

    def test_is_valid_ltdp(self, rng):
        p = SmithWatermanProblem(random_dna(8, rng), random_dna(30, rng))
        report = validate_problem(p)
        assert report.ok, report.failures

    def test_empty_inputs_rejected(self, rng):
        with pytest.raises(ProblemDefinitionError):
            SmithWatermanProblem(np.array([], int), random_dna(5, rng))

    def test_vector_layout(self, rng):
        p = SmithWatermanProblem(random_dna(7, rng), random_dna(9, rng))
        assert p.stage_width(0) == 15  # Z + 7 H + 7 E
        v0 = p.initial_vector()
        assert v0[0] == 0.0
        assert np.all(v0[1:8] == 0.0)
        assert np.all(np.isneginf(v0[8:]))

    def test_single_column_database(self, rng):
        q = random_dna(6, rng)
        db = q[:1].copy()
        p = SmithWatermanProblem(q, db)
        sol = solve_sequential(p)
        assert sol.score == sw_score_reference(q, db, p.scoring)
