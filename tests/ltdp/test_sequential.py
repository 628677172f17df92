"""Tests for the sequential LTDP algorithm (paper Fig 2)."""

import numpy as np
import pytest

from repro.exceptions import ZeroVectorError
from repro.ltdp.matrix_problem import MatrixLTDPProblem, random_matrix_problem
from repro.ltdp.sequential import (
    backward_sequential,
    forward_sequential,
    solve_sequential,
)
from repro.semiring.tropical import NEG_INF

from tests.conftest import brute_force_ltdp


class TestForward:
    def test_final_vector_matches_chain(self, rng):
        p = random_matrix_problem(6, 4, rng, integer=True)
        final, pred, vectors, best = forward_sequential(p, keep_stage_vectors=True)
        v = p.initial_vector()
        for i in range(1, 7):
            v = p.apply_stage(i, v)
        np.testing.assert_array_equal(final, v)
        assert best is None

    def test_stage_vectors_kept_when_requested(self, rng):
        p = random_matrix_problem(4, 3, rng)
        _, _, vectors, _ = forward_sequential(p, keep_stage_vectors=True)
        assert vectors is not None and len(vectors) == 5
        np.testing.assert_array_equal(vectors[0], p.initial_vector())

    def test_stage_vectors_omitted_by_default(self, rng):
        p = random_matrix_problem(4, 3, rng)
        _, _, vectors, _ = forward_sequential(p)
        assert vectors is None

    def test_pred_slot_zero_unused(self, rng):
        p = random_matrix_problem(4, 3, rng)
        _, pred, _, _ = forward_sequential(p)
        assert pred[0] is None
        assert all(pr is not None for pr in pred[1:])

    def test_zero_vector_raises(self):
        # A trivial row forces a -inf entry; an all-trivial matrix
        # collapses the whole vector.
        bad = np.full((2, 2), NEG_INF)
        p = MatrixLTDPProblem(np.zeros(2), [bad], allow_trivial=True)
        with pytest.raises(ZeroVectorError):
            forward_sequential(p)


class TestBackward:
    def test_path_indexes_predecessors(self, rng):
        p = random_matrix_problem(5, 4, rng, integer=True)
        _, pred, _, _ = forward_sequential(p)
        path = backward_sequential(pred)
        assert path[-1] == 0
        for i in range(5, 0, -1):
            assert path[i - 1] == pred[i][path[i]]

    def test_start_stage_limits_traversal(self, rng):
        p = random_matrix_problem(5, 4, rng, integer=True)
        _, pred, _, _ = forward_sequential(p)
        path = backward_sequential(pred, start_stage=3, start_cell=2)
        assert path[3] == 2
        assert path[4] == 0 and path[5] == 0  # untouched suffix


class TestSolve:
    def test_against_brute_force(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            p = random_matrix_problem(5, 3, rng, integer=True)
            sol = solve_sequential(p)
            expected_score, expected_path = brute_force_ltdp(
                p.initial_vector(), [p.stage_matrix(i) for i in range(1, 6)]
            )
            assert sol.score == expected_score
            np.testing.assert_array_equal(sol.path, expected_path)

    def test_path_prices_to_score(self, rng):
        p = random_matrix_problem(6, 4, rng, integer=True)
        sol = solve_sequential(p)
        total = p.initial_vector()[sol.path[0]]
        for i in range(1, 7):
            total += p.stage_matrix(i)[sol.path[i], sol.path[i - 1]]
        assert total == sol.score

    def test_metrics_when_requested(self, rng):
        p = random_matrix_problem(4, 3, rng)
        sol = solve_sequential(p, with_metrics=True)
        assert sol.metrics is not None
        assert sol.metrics.num_procs == 1
        assert sol.metrics.critical_path_work == p.total_cells() + 4

    def test_no_metrics_by_default(self, rng):
        p = random_matrix_problem(4, 3, rng)
        assert solve_sequential(p).metrics is None

    def test_single_stage_problem(self, rng):
        p = random_matrix_problem(1, 3, rng, integer=True)
        sol = solve_sequential(p)
        assert sol.path.shape == (2,)
        assert sol.score == p.apply_stage(1, p.initial_vector())[0]
