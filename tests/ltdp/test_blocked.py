"""Tests for the §4.1 blocked matrix-product baseline."""

import numpy as np
import pytest

from repro.datagen.sequences import random_dna
from repro.ltdp.blocked import solve_blocked
from repro.ltdp.matrix_problem import random_matrix_problem
from repro.ltdp.engine.driver import solve_parallel
from repro.ltdp.sequential import solve_sequential

from tests.ltdp.test_parallel import permutation_chain_problem


class TestBlockedSolver:
    @pytest.mark.parametrize("num_procs", [1, 2, 4, 7])
    def test_matches_sequential(self, num_procs):
        rng = np.random.default_rng(3)
        p = random_matrix_problem(20, 5, rng, integer=True)
        seq = solve_sequential(p)
        blk = solve_blocked(p, num_procs=num_procs)
        np.testing.assert_array_equal(seq.path, blk.path)
        assert seq.score == blk.score

    def test_works_without_convergence(self, rng):
        """No rank assumption: adversarial chains are handled exactly."""
        p = permutation_chain_problem(16, 5, rng)
        seq = solve_sequential(p)
        blk = solve_blocked(p, num_procs=4)
        np.testing.assert_array_equal(seq.path, blk.path)

    def test_objective_problems_supported(self, rng):
        from repro.problems.alignment.smith_waterman import SmithWatermanProblem

        q = random_dna(6, rng)
        db = random_dna(40, rng)
        sp = SmithWatermanProblem(q, db)
        seq = solve_sequential(sp)
        blk = solve_blocked(sp, num_procs=3)
        assert blk.score == seq.score
        assert blk.objective_stage == seq.objective_stage

    def test_matrix_matrix_overhead_recorded(self, rng):
        """The recorded work must show the Θ(width) overhead of §4.1."""
        width = 8
        p = random_matrix_problem(32, width, rng, integer=True)
        blk = solve_blocked(p, num_procs=4)
        par = solve_parallel(p, num_procs=4)
        # Blocked forward work ≈ stages·width³; LTDP ≈ stages·width²·(1+ε).
        blk_fwd = blk.metrics.supersteps[0].total_work
        par_fwd = par.metrics.total_work
        assert blk_fwd > 2.0 * par_fwd

    def test_superstep_labels(self, rng):
        p = random_matrix_problem(12, 4, rng, integer=True)
        blk = solve_blocked(p, num_procs=3)
        labels = [s.label for s in blk.metrics.supersteps]
        assert labels == ["partial-products", "prefix-scan", "re-sweep", "backward"]


class TestTreeScan:
    @pytest.mark.parametrize("num_procs", [1, 2, 4, 7, 8])
    def test_tree_scan_matches_sequential(self, num_procs):
        rng = np.random.default_rng(4)
        p = random_matrix_problem(20, 5, rng, integer=True)
        seq = solve_sequential(p)
        blk = solve_blocked(p, num_procs=num_procs, tree_scan=True)
        np.testing.assert_array_equal(seq.path, blk.path)
        assert seq.score == blk.score

    def test_tree_scan_matches_linear_scan(self, rng):
        p = random_matrix_problem(24, 4, rng, integer=True)
        linear = solve_blocked(p, num_procs=6, tree_scan=False)
        tree = solve_blocked(p, num_procs=6, tree_scan=True)
        np.testing.assert_array_equal(linear.path, tree.path)
        assert linear.score == tree.score

    def test_log_depth_rounds(self, rng):
        p = random_matrix_problem(32, 4, rng, integer=True)
        blk = solve_blocked(p, num_procs=8, tree_scan=True)
        rounds = [
            s for s in blk.metrics.supersteps if s.label.startswith("tree-scan[")
        ]
        assert len(rounds) == 3  # ceil(log2 8)

    def test_tree_scan_total_work_exceeds_linear(self, rng):
        """Log depth costs O(P log P) products vs O(P) applications."""
        p = random_matrix_problem(32, 6, rng, integer=True)
        linear = solve_blocked(p, num_procs=8, tree_scan=False)
        tree = solve_blocked(p, num_procs=8, tree_scan=True)
        lin_scan = sum(
            s.total_work
            for s in linear.metrics.supersteps
            if "scan" in s.label
        )
        tree_scan_work = sum(
            s.total_work
            for s in tree.metrics.supersteps
            if "tree-scan" in s.label
        )
        assert tree_scan_work > lin_scan

    @staticmethod
    def _scan_critical(solution, key):
        return sum(
            s.critical_work
            for s in solution.metrics.supersteps
            if key in s.label
        )

    def test_tree_scan_critical_path_shorter_only_when_p_exceeds_width(self, rng):
        """The §4.1 moral: the log-depth scan's rounds cost width³ each,
        so it only beats the linear scan's P·width² when P ≫ width —
        "requires linear number of processors to observe constant
        speed ups"."""
        # P >> width: tree scan wins.
        narrow = random_matrix_problem(64, 2, rng, integer=True)
        lin = solve_blocked(narrow, num_procs=32, tree_scan=False)
        tree = solve_blocked(narrow, num_procs=32, tree_scan=True)
        assert self._scan_critical(tree, "tree-scan") < self._scan_critical(
            lin, "scan"
        )
        # P < width: the linear scan's serial matvecs are cheaper than
        # even one round of matrix-matrix products.
        wide = random_matrix_problem(64, 16, rng, integer=True)
        lin_w = solve_blocked(wide, num_procs=8, tree_scan=False)
        tree_w = solve_blocked(wide, num_procs=8, tree_scan=True)
        assert self._scan_critical(tree_w, "tree-scan") > self._scan_critical(
            lin_w, "scan"
        )
