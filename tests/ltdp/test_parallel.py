"""Tests for the parallel LTDP algorithm (paper Figs 4 and 5)."""

import numpy as np
import pytest

from repro.exceptions import ExecutorError
from repro.ltdp.matrix_problem import MatrixLTDPProblem, random_matrix_problem
from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.machine.executor import SerialExecutor, ThreadExecutor, get_executor
from repro.semiring.tropical import NEG_INF


def permutation_chain_problem(num_stages: int, width: int, rng) -> MatrixLTDPProblem:
    """An adversarial instance whose partial products never drop rank.

    Permutation matrices (0 on the permuted diagonal, -inf elsewhere)
    are invertible tropical maps, so rank never decreases — "carefully
    crafted problem instances" (§4.2) on which the parallel algorithm
    must devolve to sequential yet stay correct.
    """
    mats = []
    for _ in range(num_stages):
        perm = rng.permutation(width)
        m = np.full((width, width), NEG_INF)
        m[perm, np.arange(width)] = rng.integers(-3, 4, size=width).astype(float)
        mats.append(m)
    init = rng.integers(-5, 6, size=width).astype(float)
    return MatrixLTDPProblem(init, mats)


class TestEquivalenceWithSequential:
    @pytest.mark.parametrize("num_procs", [2, 3, 4, 7, 16])
    def test_dense_random(self, num_procs):
        rng = np.random.default_rng(7)
        p = random_matrix_problem(32, 6, rng, integer=True)
        seq = solve_sequential(p)
        par = solve_parallel(p, num_procs=num_procs)
        np.testing.assert_array_equal(seq.path, par.path)
        assert seq.score == par.score

    @pytest.mark.parametrize("seed", range(6))
    def test_many_seeds(self, seed):
        rng = np.random.default_rng(seed)
        p = random_matrix_problem(24, 5, rng, integer=True)
        seq = solve_sequential(p)
        par = solve_parallel(p, num_procs=4, seed=seed + 100)
        np.testing.assert_array_equal(seq.path, par.path)
        assert seq.score == par.score

    def test_sparse_problem(self):
        rng = np.random.default_rng(11)
        p = random_matrix_problem(30, 8, rng, density=0.5, integer=True)
        seq = solve_sequential(p)
        par = solve_parallel(p, num_procs=5)
        np.testing.assert_array_equal(seq.path, par.path)
        assert seq.score == par.score

    def test_varying_widths(self):
        rng = np.random.default_rng(13)
        widths = [4, 6, 3, 5, 5, 2, 4, 4]
        mats = []
        w_prev = widths[0]
        for w in widths[1:]:
            mats.append(rng.integers(-4, 5, size=(w, w_prev)).astype(float))
            w_prev = w
        p = MatrixLTDPProblem(rng.integers(-4, 5, size=widths[0]).astype(float), mats)
        seq = solve_sequential(p)
        par = solve_parallel(p, num_procs=3)
        np.testing.assert_array_equal(seq.path, par.path)
        assert seq.score == par.score

    def test_adversarial_permutation_chain_devolves_but_correct(self):
        rng = np.random.default_rng(17)
        p = permutation_chain_problem(20, 5, rng)
        seq = solve_sequential(p)
        par = solve_parallel(p, num_procs=4)
        np.testing.assert_array_equal(seq.path, par.path)
        assert seq.score == par.score
        # No rank convergence possible: the fix-up must iterate ~P times.
        assert par.metrics.forward_fixup_iterations >= 3

    def test_single_proc_delegates_to_sequential(self, rng):
        p = random_matrix_problem(10, 4, rng, integer=True)
        par = solve_parallel(p, num_procs=1)
        seq = solve_sequential(p)
        np.testing.assert_array_equal(par.path, seq.path)
        assert par.metrics is not None  # still carries metrics

    def test_more_procs_than_stages(self, rng):
        p = random_matrix_problem(3, 4, rng, integer=True)
        par = solve_parallel(p, num_procs=64)
        seq = solve_sequential(p)
        np.testing.assert_array_equal(par.path, seq.path)
        assert par.metrics.num_procs == 3  # clamped


class TestScores:
    def test_exact_score_epilogue(self, rng):
        p = random_matrix_problem(20, 5, rng, integer=True)
        seq = solve_sequential(p)
        par = solve_parallel(p, num_procs=4, exact_score=True)
        assert par.score == seq.score

    def test_without_epilogue_score_may_be_offset(self, rng):
        p = random_matrix_problem(20, 5, rng, integer=True)
        seq = solve_sequential(p)
        par = solve_parallel(p, num_procs=4, exact_score=False)
        # The final stored vector is parallel to the truth, so the raw
        # score differs from the true one by that run's offset (possibly 0).
        offset = par.score - seq.score
        final_diff = par.final_vector - solve_sequential(p).final_vector
        finite = np.isfinite(final_diff)
        assert np.allclose(final_diff[finite], offset)

    def test_edge_weight_probe_fallback(self, rng):
        """Problems without an edge_weight method still price exactly."""
        p = random_matrix_problem(12, 4, rng, integer=True)

        class NoEdgeWeight:
            def __getattr__(self, name):
                if name == "edge_weight":
                    raise AttributeError(name)
                return getattr(p, name)

        proxy = NoEdgeWeight()
        from repro.ltdp.engine.driver import _price_path

        seq = solve_sequential(p)
        assert _price_path(proxy, seq.path) == seq.score


class TestExecutors:
    def test_thread_executor_identical(self, rng):
        p = random_matrix_problem(24, 5, rng, integer=True)
        serial = solve_parallel(p, num_procs=4, seed=3)
        with ThreadExecutor(max_workers=4) as ex:
            threaded = solve_parallel(
                p, ParallelOptions(num_procs=4, seed=3, executor=ex)
            )
        np.testing.assert_array_equal(serial.path, threaded.path)
        assert serial.score == threaded.score
        np.testing.assert_array_equal(serial.final_vector, threaded.final_vector)

    @pytest.mark.parametrize("kind", ["thread", "pool"])
    def test_executor_propagates_worker_errors(self, kind):
        # Stage 1 collapses processor 1's vector to all--inf inside the
        # worker; the failure must surface as ExecutorError.
        bad = MatrixLTDPProblem(
            np.zeros(2),
            [np.full((2, 2), NEG_INF), np.zeros((2, 2))],
            allow_trivial=True,
        )
        with get_executor(kind, max_workers=2) as ex:
            with pytest.raises(ExecutorError):
                solve_parallel(bad, ParallelOptions(num_procs=2, executor=ex))


class TestMetrics:
    def test_forward_superstep_covers_all_cells(self, rng):
        p = random_matrix_problem(24, 5, rng, integer=True)
        par = solve_parallel(p, num_procs=4)
        forward = par.metrics.supersteps[0]
        assert forward.label == "forward"
        assert forward.total_work == p.total_cells()

    def test_fixup_comm_events(self, rng):
        p = random_matrix_problem(24, 5, rng, integer=True)
        par = solve_parallel(p, num_procs=4)
        fixups = [s for s in par.metrics.supersteps if s.label.startswith("fixup")]
        assert len(fixups) == par.metrics.forward_fixup_iterations
        for s in fixups:
            assert len(s.comm) == 3  # P-1 boundary messages
            assert s.work[0] == 0.0  # processor 1 idles in fix-up

    def test_backward_superstep_present(self, rng):
        p = random_matrix_problem(24, 5, rng, integer=True)
        par = solve_parallel(p, num_procs=4)
        labels = [s.label for s in par.metrics.supersteps]
        assert "backward" in labels

    def test_critical_path_less_than_total_with_convergence(self):
        rng = np.random.default_rng(5)
        p = random_matrix_problem(64, 4, rng, integer=True)
        par = solve_parallel(p, num_procs=8)
        m = par.metrics
        if m.converged_first_iteration:
            assert m.critical_path_work < p.total_cells()

    def test_delta_accounting_not_larger_than_full(self):
        rng = np.random.default_rng(5)
        p = random_matrix_problem(48, 6, rng, integer=True)
        full = solve_parallel(p, num_procs=6, use_delta=False)
        delta = solve_parallel(p, num_procs=6, use_delta=True)
        np.testing.assert_array_equal(full.path, delta.path)
        f_fix = sum(
            s.total_work for s in full.metrics.supersteps if "fixup" in s.label
        )
        d_fix = sum(
            s.total_work for s in delta.metrics.supersteps if "fixup" in s.label
        )
        assert d_fix <= f_fix

    def test_stage_width_reports_max_width(self, rng):
        # Regression: stage_width used to be the *final* stage's width,
        # which is 1 on selector-terminated problems — Table 1 reports
        # the (max) working width, so throughput was wildly misstated.
        width = 5
        mats = [
            rng.integers(-4, 5, size=(width, width)).astype(float) for _ in range(11)
        ]
        selector = np.full((1, width), NEG_INF)
        selector[0, 0] = 0.0
        mats.append(selector)
        init = rng.integers(-5, 6, size=width).astype(float)
        p = MatrixLTDPProblem(init, mats)
        assert p.stage_width(p.num_stages) == 1

        par = solve_parallel(p, num_procs=3)
        assert par.metrics.stage_width == width
        seq = solve_sequential(p, with_metrics=True)
        assert seq.metrics.stage_width == width

    def test_keep_stage_vectors(self, rng):
        p = random_matrix_problem(10, 4, rng, integer=True)
        par = solve_parallel(p, num_procs=3, keep_stage_vectors=True)
        assert par.stage_vectors is not None
        assert len(par.stage_vectors) == 11
        # Every stored vector must be parallel to the true one.
        from repro.semiring.vector import are_parallel

        seq = solve_sequential(p, keep_stage_vectors=True)
        for stored, true in zip(par.stage_vectors, seq.stage_vectors):
            assert are_parallel(stored, true)


class TestOptions:
    def test_invalid_num_procs(self):
        with pytest.raises(ValueError):
            ParallelOptions(num_procs=0)

    def test_invalid_nz_range(self):
        with pytest.raises(ValueError):
            ParallelOptions(nz_low=5.0, nz_high=5.0)

    def test_options_and_kwargs_mutually_exclusive(self, rng):
        p = random_matrix_problem(4, 3, rng)
        with pytest.raises(TypeError):
            solve_parallel(p, ParallelOptions(num_procs=2), num_procs=3)

    def test_same_seed_reproducible(self, rng):
        p = random_matrix_problem(20, 5, rng, integer=True)
        a = solve_parallel(p, num_procs=4, seed=9, exact_score=False)
        b = solve_parallel(p, num_procs=4, seed=9, exact_score=False)
        np.testing.assert_array_equal(a.final_vector, b.final_vector)
        assert a.metrics.total_work == b.metrics.total_work
