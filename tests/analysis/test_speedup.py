"""Tests for scaling sweeps and throughput metrics."""

import numpy as np
import pytest

from repro.analysis.speedup import (
    scaling_sweep,
    throughput_gcups,
    throughput_mbps,
)
from repro.ltdp.matrix_problem import random_matrix_problem
from repro.machine.cluster import SimCluster


class TestThroughput:
    def test_mbps(self):
        assert throughput_mbps(2_000_000, 1.0) == pytest.approx(2.0)

    def test_gcups(self):
        assert throughput_gcups(3e9, 2.0) == pytest.approx(1.5)

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            throughput_mbps(1, 0.0)
        with pytest.raises(ValueError):
            throughput_gcups(1, -1.0)


class TestScalingSweep:
    @pytest.fixture
    def curve(self):
        rng = np.random.default_rng(0)
        problem = random_matrix_problem(256, 4, rng, integer=True)
        cluster = SimCluster.stampede(1, cell_cost=1e-6)
        return scaling_sweep(
            problem, cluster, [1, 2, 4, 8], label="rand", seed=0
        )

    def test_labels_and_lengths(self, curve):
        assert curve.label == "rand"
        assert [p.num_procs for p in curve.points] == [1, 2, 4, 8]

    def test_single_proc_speedup_near_one(self, curve):
        p1 = curve.points[0]
        # P=1 runs the plain sequential algorithm: identical time.
        assert p1.speedup == pytest.approx(1.0, rel=0.05)

    def test_speedup_grows_with_convergence(self, curve):
        assert curve.points[-1].speedup > curve.points[0].speedup
        assert curve.best().num_procs == 8

    def test_efficiency_definition(self, curve):
        for p in curve.points:
            assert p.efficiency == pytest.approx(p.speedup / p.num_procs)

    def test_efficiency_at_most_about_one(self, curve):
        for p in curve.points:
            assert p.efficiency <= 1.05

    def test_filled_marker(self, curve):
        for p in curve.points[1:]:
            assert p.filled == (p.fixup_iterations == 1)

    def test_series_accessors(self, curve):
        assert len(curve.speedups()) == 4
        assert len(curve.efficiencies()) == 4


class TestCustomOptions:
    def test_make_options_hook(self):
        from repro.ltdp.engine.driver import ParallelOptions

        rng = np.random.default_rng(1)
        problem = random_matrix_problem(64, 4, rng, integer=True)
        cluster = SimCluster.stampede(1, cell_cost=1e-6)
        seen = []

        def make_options(p):
            seen.append(p)
            return ParallelOptions(num_procs=p, seed=5, exact_score=False)

        curve = scaling_sweep(
            problem, cluster, [2, 4], make_options=make_options
        )
        assert seen == [2, 4]
        assert len(curve.points) == 2

    def test_delta_flag_threads_through(self):
        rng = np.random.default_rng(1)
        problem = random_matrix_problem(64, 4, rng, integer=True)
        cluster = SimCluster.stampede(1, cell_cost=1e-6)
        plain = scaling_sweep(problem, cluster, [4], seed=2, use_delta=False)
        delta = scaling_sweep(problem, cluster, [4], seed=2, use_delta=True)
        # Delta accounting can only reduce recorded fix-up work.
        assert delta.points[0].total_work_cells <= plain.points[0].total_work_cells
