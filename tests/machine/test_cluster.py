"""Tests for SimCluster presets and pricing."""

import pytest

from repro.machine.cluster import SimCluster
from repro.machine.cost_model import CostModel
from repro.machine.metrics import RunMetrics, SuperstepRecord


class TestSimCluster:
    def test_invalid_procs(self):
        with pytest.raises(ValueError):
            SimCluster(num_procs=0)

    def test_presets_differ_in_communication(self):
        st = SimCluster.stampede(16)
        sm = SimCluster.shared_memory(16)
        assert st.cost_model.barrier_latency > sm.cost_model.barrier_latency
        assert st.cost_model.comm_latency > sm.cost_model.comm_latency

    def test_with_procs_preserves_cost_model(self):
        c = SimCluster.stampede(4, cell_cost=7e-9)
        c2 = c.with_procs(32)
        assert c2.num_procs == 32
        assert c2.cost_model == c.cost_model

    def test_time_of(self):
        c = SimCluster(2, cost_model=CostModel(cell_cost=1.0, barrier_latency=0.0))
        m = RunMetrics(num_procs=2)
        m.record(SuperstepRecord(label="forward", work=[5.0, 7.0]))
        assert c.time_of(m) == pytest.approx(7.0)

    def test_sequential_time(self):
        c = SimCluster(1, cost_model=CostModel(cell_cost=2.0, traceback_cell_cost=1.0))
        assert c.sequential_time(10.0, traceback_steps=3.0) == pytest.approx(23.0)

    def test_parallel_beats_sequential_on_converged_run(self):
        """End-to-end: a real converged run must price faster than sequential."""
        import numpy as np

        from repro.ltdp.matrix_problem import random_matrix_problem
        from repro.ltdp.engine.driver import solve_parallel

        rng = np.random.default_rng(0)
        p = random_matrix_problem(200, 4, rng, integer=True)
        # Compute-dominated regime: tiny instances under the default
        # cost model are barrier-bound (the paper's small-packet effect),
        # so pick a cell cost that makes work the dominant term.
        cluster = SimCluster.stampede(8, cell_cost=1e-5)
        par = solve_parallel(p, num_procs=8, exact_score=False)
        t_par = cluster.time_of(par.metrics)
        t_seq = cluster.sequential_time(p.total_cells(), traceback_steps=200.0)
        assert par.metrics.converged_first_iteration
        assert t_par < t_seq


class TestClusterExecutorIntegration:
    def test_cluster_executor_usable_by_solver(self):
        """The cluster's executor field plugs into ParallelOptions."""
        import numpy as np

        from repro.ltdp.matrix_problem import random_matrix_problem
        from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
        from repro.machine.executor import ThreadExecutor

        rng = np.random.default_rng(3)
        p = random_matrix_problem(20, 4, rng, integer=True)
        cluster = SimCluster(4, executor=ThreadExecutor(max_workers=4))
        try:
            sol = solve_parallel(
                p,
                ParallelOptions(
                    num_procs=cluster.num_procs, executor=cluster.executor, seed=1
                ),
            )
        finally:
            cluster.executor.close()
        from repro.ltdp.sequential import solve_sequential

        np.testing.assert_array_equal(sol.path, solve_sequential(p).path)
