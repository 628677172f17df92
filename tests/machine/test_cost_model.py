"""Tests for the BSP cost model and kernel calibration."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.machine.cost_model import (
    POOL_ROUND_TRIP_SECONDS,
    CostModel,
    calibrate_cell_cost,
    choose_num_procs,
)
from repro.machine.metrics import CommEvent, RunMetrics, SuperstepRecord


class TestCostModel:
    def test_sequential_time(self):
        cm = CostModel(cell_cost=1e-9, traceback_cell_cost=1e-10)
        assert cm.sequential_time(1e9) == pytest.approx(1.0)
        assert cm.sequential_time(0, traceback_steps=1e10) == pytest.approx(1.0)

    def test_superstep_time_components(self):
        cm = CostModel(
            cell_cost=1e-6,
            barrier_latency=1e-3,
            comm_latency=1e-4,
            comm_byte_cost=1e-8,
        )
        t = cm.superstep_time(1000.0, [CommEvent(1, 2, 100)])
        assert t == pytest.approx(1e-3 + 1e-3 + 1e-4 + 1e-6)

    def test_backward_supersteps_use_traceback_cost(self):
        cm = CostModel(cell_cost=1.0, traceback_cell_cost=0.5, barrier_latency=0.0)
        m = RunMetrics(num_procs=1)
        m.record(SuperstepRecord(label="backward", work=[10.0]))
        assert cm.run_time(m) == pytest.approx(5.0)

    def test_run_time_sums_supersteps(self):
        cm = CostModel(cell_cost=1.0, barrier_latency=0.0)
        m = RunMetrics(num_procs=2)
        m.record(SuperstepRecord(label="forward", work=[3.0, 4.0]))
        m.record(SuperstepRecord(label="fixup[1]", work=[0.0, 2.0]))
        assert cm.run_time(m) == pytest.approx(6.0)

    def test_explicit_phase_overrides_label(self):
        # Regression: run_time used to classify by label prefix alone,
        # so a backward-phase record with a non-standard label was
        # priced at the (much larger) forward cell cost.
        cm = CostModel(cell_cost=1.0, traceback_cell_cost=0.25, barrier_latency=0.0)
        m = RunMetrics(num_procs=1)
        m.record(SuperstepRecord(label="epilogue-walk", work=[8.0], phase="backward"))
        assert cm.run_time(m) == pytest.approx(2.0)

    def test_unknown_label_without_phase_raises(self):
        # Regression: unknown labels were silently priced as forward work.
        cm = CostModel(cell_cost=1.0, barrier_latency=0.0)
        m = RunMetrics(num_procs=1)
        m.record(SuperstepRecord(label="epilogue-walk", work=[8.0]))
        with pytest.raises(ValueError, match="no explicit phase"):
            cm.run_time(m)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            CostModel(cell_cost=-1.0)

    def test_with_cell_cost(self):
        cm = CostModel(cell_cost=1.0).with_cell_cost(2.0)
        assert cm.cell_cost == 2.0

    def test_more_work_costs_more(self):
        cm = CostModel()
        a = cm.superstep_time(100.0, [])
        b = cm.superstep_time(200.0, [])
        assert b > a


class TestCalibration:
    def test_returns_positive_per_cell_cost(self):
        a = np.zeros(1000)

        def kernel():
            np.maximum(a, 1.0)

        cost = calibrate_cell_cost(kernel, 1000, min_seconds=0.01)
        assert 0 < cost < 1e-3

    def test_rejects_bad_cell_count(self):
        with pytest.raises(ValueError):
            calibrate_cell_cost(lambda: None, 0)

    def test_slower_kernel_costs_more(self):
        a = np.zeros(200_000)

        def fast():
            a + 1.0

        def slow():
            np.sort(a + 1.0)

        fast_cost = calibrate_cell_cost(fast, a.size, min_seconds=0.02)
        slow_cost = calibrate_cell_cost(slow, a.size, min_seconds=0.02)
        assert slow_cost > fast_cost


def _problem(num_stages=1000, stage_objective=False):
    return SimpleNamespace(
        num_stages=num_stages, tracks_stage_objective=stage_objective
    )


def _pool(workers):
    return SimpleNamespace(max_workers=workers)


class TestProcChoice:
    """The per-request P choice: pooled time must beat the sequential one."""

    def test_serve_mix_sized_class_stays_sequential(self):
        # A 48-base LCS/NW request: about 0.4 ms of kernel-tier sweep.
        choice = choose_num_procs(4e-4, 2, _problem(48), _pool(2))
        assert choice.num_procs == 1
        assert choice.parallel_procs == 2
        assert choice.parallel_seconds > choice.seq_seconds

    def test_large_class_tiny_round_trip_gets_the_ceiling(self):
        choice = choose_num_procs(
            10.0, 6, _problem(stage_objective=True), _pool(8), round_trip=1e-9
        )
        assert choice.num_procs == 6
        assert choice.parallel_seconds == pytest.approx(10.0 / 6 + 5e-9)

    @pytest.mark.parametrize("ceiling", [1, 2, 3, 5, 16])
    @pytest.mark.parametrize("workers", [1, 2, 64])
    def test_ceiling_never_exceeded(self, ceiling, workers):
        for seq in (1e-6, 1e-3, 1.0, 1e3):
            choice = choose_num_procs(
                seq, ceiling, _problem(), _pool(workers), round_trip=1e-12
            )
            assert 1 <= choice.num_procs <= ceiling

    def test_stage_count_caps_the_ceiling(self):
        choice = choose_num_procs(1e3, 16, _problem(3), _pool(64))
        assert choice.num_procs == 3

    def test_workers_cap_the_useful_p(self):
        # Past the worker count the model predicts no further gain, and
        # ties go to the smaller P.
        choice = choose_num_procs(1.0, 8, _problem(), _pool(2))
        assert choice.num_procs == 2

    def test_one_worker_never_parallel(self):
        assert choose_num_procs(1e3, 8, _problem(), _pool(1)).num_procs == 1
        # Executors without ``max_workers`` (serial, thread) count as one.
        assert choose_num_procs(1e3, 8, _problem(), object()).num_procs == 1

    def test_prediction_formula(self):
        choice = choose_num_procs(1.0, 4, _problem(), _pool(2))
        assert choice.parallel_seconds == pytest.approx(
            0.5 + 4 * POOL_ROUND_TRIP_SECONDS
        )
        with_objective = choose_num_procs(
            1.0, 4, _problem(stage_objective=True), _pool(2)
        )
        assert with_objective.parallel_seconds == pytest.approx(
            choice.parallel_seconds + POOL_ROUND_TRIP_SECONDS
        )
