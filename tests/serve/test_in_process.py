"""The in-process (P = 1) serve path against the dense sequential oracle.

Small classes never beat the pool's round trips, so the cost model
keeps them in-process: the first request of a class is solved by the
kernel-tier sequential solver (and calibrates the class), an exact
resend is a hit, a near-duplicate is a hit repaired by one sweep of the
suffix from its first dirty stage.  Every answer must be bit-identical
to the dense ``solve_sequential``, with the kernel tier on and off.

The differential tests pin the P choice to 1 (``pin_in_process``) so
they do not depend on host speed; the choice itself is tested on fixed
calibrations.
"""

import numpy as np
import pytest

from repro.datagen.sequences import homologous_pair, random_dna
from repro.ltdp.sequential import solve_sequential
from repro.machine.cost_model import ProcChoice
from repro.machine.pool import PoolProcessExecutor
from repro.machine.trace import Tracer
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.smith_waterman import SmithWatermanProblem
from repro.problems.convolutional import VOYAGER, ViterbiDecoderProblem
from repro.serve import CACHE_HIT, CACHE_MISS, STATUS_OK, LTDPService
import repro.serve.service
from repro.serve.service import _ClassEntry

SIZE = 40
WIDTH = 8


def _assert_identical(problem, response):
    assert response.status == STATUS_OK, response.reason
    expected = solve_sequential(problem)
    np.testing.assert_array_equal(response.solution.path, expected.path)
    assert response.solution.score == expected.score
    assert response.solution.objective_stage == expected.objective_stage
    assert response.solution.objective_cell == expected.objective_cell
    assert response.num_procs == 1


def _with_a(problem, pos):
    a = np.array(problem.a, copy=True)
    a[pos] = (a[pos] + 1) % 4
    return type(problem)(a, problem.b, width=WIDTH)


@pytest.fixture(params=["auto", "off"])
def tier(request, monkeypatch):
    if request.param == "off":
        monkeypatch.setenv("REPRO_KERNELS", "off")
    else:
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
    return request.param


@pytest.fixture
def pool():
    with PoolProcessExecutor(max_workers=2) as executor:
        yield executor


@pytest.mark.parametrize("cls", [LCSProblem, NeedlemanWunschProblem])
def test_banded_fresh_resend_and_near_duplicates(cls, tier, pool, pin_in_process):
    rng = np.random.default_rng(21)
    base = cls(*homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH)
    first_dirty = _with_a(base, 0)  # dirty stage 1: the whole chain re-swept
    last_dirty = _with_a(first_dirty, SIZE - 1)  # dirty at the last row stage
    stream = [base, base, first_dirty, last_dirty, last_dirty]
    with LTDPService(executor=pool, num_procs=2) as service:
        answers = [service.submit(p).result(timeout=300.0) for p in stream]
    stats = service.stats()["total"]

    for problem, response in zip(stream, answers):
        _assert_identical(problem, response)
    assert [r.cache for r in answers] == [
        CACHE_MISS, CACHE_HIT, CACHE_HIT, CACHE_HIT, CACHE_HIT
    ]
    n = base.num_stages
    cells = [r.delta_cells for r in answers]
    assert cells[0] == cells[1] == cells[4] == 0  # miss and exact resends
    assert cells[2] == base.total_cells()  # swept from stage 0
    assert cells[3] == sum(base.stage_cost(i) for i in range(SIZE, n + 1))
    assert stats["sequential"] == len(stream) and stats["parallel"] == 0
    assert stats["hits"] == 4 and stats["delta_cells"] == sum(cells)
    # No class left P = 1, so the pool never dispatched.
    assert pool.dispatch_count == 0


def _smith_waterman(rng):
    return SmithWatermanProblem(random_dna(6, rng), random_dna(SIZE, rng))


def _viterbi(rng):
    bits = rng.integers(0, 2, 60).astype(np.uint8)
    sent = VOYAGER.encode(bits, terminate=True)
    noisy = sent ^ (rng.random(sent.shape) < 0.03).astype(np.uint8)
    return ViterbiDecoderProblem(VOYAGER, noisy, terminated=True)


@pytest.mark.parametrize("make", [_smith_waterman, _viterbi])
def test_undiffable_families_miss_and_stay_exact(make, tier, pool, pin_in_process):
    """SW (a stage objective) and Viterbi prove no diff: every request is
    a fresh in-process solve, resends included."""
    rng = np.random.default_rng(22)
    first, second = make(rng), make(rng)
    stream = [first, first, second]
    with LTDPService(executor=pool, num_procs=4) as service:
        answers = [service.submit(p).result(timeout=300.0) for p in stream]
    for problem, response in zip(stream, answers):
        _assert_identical(problem, response)
        assert response.cache == CACHE_MISS
        assert response.delta_cells == 0


def test_evicted_class_is_solved_fresh(tier, pool, pin_in_process):
    rng = np.random.default_rng(23)
    lcs = LCSProblem(*homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH)
    nw = NeedlemanWunschProblem(
        *homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH
    )
    stream = [lcs, nw, _with_a(lcs, 3), _with_a(nw, 5), nw]
    with LTDPService(executor=pool, num_procs=2, max_sessions=1) as service:
        answers = [service.submit(p).result(timeout=300.0) for p in stream]
    for problem, response in zip(stream, answers):
        _assert_identical(problem, response)
    # One resident class: every class switch evicts the other's answer.
    assert [r.cache for r in answers] == [
        CACHE_MISS, CACHE_MISS, CACHE_MISS, CACHE_MISS, CACHE_HIT
    ]


def test_in_process_request_records_phase_spans(pool, pin_in_process):
    rng = np.random.default_rng(24)
    problem = LCSProblem(*homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH)
    tracer = Tracer()
    with LTDPService(executor=pool, num_procs=2, tracer=tracer) as service:
        ticket = service.submit(problem)
        _assert_identical(problem, ticket.result(timeout=300.0))
    (request,) = [s for s in tracer.spans if s.name == "serve.request"]
    phases = [s for s in tracer.spans if s.name == "phase"]
    assert [s.attrs["phase"] for s in phases] == ["forward", "backward"]
    for s in phases:
        assert request.start <= s.start and s.end <= request.end


def test_pinned_pool_path_is_counted_parallel(pool, pin_pool_path):
    rng = np.random.default_rng(25)
    problem = LCSProblem(*homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH)
    with LTDPService(executor=pool, num_procs=2) as service:
        response = service.submit(problem).result(timeout=300.0)
    assert response.status == STATUS_OK
    assert response.num_procs == 2
    total = service.stats()["total"]
    assert total["parallel"] == 1 and total["sequential"] == 0


class TestProcChoice:
    """The service's P choice on fixed class calibrations."""

    def _choice(
        self, seq_seconds, *, num_procs, workers=2, stages=SIZE, pool_lost=False
    ):
        rng = np.random.default_rng(26)
        problem = LCSProblem(
            *homologous_pair(stages, rng, divergence=0.1), width=WIDTH
        )
        with PoolProcessExecutor(max_workers=workers) as executor:
            service = LTDPService(executor=executor, num_procs=num_procs)
            try:
                entry = _ClassEntry(seq_seconds, pool_lost=pool_lost)
                return service._procs_for(entry, problem)
            finally:
                service.close()

    def test_uncalibrated_class_runs_in_process(self):
        assert self._choice(None, num_procs=4) == 1

    def test_serve_mix_sized_class_stays_in_process(self):
        assert self._choice(4e-4, num_procs=2) == 1

    def test_long_class_goes_to_the_pool_under_the_ceiling(self):
        assert self._choice(1.0, num_procs=2) == 2
        assert self._choice(1.0, num_procs=4, workers=4) == 4
        assert self._choice(1.0, num_procs=4, workers=2) == 2

    def test_class_that_lost_its_pool_trial_stays_in_process(self):
        assert self._choice(1.0, num_procs=2, pool_lost=True) == 1

    def test_first_solve_runs_in_process_and_calibrates(self, pool):
        rng = np.random.default_rng(27)
        problem = LCSProblem(
            *homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH
        )
        with LTDPService(executor=pool, num_procs=2) as service:
            response = service.submit(problem).result(timeout=300.0)
            (entry,) = service._classes.values()
        assert response.num_procs == 1
        assert entry.seq_seconds is not None and entry.seq_seconds > 0


def test_mutated_response_does_not_corrupt_resends(pool, pin_in_process):
    """Each response owns its arrays: a client writing into one cannot
    change what a later resend (or a repair of the resident answer)
    returns."""
    rng = np.random.default_rng(28)
    base = LCSProblem(*homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH)
    near = _with_a(base, SIZE // 2)
    with LTDPService(executor=pool, num_procs=2) as service:
        first = service.submit(base).result(timeout=300.0)
        first.solution.path[:] = -1
        first.solution.final_vector[:] = 0
        again = service.submit(base).result(timeout=300.0)
        again.solution.final_vector[:] = 0
        repaired = service.submit(near).result(timeout=300.0)
    assert again.cache == CACHE_HIT and repaired.cache == CACHE_HIT
    _assert_identical(base, again)
    _assert_identical(near, repaired)
    assert (
        repaired.solution.final_vector.tobytes()
        == solve_sequential(near).final_vector.tobytes()
    )


class TestPoolTrial:
    """A class the model sends to the pool keeps ``P > 1`` only if its
    first pooled solve, timed, beats the class's sequential time."""

    def _serve(self, pool, calibrate, stream):
        """Serve ``stream`` one request at a time; ``calibrate(entry)``
        runs after the first (in-process) solve has calibrated the
        class."""
        tracer = Tracer()
        with LTDPService(executor=pool, num_procs=2, tracer=tracer) as service:
            answers = [service.submit(stream[0]).result(timeout=300.0)]
            (entry,) = service._classes.values()
            calibrate(entry)
            for problem in stream[1:]:
                answers.append(service.submit(problem).result(timeout=300.0))
        for problem, response in zip(stream, answers):
            assert response.status == STATUS_OK, response.reason
            expected = solve_sequential(problem)
            np.testing.assert_array_equal(response.solution.path, expected.path)
            assert response.solution.score == expected.score
        trials = [e.attrs for e in tracer.events if e.name == "serve.pool-trial"]
        return answers, entry, trials

    def _stream(self):
        rng = np.random.default_rng(29)
        base = LCSProblem(
            *homologous_pair(SIZE, rng, divergence=0.1), width=WIDTH
        )
        return [base, _with_a(base, 3), _with_a(base, 7), _with_a(base, 9)]

    def test_losing_trial_returns_the_class_in_process(self, pool, monkeypatch):
        # The model always predicts the pool wins; the class's sequential
        # time is set so low that no pooled solve can beat it.
        monkeypatch.setattr(
            repro.serve.service,
            "choose_num_procs",
            lambda seq, ceiling, problem, executor: ProcChoice(
                ceiling, seq, ceiling, 0.0
            ),
        )

        def calibrate(entry):
            entry.seq_seconds = 1e-9

        answers, entry, trials = self._serve(pool, calibrate, self._stream())
        assert [r.num_procs for r in answers] == [1, 2, 1, 1]
        assert [t["kept"] for t in trials] == [False]
        assert entry.pool_lost and not entry.pool_won
        # The resident in-process answer survived the trial, so the
        # requests after it are repaired near-duplicates.
        assert [r.cache for r in answers] == [
            CACHE_MISS, CACHE_MISS, CACHE_HIT, CACHE_HIT
        ]

    def test_winning_trial_keeps_the_class_on_the_pool(self, pool):
        def calibrate(entry):
            entry.seq_seconds = 1e3

        answers, entry, trials = self._serve(pool, calibrate, self._stream())
        assert [r.num_procs for r in answers] == [1, 2, 2, 2]
        assert [t["kept"] for t in trials] == [True]
        assert entry.pool_won and entry.answer is None
        # After the trial every request is a fresh pooled solve.
        assert [r.cache for r in answers] == [CACHE_MISS] * 4
        assert all(r.delta_cells == 0 for r in answers)
