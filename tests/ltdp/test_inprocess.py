"""The kernel-tier sequential solve behind ``solve_parallel(num_procs=1)``.

One gated block sweep from the true ``s_0`` plus the compiled traceback
must give exactly the dense ``solve_sequential`` answer — path, score,
objective cell, stage vectors and the recorded one-processor metrics —
and must fall back to the dense loop whenever the sweep is refused.
"""

import numpy as np
import pytest

import repro.kernels
import repro.kernels.backend
import repro.ltdp.sequential
from repro.datagen.sequences import homologous_pair, random_dna
from repro.ltdp.engine.driver import solve_parallel
from repro.ltdp.engine.inprocess import SequentialAnswer
from repro.ltdp.matrix_problem import random_matrix_problem
from repro.ltdp.sequential import solve_sequential
from repro.machine.trace import Tracer
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.smith_waterman import SmithWatermanProblem
from repro.problems.convolutional import VOYAGER, ViterbiDecoderProblem


def _viterbi(rng, num_bits):
    bits = rng.integers(0, 2, num_bits).astype(np.uint8)
    sent = VOYAGER.encode(bits, terminate=True)
    noisy = sent ^ (rng.random(sent.shape) < 0.03).astype(np.uint8)
    return ViterbiDecoderProblem(VOYAGER, noisy, terminated=True)


def _problems():
    rng = np.random.default_rng(31)
    viterbi = _viterbi(rng, 80)
    return {
        "lcs": LCSProblem(*homologous_pair(50, rng, divergence=0.1), width=9),
        "nw": NeedlemanWunschProblem(
            *homologous_pair(50, rng, divergence=0.1), width=9
        ),
        "sw": SmithWatermanProblem(random_dna(6, rng), random_dna(50, rng)),
        "viterbi": viterbi,
        "matrix": random_matrix_problem(40, 6, rng, integer=True),
    }


PROBLEMS = _problems()


def _assert_same(got, want):
    np.testing.assert_array_equal(got.path, want.path)
    assert got.score == want.score
    assert got.objective_stage == want.objective_stage
    assert got.objective_cell == want.objective_cell
    assert got.final_vector.tobytes() == want.final_vector.tobytes()


@pytest.mark.parametrize("use_kernels", [None, False, True])
@pytest.mark.parametrize("name", list(PROBLEMS))
def test_single_proc_solve_matches_dense_oracle(name, use_kernels):
    problem = PROBLEMS[name]
    got = solve_parallel(
        problem, num_procs=1, use_kernels=use_kernels, keep_stage_vectors=True
    )
    want = solve_sequential(problem, keep_stage_vectors=True, with_metrics=True)
    _assert_same(got, want)
    assert len(got.stage_vectors) == len(want.stage_vectors)
    for gv, wv in zip(got.stage_vectors, want.stage_vectors):
        assert np.asarray(gv).tobytes() == wv.tobytes()
    assert got.metrics.num_procs == 1
    assert [s.work for s in got.metrics.supersteps] == [
        s.work for s in want.metrics.supersteps
    ]


@pytest.mark.parametrize("name", ["lcs", "nw", "viterbi"])
def test_kernel_problems_take_one_block_sweep(name, monkeypatch):
    calls = []
    real = repro.kernels.block_sweep

    def counting(problem, lo, hi, v, **kwargs):
        calls.append((lo, hi))
        return real(problem, lo, hi, v, **kwargs)

    monkeypatch.setattr(repro.kernels, "block_sweep", counting)
    problem = PROBLEMS[name]
    _assert_same(
        solve_parallel(problem, num_procs=1, use_kernels=True),
        solve_sequential(problem),
    )
    assert calls == [(0, problem.num_stages)]


def test_kernel_tier_solve_makes_no_per_stage_python_pass(monkeypatch):
    """The traceback walks the compiled backend, never the oracle's
    Python walk, and no per-stage pass runs after the sweep: an
    800-bit packet makes as many ``stage_cost`` calls as an 80-bit one."""
    rng = np.random.default_rng(34)
    problems = [_viterbi(rng, 80), _viterbi(rng, 800)]
    wants = [solve_sequential(p) for p in problems]
    walked = []
    real_traceback = repro.kernels.backend.traceback

    def counting_traceback(P, x, out, ref=None):
        walked.append(len(P))
        return real_traceback(P, x, out, ref)

    def python_walk(*args, **kwargs):
        raise AssertionError("the in-process solve ran backward_sequential")

    cost_calls = []
    real_cost = ViterbiDecoderProblem.stage_cost

    def counting_cost(self, i):
        cost_calls[-1] += 1
        return real_cost(self, i)

    monkeypatch.setattr(repro.kernels.backend, "traceback", counting_traceback)
    monkeypatch.setattr(repro.ltdp.sequential, "backward_sequential", python_walk)
    monkeypatch.setattr(ViterbiDecoderProblem, "stage_cost", counting_cost)
    for problem, want in zip(problems, wants):
        walked.clear()
        cost_calls.append(0)
        _assert_same(solve_parallel(problem, num_procs=1, use_kernels=True), want)
        assert sum(walked) == problem.num_stages
    assert cost_calls[0] == cost_calls[1]


def test_refused_sweep_falls_back_dense(monkeypatch):
    monkeypatch.setattr(repro.kernels, "block_sweep", lambda *a, **k: None)
    problem = PROBLEMS["nw"]
    _assert_same(
        solve_parallel(problem, num_procs=1, use_kernels=True),
        solve_sequential(problem),
    )


def test_single_proc_solve_records_phase_spans():
    tracer = Tracer()
    solve_parallel(PROBLEMS["lcs"], num_procs=1, tracer=tracer)
    phases = [s.attrs["phase"] for s in tracer.spans if s.name == "phase"]
    assert phases == ["forward", "backward"]


@pytest.mark.parametrize("use_kernels", [False, True])
@pytest.mark.parametrize("cls", [LCSProblem, NeedlemanWunschProblem])
def test_suffix_repair_matches_fresh_solve(cls, use_kernels):
    rng = np.random.default_rng(32)
    a, b = homologous_pair(50, rng, divergence=0.1)
    answer = SequentialAnswer(cls(a, b, width=9), use_kernels=use_kernels)
    for pos in (0, 49, 17):
        a = np.array(a, copy=True)
        a[pos] = (a[pos] + 1) % 4
        problem = cls(a, b, width=9)
        dirty = problem.dirty_stages_against(answer.problem)
        assert dirty == {pos + 1}
        cells = answer.repair(problem, dirty)
        assert cells == sum(
            problem.stage_cost(i) for i in range(pos + 1, problem.num_stages + 1)
        )
        want = solve_sequential(problem, keep_stage_vectors=True)
        _assert_same(answer.solution, want)
        resident = answer.store.rows(problem.num_stages)
        assert [v.tobytes() for v in resident] == [
            v.tobytes() for v in want.stage_vectors
        ]


@pytest.mark.parametrize("use_kernels", [False, True])
def test_stage_objective_repair_resolves_the_whole_chain(use_kernels):
    """A stage-objective optimum may lie before the first dirty stage, so
    a repair of SW sweeps every stage again."""
    rng = np.random.default_rng(33)
    a, b = random_dna(6, rng), random_dna(50, rng)
    answer = SequentialAnswer(SmithWatermanProblem(a, b), use_kernels=use_kernels)
    b = np.array(b, copy=True)
    b[40] = (b[40] + 1) % 4
    problem = SmithWatermanProblem(a, b)
    cells = answer.repair(problem, {41})
    assert cells == problem.total_cells()
    _assert_same(answer.solution, solve_sequential(problem))
