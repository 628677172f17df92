"""Block-kernel §4.7 fix-up against the per-stage sparse path.

In delta mode :class:`ForwardFixupSpec` sweeps a whole range through
the kernel tier, which keeps no §4.7 state, and falls back to the
per-stage sparse kernel only when no block kernel accepts the range.
Both paths must write the same stage vectors, predecessors, advertised
boundary and convergence verdict to the byte; the block path writes no
state.  Each case runs the same spec on two copies of one worker
store, once with the tier on (and ``apply_stage_sparse`` patched to
raise, proving the block path ran) and once with it off.

Whole delta-mode solves with the tier on must equal the sequential
answer without one dense stage-with-state evaluation, and stay exact
when the tier declines part of a fix-up and the sparse repair runs on
resident state that earlier block sweeps have superseded.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

import repro.kernels
from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.ltdp.engine.specs import FIXUP_FIRST_CHUNK, ForwardFixupSpec, ForwardInitSpec
from repro.ltdp.engine.store import WorkerStore
from repro.ltdp.partition import partition_stages
from repro.ltdp.sequential import solve_sequential
from repro.problems.alignment.banded import BandedAlignmentProblem
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.scoring import ScoringScheme

ROWS = 60
LO, HI = 12, 44  # an interior range: the selector stage is not in it


def _problems():
    rng = np.random.default_rng(2024)
    a = rng.integers(0, 4, ROWS)
    b = rng.integers(0, 4, ROWS - 3)
    sub = rng.integers(-3, 4, (4, 4)).astype(np.float64)
    return {
        "lcs-banded": LCSProblem(a, b, width=9),
        "lcs-full": LCSProblem(a, b, width=ROWS + 5),
        "nw": NeedlemanWunschProblem(a, b, width=9),
        "nw-substitution": NeedlemanWunschProblem(
            a,
            b,
            width=11,
            scoring=ScoringScheme(gap_open=2.0, gap_extend=2.0, substitution=sub),
        ),
    }


PROBLEMS = _problems()


def _mutated(problem, stages, seed):
    """``problem`` with the row symbol of each given stage changed."""
    rng = np.random.default_rng(seed)
    a = np.array(problem.a, copy=True)
    for i in stages:
        a[i - 1] = (a[i - 1] + rng.integers(1, 4)) % 4
    kwargs = {"width": problem.width}
    if isinstance(problem, NeedlemanWunschProblem):
        kwargs["scoring"] = problem.scoring
    out = type(problem)(a, problem.b, **kwargs)
    assert out.dirty_stages_against(problem) == set(stages)
    return out


def _prefix(problem, lo):
    """Exact stage-``lo`` vector of ``problem`` (the left neighbour's final)."""
    v = problem.initial_vector()
    for i in range(1, lo + 1):
        v = problem.apply_stage(i, v)
    return v


def _resident_store(problem):
    """A worker store holding a converged delta-mode solve of the range:
    an initial pass from a random start with state capture, then one
    sparse fix-up from the exact neighbour boundary."""
    store = WorkerStore(problem)
    init = ForwardInitSpec(
        proc=2, lo=LO, hi=HI, seed=np.random.SeedSequence(7), capture_state=True
    )
    store.apply(init.execute(problem, store))
    fix = ForwardFixupSpec(
        proc=2,
        lo=LO,
        hi=HI,
        boundary=_prefix(problem, LO),
        tol=problem.parallel_tol,
        use_delta=True,
        sparse=True,
    )
    store.apply(fix.execute(problem, store))
    return store


def _assert_same_result(got, want):
    assert got.converged == want.converged
    assert got.stages_done == want.stages_done
    assert got.boundary.tobytes() == want.boundary.tobytes()
    for field in ("s_rows", "pred_rows"):
        g, w = getattr(got, field)(), getattr(want, field)()
        assert sorted(g) == sorted(w), field
        for i in w:
            assert np.asarray(g[i]).tobytes() == np.asarray(w[i]).tobytes(), (field, i)
    assert not got.fixup_state_updates  # a block sweep keeps no §4.7 state
    lo_g, in_g = got.fixup_input
    lo_w, in_w = want.fixup_input
    assert lo_g == lo_w and in_g.tobytes() == in_w.tobytes()


def _run_both(problem, store, spec, monkeypatch):
    """(block result, per-stage result)."""
    kernel_store, stage_store = store, copy.deepcopy(store)

    def forbidden(self, *args):
        raise AssertionError("block path fell back to the per-stage sparse kernel")

    with monkeypatch.context() as m:
        m.setattr(BandedAlignmentProblem, "apply_stage_sparse", forbidden)
        got = spec.execute(problem, kernel_store)
    want = replace(spec, use_kernels=False).execute(problem, stage_store)
    return got, want


def _spec(problem, boundary):
    return ForwardFixupSpec(
        proc=2,
        lo=LO,
        hi=HI,
        boundary=boundary,
        tol=problem.parallel_tol,
        use_delta=True,
        sparse=True,
        use_kernels=True,
    )


@pytest.mark.parametrize("name", list(PROBLEMS))
@pytest.mark.parametrize("upstream", [LO - 1, LO - 8])
def test_sparse_fixup_spec(name, upstream, monkeypatch):
    base = PROBLEMS[name]
    store = _resident_store(base)
    problem = _mutated(base, [upstream], seed=upstream)
    spec = _spec(problem, _prefix(problem, LO))
    got, want = _run_both(problem, store, spec, monkeypatch)
    _assert_same_result(got, want)



@pytest.mark.parametrize("name", list(PROBLEMS))
def test_sparse_repair_on_state_a_block_sweep_superseded(name, monkeypatch):
    """A block sweep rewrites the range's stage vectors but not its §4.7
    state.  Each state is still one complete evaluation of its stage, so
    a later per-stage sparse repair against it equals the dense
    per-stage sweep to the byte."""
    base = PROBLEMS[name]
    store = _resident_store(base)
    first = _mutated(base, [LO - 1], seed=1)
    swept = _spec(first, _prefix(first, LO)).execute(first, store)
    assert swept.s_blocks and not swept.fixup_state_updates
    store.apply(swept)
    second = _mutated(first, [LO - 2], seed=2)
    spec = replace(_spec(second, _prefix(second, LO)), use_kernels=False)
    dense_store = copy.deepcopy(store)
    real = BandedAlignmentProblem.apply_stage_sparse
    superseded = []  # stages repaired from a state older than their vector

    def spy(self, i, v, state, crossover):
        res = real(self, i, v, state, crossover)
        if res is not None and state.out.tobytes() != store.get_s(i).tobytes():
            superseded.append(i)
        return res

    with monkeypatch.context() as m:
        m.setattr(BandedAlignmentProblem, "apply_stage_sparse", spy)
        got = spec.execute(second, store)
    want = replace(spec, use_delta=False, sparse=False).execute(second, dense_store)
    assert superseded, "no stage was repaired from superseded state"
    assert got.converged == want.converged
    assert got.stages_done == want.stages_done
    assert got.boundary.tobytes() == want.boundary.tobytes()
    for field in ("s_rows", "pred_rows"):
        g, w = getattr(got, field)(), getattr(want, field)()
        assert sorted(g) == sorted(w), field
        for i in w:
            assert np.asarray(g[i]).tobytes() == np.asarray(w[i]).tobytes(), (field, i)

# ----------------------------------------------------------------------
# Whole delta-mode solves with the tier on.
# ----------------------------------------------------------------------


def _count_state_evaluations(monkeypatch):
    """Count ``apply_stage_with_state`` calls on every banded problem."""
    calls = []
    real = BandedAlignmentProblem.apply_stage_with_state

    def counting(self, i, v):
        calls.append(i)
        return real(self, i, v)

    monkeypatch.setattr(BandedAlignmentProblem, "apply_stage_with_state", counting)
    return calls


def _delta_opts(procs, use_kernels=True):
    return ParallelOptions(
        num_procs=procs, seed=3, use_delta=True, use_kernels=use_kernels
    )


@pytest.mark.parametrize("procs", [2, 4])
@pytest.mark.parametrize("name", ["lcs-banded", "lcs-full", "nw"])
def test_tier_on_delta_solve_evaluates_no_stage_state(name, procs, monkeypatch):
    """The tier computes stage vectors and predecessors only: neither
    its sweeps nor its dispatch gate evaluate a stage with state."""
    problem = PROBLEMS[name]
    calls = _count_state_evaluations(monkeypatch)
    got = solve_parallel(problem, _delta_opts(procs))
    assert calls == []
    want = solve_sequential(problem)
    np.testing.assert_array_equal(got.path, want.path)
    assert got.score == want.score


def _long_problems():
    """Unrelated sequences in a wide band: fix-ups run past one chunk."""
    rng = np.random.default_rng(77)
    a = rng.integers(0, 4, 320)
    b = rng.integers(0, 4, 320)
    return {
        "lcs": LCSProblem(a, b, width=40),
        "nw": NeedlemanWunschProblem(a, b, width=40),
    }


LONG_PROBLEMS = _long_problems()


@pytest.mark.parametrize("procs", [2, 3])
@pytest.mark.parametrize("name", list(LONG_PROBLEMS))
def test_tier_declining_later_fixup_chunks_stays_exact(name, procs, monkeypatch):
    """The tier accepts every initial sweep and the first chunk of each
    fix-up but declines every later chunk, so those ranges re-run on
    the per-stage sparse path against whatever resident state they
    have: none after a block-swept initial pass, superseded after a
    round whose first chunk converged."""
    problem = LONG_PROBLEMS[name]
    ranges = partition_stages(problem.num_stages, procs)
    assert all(rg.hi - rg.lo > FIXUP_FIRST_CHUNK for rg in ranges)
    starts = {rg.lo for rg in ranges}
    real = repro.kernels.block_sweep
    declined = []

    def decline_later_chunks(problem, lo, hi, v):
        if lo not in starts:
            declined.append(lo)
            return None
        return real(problem, lo, hi, v)

    monkeypatch.setattr(repro.kernels, "block_sweep", decline_later_chunks)
    calls = _count_state_evaluations(monkeypatch)
    got = solve_parallel(problem, _delta_opts(procs))
    assert declined and calls, "the per-stage sparse path never ran"
    base = solve_parallel(problem, _delta_opts(procs, use_kernels=False))
    want = solve_sequential(problem)
    np.testing.assert_array_equal(got.path, want.path)
    assert got.score == want.score
    np.testing.assert_array_equal(got.path, base.path)
    assert got.metrics.forward_fixup_iterations == base.metrics.forward_fixup_iterations
    assert got.metrics.fixup_stages == base.metrics.fixup_stages
