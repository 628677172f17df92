"""Block-kernel §4.7 fix-up against the per-stage sparse path.

In delta mode :class:`ForwardFixupSpec` sweeps a whole range through
the kernel tier, capturing fresh §4.7 state, and falls back to the
per-stage sparse kernel only when no block kernel accepts the range.
Both paths must leave the resident store in the same state to the
byte: the same stage vectors, predecessors, advertised boundary,
convergence verdict and captured state planes.  Each case runs the same spec on two copies of
one worker store, once with the tier on (and ``apply_stage_sparse``
patched to raise, proving the block path ran) and once with it off.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.ltdp.engine.specs import ForwardFixupSpec, ForwardInitSpec
from repro.ltdp.engine.store import WorkerStore
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


def _assert_same_state(a, b):
    if not hasattr(b, "__dataclass_fields__"):
        assert a == b  # selector sentinel
        return
    assert type(a) is type(b)
    for name in b.__dataclass_fields__:
        x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


def _assert_same_result(got, want):
    assert got.converged == want.converged
    assert got.stages_done == want.stages_done
    assert got.boundary.tobytes() == want.boundary.tobytes()
    for field in ("s_rows", "pred_rows"):
        g, w = getattr(got, field)(), getattr(want, field)()
        assert sorted(g) == sorted(w), field
        for i in w:
            assert np.asarray(g[i]).tobytes() == np.asarray(w[i]).tobytes(), (field, i)
    assert sorted(got.fixup_state_updates) == sorted(want.fixup_state_updates)
    for i, state in want.fixup_state_updates.items():
        _assert_same_state(got.fixup_state_updates[i], state)
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
