"""Unit tests for the kernel tier: registry, gate, plans, backends.

The tier's contract is *bit-identity with a receipt*: a kernel sweep is
only accepted after its first block stage has been re-derived with the
problem's own dense per-stage method and matched byte-for-byte.  These
tests pin the registry mechanics (registration rules, exact-type
lookup, plan-cache LRU, the tri-state ``use_kernels`` gate), the
per-dispatch cross-check itself (a lying kernel is discarded), full
block-vs-dense equality for every shipped kernel, and backend forcing
via ``REPRO_KERNEL_BACKEND`` (cc / numpy must agree to the byte; a
missing compiler or an unrecognized pin degrades to numpy, never to an
error).
"""

import numpy as np
import pytest

from repro.exceptions import KernelRegistrationError
from repro.kernels import (
    BlockSweep,
    StageBlockKernel,
    block_sweep,
    get_backend,
    kernel_tier_enabled,
    price_path_fast,
    register_kernel,
    registered_kernels,
    reset_backend_cache,
    reset_plan_cache,
    warm_kernels,
)
from repro.kernels import registry as kregistry
from repro.machine.executor import SerialExecutor
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.scoring import ScoringScheme
from repro.problems.convolutional import (
    VOYAGER,
    PuncturedViterbiDecoderProblem,
    SoftViterbiDecoderProblem,
    ViterbiDecoderProblem,
)
from repro.problems.dtw import DTWProblem

RNG = np.random.default_rng(7)


def build_problems() -> dict:
    a = RNG.integers(0, 4, 60)
    b = RNG.integers(0, 4, 55)
    bits = RNG.integers(0, 2, 120).astype(np.uint8)
    sub = RNG.integers(-2, 3, (4, 4)).astype(np.float64)
    pattern = np.array([1, 1, 0, 1], dtype=bool)
    full = RNG.integers(0, 2, 240).astype(np.uint8)
    kept = full[np.tile(pattern, 60)]
    return {
        "lcs-full": LCSProblem(a, b, width=70),
        "lcs-banded": LCSProblem(a, b, width=12),
        "nw": NeedlemanWunschProblem(a, b, width=15),
        "nw-sub": NeedlemanWunschProblem(
            a, b, width=15,
            scoring=ScoringScheme(gap_open=1.0, gap_extend=1.0, substitution=sub),
        ),
        "vit-hard": ViterbiDecoderProblem(VOYAGER, bits, terminated=True),
        "vit-unterm": ViterbiDecoderProblem(VOYAGER, bits, terminated=False),
        "vit-soft": SoftViterbiDecoderProblem(
            VOYAGER, RNG.normal(0, 1, 120), terminated=True
        ),
        "vit-punct": PuncturedViterbiDecoderProblem(
            VOYAGER, kept, pattern, terminated=True
        ),
    }


PROBLEMS = build_problems()


def dense_sweep(problem, lo, hi, v):
    vals, preds = [], []
    for i in range(lo + 1, hi + 1):
        v, pr = problem.apply_stage_with_pred(i, v)
        vals.append(v)
        preds.append(pr)
    return vals, preds


def assert_sweep_matches_dense(problem, lo, hi, v):
    v = np.asarray(v, dtype=np.float64)
    sweep = block_sweep(problem, lo, hi, v)
    assert sweep is not None, "every shipped problem family must plan a kernel"
    dv, dp = dense_sweep(problem, lo, hi, v)
    assert len(sweep) == len(dv)
    for r, dvr in enumerate(dv):
        assert sweep.value(r).tobytes() == dvr.tobytes(), f"values differ at stage offset {r}"
    for r, dpr in enumerate(dp):
        assert np.array_equal(sweep.pred(r), dpr), f"preds differ at stage offset {r}"
    expected_costs = np.array(
        [problem.stage_cost(i) for i in range(lo + 1, hi + 1)]
    )
    assert np.array_equal(sweep.costs, expected_costs)


class TestBlockSweepBitIdentity:
    """Every kernel's full-block output equals the dense per-stage loop."""

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_initial_block_matches_dense(self, name):
        problem = PROBLEMS[name]
        assert_sweep_matches_dense(
            problem, 0, problem.num_stages, problem.initial_vector()
        )

    @pytest.mark.parametrize("name", ["lcs-full", "lcs-banded", "nw", "vit-hard"])
    def test_mid_block_from_arbitrary_boundary(self, name):
        # Fix-up supersteps enter blocks with non-initial boundary rows.
        problem = PROBLEMS[name]
        lo = 10
        rng = np.random.default_rng(5)
        v = rng.uniform(-4.0, 2.0, problem.stage_width(lo))
        assert_sweep_matches_dense(problem, lo, min(40, problem.num_stages), v)

    def test_unregistered_problem_gets_no_sweep(self):
        rng = np.random.default_rng(3)
        problem = DTWProblem(rng.random(30), rng.random(30), width=8)
        assert block_sweep(problem, 0, 5, problem.initial_vector()) is None


class _ToyKernel(StageBlockKernel):
    """Test stub: computes ``v + stage_index`` per stage, optionally lying."""

    bit_identity_gate = "test stub; every dispatch cross-checked like the real ones"

    def __init__(self, name, lie):
        self.name = name
        self._lie = lie

    def fingerprint(self, problem):
        return "toy"

    def plan(self, problem):
        return "plan"

    def run(self, problem, plan, lo, hi, v):
        vals, preds = [], []
        cur = np.asarray(v, dtype=np.float64)
        for i in range(lo + 1, hi + 1):
            cur = cur + float(i) + (0.5 if self._lie else 0.0)
            vals.append(cur.copy())
            preds.append(np.arange(cur.size, dtype=np.int64))
        return BlockSweep(
            values=np.array(vals),
            preds=np.array(preds),
            widths=None,
            costs=np.full(hi - lo, float(len(np.asarray(v)))),
            zero_index=None,
        )


def _toy_problem_type():
    class _Toy:
        num_stages = 4

        def initial_vector(self):
            return np.zeros(3)

        def stage_width(self, i):
            return 3

        def apply_stage_with_pred(self, i, v):
            return np.asarray(v, dtype=np.float64) + float(i), np.arange(3, dtype=np.int64)

        def stage_cost(self, i):
            return 3.0

    return _Toy


@pytest.fixture
def scratch_registry():
    """Yield a fresh toy problem type; unregister its kernels after."""
    toy = _toy_problem_type()
    yield toy
    kregistry._KERNELS.pop(toy, None)
    reset_plan_cache()


class TestRegistry:
    def test_missing_bit_identity_gate_rejected(self, scratch_registry):
        kernel = _ToyKernel("gateless", lie=False)
        kernel.bit_identity_gate = "   "
        with pytest.raises(KernelRegistrationError, match="bit_identity_gate"):
            register_kernel(scratch_registry, kernel)

    def test_missing_name_rejected(self, scratch_registry):
        with pytest.raises(KernelRegistrationError, match="name"):
            register_kernel(scratch_registry, _ToyKernel("", lie=False))

    def test_exact_type_lookup_ignores_subclasses(self):
        class SubLCS(LCSProblem):
            pass

        assert registered_kernels(LCSProblem)
        assert registered_kernels(SubLCS) == ()

    def test_dispatch_gate_discards_lying_kernel(self, scratch_registry):
        register_kernel(scratch_registry, _ToyKernel("toy-liar", lie=True))
        problem = scratch_registry()
        assert block_sweep(problem, 0, 4, problem.initial_vector()) is None

    def test_dispatch_gate_accepts_honest_kernel(self, scratch_registry):
        register_kernel(scratch_registry, _ToyKernel("toy-honest", lie=False))
        problem = scratch_registry()
        sweep = block_sweep(problem, 0, 4, problem.initial_vector())
        assert sweep is not None
        assert len(sweep) == 4
        np.testing.assert_array_equal(sweep.value(3), np.full(3, 1.0 + 2 + 3 + 4))


class _LastStageLiar(StageBlockKernel):
    """Test stub: a shipped kernel whose sweeps are right everywhere
    except one cell of their last kernel-computed stage."""

    bit_identity_gate = "test stub; every dispatch cross-checked like the real ones"

    def __init__(self, inner):
        self.inner = inner
        self.name = f"last-stage-liar/{inner.name}"

    def fingerprint(self, problem):
        return self.inner.fingerprint(problem)

    def plan(self, problem):
        return self.inner.plan(problem)

    def run(self, problem, plan, lo, hi, v):
        sweep = self.inner.run(problem, plan, lo, hi, v)
        if sweep is not None:
            last = len(sweep) - 1 - sweep.dense_tail
            bad = sweep.value(last)
            bad[int(np.argmax(bad))] += 3.0  # a finite cell
        return sweep


@pytest.fixture
def last_stage_liars(monkeypatch):
    """Replace every shipped kernel with its last-stage-lying wrapper."""
    for problem_type, kernels in list(kregistry._KERNELS.items()):
        monkeypatch.setitem(
            kregistry._KERNELS,
            problem_type,
            tuple(_LastStageLiar(k) for k in kernels),
        )
    yield
    reset_plan_cache()


class TestLastStageGate:
    """The gate re-derives the last kernel-computed stage from the
    sweep's own previous stage, so a kernel wrong only there is caught."""

    @pytest.mark.parametrize("name", ["lcs-full", "lcs-banded", "nw-sub", "vit-unterm"])
    def test_lying_sweep_discarded(self, name, last_stage_liars):
        problem = PROBLEMS[name]
        v = problem.initial_vector()
        for kernel in registered_kernels(type(problem)):
            plan = kernel.plan(problem)
            if plan is None:
                continue
            # The first stage is honest: only the new check can refuse it.
            sweep = kernel.run(problem, plan, 0, 30, v)
            if sweep is not None:
                assert kregistry._stage_matches(problem, 1, v, sweep, 0)
        assert block_sweep(problem, 0, 30, v) is None
        assert block_sweep(problem, 0, problem.num_stages, v) is None

    @pytest.mark.parametrize("use_delta", [False, True])
    @pytest.mark.parametrize("name", ["lcs-full", "lcs-banded", "nw-sub", "vit-hard"])
    def test_solve_falls_back_bit_identical(self, name, use_delta, last_stage_liars):
        from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
        from repro.ltdp.sequential import solve_sequential

        problem = PROBLEMS[name]
        opts = ParallelOptions(
            num_procs=3, seed=2, use_kernels=True, use_delta=use_delta
        )
        got = solve_parallel(problem, opts)
        want = solve_sequential(problem)
        np.testing.assert_array_equal(got.path, want.path)
        assert got.score == want.score


class _InteriorStageLiar(_LastStageLiar):
    """Test stub: right everywhere except one cell of the interior row the
    gate's seeded spot check re-derives."""

    def __init__(self, inner):
        self.inner = inner
        self.name = f"interior-stage-liar/{inner.name}"

    def run(self, problem, plan, lo, hi, v):
        sweep = self.inner.run(problem, plan, lo, hi, v)
        if sweep is not None:
            last = len(sweep) - 1 - sweep.dense_tail
            r = kregistry._spot_row(lo, hi, last)
            bad = sweep.value(r)
            bad[int(np.argmax(bad))] += 3.0  # a finite cell
        return sweep


@pytest.fixture
def interior_liars(monkeypatch):
    """Replace every shipped kernel with its interior-row-lying wrapper."""
    for problem_type, kernels in list(kregistry._KERNELS.items()):
        monkeypatch.setitem(
            kregistry._KERNELS,
            problem_type,
            tuple(_InteriorStageLiar(k) for k in kernels),
        )
    yield
    reset_plan_cache()


class TestInteriorSpotGate:
    """The gate also re-derives one seeded interior stage from the sweep's
    own previous row, so a kernel wrong only inside the block is caught."""

    @pytest.mark.parametrize("lo,hi,last", [(0, 30, 29), (7, 61, 52), (3, 5, 2)])
    def test_spot_row_is_interior_and_deterministic(self, lo, hi, last):
        r = kregistry._spot_row(lo, hi, last)
        assert 1 <= r <= last - 1
        assert r == kregistry._spot_row(lo, hi, last)

    @pytest.mark.parametrize("name", ["lcs-full", "lcs-banded", "nw-sub", "vit-hard"])
    def test_lying_sweep_discarded(self, name, interior_liars):
        problem = PROBLEMS[name]
        v = problem.initial_vector()
        hi = problem.num_stages
        for kernel in registered_kernels(type(problem)):
            plan = kernel.plan(problem)
            sweep = None if plan is None else kernel.run(problem, plan, 0, hi, v)
            if sweep is None:
                continue
            # First and last stages are honest: only the spot check refuses
            # (unless the spot row feeds the last one, which then fails too).
            last = len(sweep) - 1 - sweep.dense_tail
            assert kregistry._stage_matches(problem, 1, v, sweep, 0)
            last_ok = kregistry._stage_matches(
                problem, 1 + last, sweep.value(last - 1), sweep, last
            )
            assert last_ok == (kregistry._spot_row(0, hi, last) < last - 1)
        assert block_sweep(problem, 0, hi, v) is None

    @pytest.mark.parametrize("name", ["lcs-full", "lcs-banded", "nw-sub", "vit-hard"])
    def test_in_process_solve_falls_back_bit_identical(self, name, interior_liars):
        from repro.ltdp.engine.driver import solve_parallel
        from repro.ltdp.sequential import solve_sequential

        problem = PROBLEMS[name]
        got = solve_parallel(problem, num_procs=1, use_kernels=True)
        want = solve_sequential(problem)
        np.testing.assert_array_equal(got.path, want.path)
        assert got.score == want.score


class TestPlanCache:
    def test_equal_content_problems_share_one_plan(self):
        reset_plan_cache()
        a = np.arange(20) % 4
        b = (np.arange(18) + 1) % 4
        warm_kernels(LCSProblem(a, b, width=25))
        size = len(kregistry._PLAN_CACHE)
        assert size > 0
        # A distinct instance with identical content must hit the cache:
        # pool workers unpickle fresh problem objects every solve.
        warm_kernels(LCSProblem(a.copy(), b.copy(), width=25))
        assert len(kregistry._PLAN_CACHE) == size

    def test_cache_is_bounded_lru(self):
        reset_plan_cache()
        for k in range(40):
            a = (np.arange(16) + k) % 7
            warm_kernels(LCSProblem(a, a[::-1].copy(), width=20))
        assert len(kregistry._PLAN_CACHE) <= kregistry._PLAN_CACHE_MAX

    def test_reset_clears(self):
        warm_kernels(PROBLEMS["nw"])
        assert len(kregistry._PLAN_CACHE) > 0
        reset_plan_cache()
        assert len(kregistry._PLAN_CACHE) == 0


class TestTierGate:
    """The tri-state ``use_kernels`` gate (mirrors the sparse kernel's)."""

    def _opts(self, use_kernels):
        from repro.ltdp.engine.driver import ParallelOptions

        return ParallelOptions(
            num_procs=2, executor=SerialExecutor(), use_kernels=use_kernels
        )

    def test_false_forces_dense(self):
        assert not kernel_tier_enabled(self._opts(False), PROBLEMS["nw"])

    def test_true_overrides_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "off")
        assert kernel_tier_enabled(self._opts(True), PROBLEMS["nw"])

    def test_auto_respects_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "0")
        assert not kernel_tier_enabled(self._opts(None), PROBLEMS["nw"])

    def test_auto_on_for_registered_problem(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert kernel_tier_enabled(self._opts(None), PROBLEMS["nw"])

    def test_auto_off_for_unregistered_problem(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        rng = np.random.default_rng(1)
        dtw = DTWProblem(rng.random(20), rng.random(20), width=6)
        assert not kernel_tier_enabled(self._opts(None), dtw)


class TestFastPricing:
    @pytest.mark.parametrize("name", ["vit-hard", "vit-punct", "nw", "lcs-banded"])
    def test_price_matches_sequential_scalar_pricing(self, name):
        from repro.ltdp.engine.driver import _price_path
        from repro.ltdp.sequential import solve_sequential

        problem = PROBLEMS[name]
        path = solve_sequential(problem).path
        dense = _price_path(problem, path, use_kernels=False)
        fast = price_path_fast(problem, path)
        assert fast is not None, "a planned kernel must price exactly or decline"
        assert fast == dense  # bit-identical, not approx
        assert _price_path(problem, path, use_kernels=True) == dense

    def test_soft_viterbi_declines_and_falls_back(self):
        # Soft branch metrics are non-integral floats: a vectorized sum
        # cannot guarantee the sequential accumulation order, so the
        # kernel must *decline* pricing and the driver must fall back to
        # the scalar loop rather than return a merely-close score.
        from repro.ltdp.engine.driver import _price_path
        from repro.ltdp.sequential import solve_sequential

        problem = PROBLEMS["vit-soft"]
        path = solve_sequential(problem).path
        assert price_path_fast(problem, path) is None
        dense = _price_path(problem, path, use_kernels=False)
        assert _price_path(problem, path, use_kernels=True) == dense


@pytest.fixture
def forced_backend(monkeypatch):
    def force(kind):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", kind)
        reset_backend_cache()
        return get_backend()

    yield force
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    reset_backend_cache()


class TestBackends:
    def test_auto_backend_resolves(self):
        reset_backend_cache()
        assert get_backend().kind in ("cc", "numpy")

    def test_numpy_can_be_forced(self, forced_backend):
        assert forced_backend("numpy").kind == "numpy"

    def test_unknown_backend_name_degrades_to_numpy(self, forced_backend):
        assert forced_backend("fortran").kind == "numpy"

    @pytest.mark.parametrize("name", ["lcs-banded", "nw-sub", "vit-hard", "vit-soft"])
    def test_numpy_and_compiled_agree_to_the_byte(self, forced_backend, name):
        problem = PROBLEMS[name]
        v0 = problem.initial_vector()
        hi = min(30, problem.num_stages)

        forced_backend("numpy")
        reset_plan_cache()
        ref = block_sweep(problem, 0, hi, v0)
        assert ref is not None

        if forced_backend("cc").kind == "cc":  # else no C compiler here
            reset_plan_cache()
            got = block_sweep(problem, 0, hi, v0)
            assert got is not None
            assert len(got) == len(ref)
            for r in range(len(ref)):
                assert got.value(r).tobytes() == ref.value(r).tobytes()
                assert np.array_equal(got.pred(r), ref.pred(r))
        reset_plan_cache()


def _tie_heavy_viterbi():
    """A hard-decision packet where most add-compare-select decisions tie.

    Every received symbol pair is ``01``: VOYAGER's two branches into a
    state emit complementary symbols, so both branch metrics are 1 and
    the candidates tie whenever the two predecessor metrics do (over a
    third of all decisions).  A few random symbol pairs break the
    symmetry so the metrics are not all equal.
    """
    rng = np.random.default_rng(19)
    received = np.tile(np.array([0, 1], dtype=np.uint8), 160)
    noisy = rng.choice(received.size // 2, size=8, replace=False)
    for s in noisy:
        received[2 * s : 2 * s + 2] = rng.integers(0, 2, 2)
    return ViterbiDecoderProblem(VOYAGER, received, terminated=True)


def _tie_fraction(problem) -> float:
    ties = total = 0
    v = problem.initial_vector()
    for i in range(1, problem.num_stages + 1):
        cand = v[problem._pred] + problem._branch_metrics(i)
        ties += int(np.count_nonzero(cand[:, 0] == cand[:, 1]))
        total += cand.shape[0]
        v, _ = problem.apply_stage_with_pred(i, v)
    return ties / total


class TestViterbiTies:
    """The branch-free ACS must break ties exactly like the dense kernel
    (branch 0, i.e. ``np.argmax``) on every backend, not only on the
    rows the dispatch gate happens to re-derive."""

    PROBLEM = _tie_heavy_viterbi()

    def test_instance_is_tie_heavy(self):
        assert _tie_fraction(self.PROBLEM) > 0.3

    @pytest.mark.parametrize("kind", ["cc", "numpy"])
    def test_every_row_matches_dense(self, forced_backend, kind):
        if forced_backend(kind).kind != kind:
            pytest.skip(f"{kind} backend unavailable here")
        reset_plan_cache()
        problem = self.PROBLEM
        assert_sweep_matches_dense(
            problem, 0, problem.num_stages, problem.initial_vector()
        )
        # And from a tied, non-initial boundary mid-packet.
        assert_sweep_matches_dense(
            problem, 40, problem.num_stages, np.zeros(VOYAGER.num_states)
        )
        reset_plan_cache()

    @pytest.mark.parametrize("kind", ["cc", "numpy"])
    def test_parallel_solve_identical_with_and_without_tier(self, forced_backend, kind):
        from repro.ltdp.engine.driver import ParallelOptions, solve_parallel

        if forced_backend(kind).kind != kind:
            pytest.skip(f"{kind} backend unavailable here")
        reset_plan_cache()
        runs = {
            use: solve_parallel(
                self.PROBLEM,
                ParallelOptions(
                    num_procs=3, seed=2, executor=SerialExecutor(), use_kernels=use
                ),
            )
            for use in (False, True)
        }
        off, on = runs[False], runs[True]
        np.testing.assert_array_equal(on.path, off.path)
        assert on.score == off.score
        assert on.metrics.fixup_stages == off.metrics.fixup_stages
        assert on.metrics.forward_fixup_iterations == off.metrics.forward_fixup_iterations
        assert on.metrics.work_by_processor() == off.metrics.work_by_processor()
        reset_plan_cache()


def _scan_zero_row(sweep):
    """The per-row ``isneginf`` scan the kernels' zero index replaces."""
    for r in range(len(sweep)):
        if np.all(np.isneginf(sweep.value(r))):
            return r
    return None


class TestZeroRowIndex:
    """Each kernel reports its first all-0̄ row itself (the compiled
    Viterbi kernel while sweeping); it must equal the scan."""

    def _inputs(self, problem):
        rng = np.random.default_rng(4)
        w = problem.stage_width(0)
        partial = rng.integers(-5, 6, w).astype(np.float64)
        partial[rng.random(w) < 0.7] = -np.inf
        return {
            "initial": problem.initial_vector(),
            "finite": rng.integers(-5, 6, w).astype(np.float64),
            "partial": partial,
            "zero": np.full(w, -np.inf),
        }

    @pytest.mark.parametrize("backend", ["cc", "numpy"])
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_zero_index_equals_scan(self, forced_backend, backend, name):
        if forced_backend(backend).kind != backend:
            pytest.skip(f"{backend} backend unavailable on this host")
        problem = PROBLEMS[name]
        for label, v in self._inputs(problem).items():
            for kernel in registered_kernels(type(problem)):
                plan = kernel.plan(problem)
                if plan is None:
                    continue
                with np.errstate(invalid="ignore"):
                    sweep = kernel.run(problem, plan, 0, problem.num_stages, v)
                if sweep is None:
                    continue
                assert sweep.zero_index == _scan_zero_row(sweep), (label, kernel.name)
                if label == "zero":
                    assert sweep.zero_index == 0

    @pytest.mark.parametrize("row", [0, 5, 39])
    def test_compiled_viterbi_reports_a_zero_row_mid_block(self, forced_backend, row):
        from repro.kernels.viterbi import ViterbiBlockKernel

        problem = PROBLEMS["vit-hard"]
        plan = ViterbiBlockKernel().plan(problem)
        M = np.array(plan.M[:40], copy=True)
        M[row] = -np.inf  # every branch into every state is 0̄ at this stage
        v = problem.initial_vector()
        found = {}
        for backend in ("numpy", "cc"):
            resolved = forced_backend(backend)
            if resolved.kind != backend:
                continue
            out_s = np.empty((40, plan.S))
            out_p = np.empty((40, plan.S), dtype=np.int64)
            if resolved.viterbi_block is None:
                zero = ViterbiBlockKernel._run_numpy(plan, M, v, out_s, out_p)
            else:
                zero = resolved.viterbi_block(v, M, plan.perm, plan.pred0, out_s, out_p)
            found[backend] = (int(zero), out_s.tobytes(), out_p.tobytes())
            assert zero == row
        assert len({f for f in found.values()}) == 1
