"""Unit tests for the kernel tier: registry, gate, plans, backends.

The tier's contract is *bit-identity with a receipt*: a kernel sweep is
only accepted after its first block stage has been re-derived with the
problem's own dense per-stage method and matched byte-for-byte.  These
tests pin the registry mechanics (registration rules, exact-type
lookup, plan-cache LRU, the tri-state ``use_kernels`` gate), the
per-dispatch cross-check itself (a lying kernel is discarded), full
block-vs-dense equality for every shipped kernel, and backend forcing
via ``REPRO_KERNEL_BACKEND`` (cc / numba / numpy must agree to the
byte; a missing compiler or numba degrades to numpy, never to an
error).
"""

import importlib.util

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


def dense_sweep(problem, lo, hi, v, capture):
    vals, preds, states = [], [], []
    for i in range(lo + 1, hi + 1):
        if capture:
            v, pr, st = problem.apply_stage_with_state(i, v)
            states.append(st)
        else:
            v, pr = problem.apply_stage_with_pred(i, v)
        vals.append(v)
        preds.append(pr)
    return vals, preds, states


def assert_sweep_matches_dense(problem, lo, hi, v, capture):
    v = np.asarray(v, dtype=np.float64)
    sweep = block_sweep(problem, lo, hi, v, capture_state=capture)
    assert sweep is not None, "every shipped problem family must plan a kernel"
    dv, dp, ds = dense_sweep(problem, lo, hi, v, capture)
    assert len(sweep.values) == len(dv)
    for r, (kv, dvr) in enumerate(zip(sweep.values, dv)):
        assert np.asarray(kv).tobytes() == dvr.tobytes(), f"values differ at stage offset {r}"
    for r, (kp, dpr) in enumerate(zip(sweep.preds, dp)):
        assert np.array_equal(kp, dpr), f"preds differ at stage offset {r}"
    if capture:
        assert sweep.states is not None
        for r, (ks, dsr) in enumerate(zip(sweep.states, ds)):
            assert kregistry._states_equal(ks, dsr), f"state differs at stage offset {r}"
    expected_costs = np.array(
        [problem.stage_cost(i) for i in range(lo + 1, hi + 1)]
    )
    assert np.array_equal(sweep.costs, expected_costs)


class TestBlockSweepBitIdentity:
    """Every kernel's full-block output equals the dense per-stage loop."""

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_initial_block_matches_dense(self, name, capture):
        problem = PROBLEMS[name]
        if capture and name.startswith("vit"):
            pytest.skip("Viterbi has no sparse-kernel state capture")
        assert_sweep_matches_dense(
            problem, 0, problem.num_stages, problem.initial_vector(), capture
        )

    @pytest.mark.parametrize("name", ["lcs-full", "lcs-banded", "nw", "vit-hard"])
    def test_mid_block_from_arbitrary_boundary(self, name):
        # Fix-up supersteps enter blocks with non-initial boundary rows.
        problem = PROBLEMS[name]
        lo = 10
        rng = np.random.default_rng(5)
        v = rng.uniform(-4.0, 2.0, problem.stage_width(lo))
        assert_sweep_matches_dense(problem, lo, min(40, problem.num_stages), v, False)

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

    def run(self, problem, plan, lo, hi, v, *, capture_state=False):
        if capture_state:
            return None
        vals, preds = [], []
        cur = np.asarray(v, dtype=np.float64)
        for i in range(lo + 1, hi + 1):
            cur = cur + float(i) + (0.5 if self._lie else 0.0)
            vals.append(cur.copy())
            preds.append(np.arange(cur.size, dtype=np.int64))
        return BlockSweep(
            values=vals,
            preds=preds,
            states=None,
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
        assert len(sweep.values) == 4
        np.testing.assert_array_equal(sweep.values[-1], np.full(3, 1.0 + 2 + 3 + 4))


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

    def run(self, problem, plan, lo, hi, v, *, capture_state=False):
        sweep = self.inner.run(problem, plan, lo, hi, v, capture_state=capture_state)
        if sweep is not None:
            last = len(sweep.values) - 1 - sweep.dense_tail
            bad = np.array(sweep.values[last], copy=True)
            bad[int(np.argmax(bad))] += 3.0  # a finite cell
            sweep.values[last] = bad
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

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("name", ["lcs-full", "lcs-banded", "nw-sub", "vit-unterm"])
    def test_lying_sweep_discarded(self, name, capture, last_stage_liars):
        problem = PROBLEMS[name]
        if capture and name.startswith("vit"):
            pytest.skip("Viterbi has no sparse-kernel state capture")
        v = problem.initial_vector()
        for kernel in registered_kernels(type(problem)):
            plan = kernel.plan(problem)
            if plan is None:
                continue
            # The first stage is honest: only the new check can refuse it.
            sweep = kernel.run(problem, plan, 0, 30, v, capture_state=capture)
            if sweep is not None:
                assert kregistry._stage_matches(problem, 1, v, sweep, 0, capture)
        assert block_sweep(problem, 0, 30, v, capture_state=capture) is None
        assert block_sweep(problem, 0, problem.num_stages, v, capture_state=capture) is None

    @pytest.mark.parametrize("use_delta", [False, True])
    @pytest.mark.parametrize("name", ["lcs-full", "lcs-banded", "nw-sub", "vit-hard"])
    def test_solve_falls_back_bit_identical(self, name, use_delta, last_stage_liars):
        from repro.ltdp.parallel import ParallelOptions, solve_parallel
        from repro.ltdp.sequential import solve_sequential

        problem = PROBLEMS[name]
        opts = ParallelOptions(
            num_procs=3, seed=2, use_kernels=True, use_delta=use_delta
        )
        got = solve_parallel(problem, opts)
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
        from repro.ltdp.parallel import ParallelOptions

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
        assert get_backend().kind in ("cc", "numba", "numpy")

    def test_numpy_can_be_forced(self, forced_backend):
        assert forced_backend("numpy").kind == "numpy"

    def test_missing_numba_degrades_to_numpy(self, forced_backend):
        backend = forced_backend("numba")
        if importlib.util.find_spec("numba") is None:
            assert backend.kind == "numpy"
        else:
            assert backend.kind == "numba"

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

        for kind in ("cc", "numba"):
            backend = forced_backend(kind)
            if backend.kind == "numpy":
                continue  # toolchain absent in this container
            reset_plan_cache()
            got = block_sweep(problem, 0, hi, v0)
            assert got is not None
            for kv, rv in zip(got.values, ref.values):
                assert np.asarray(kv).tobytes() == np.asarray(rv).tobytes()
            for kp, rp in zip(got.preds, ref.preds):
                assert np.array_equal(kp, rp)
        reset_plan_cache()
