"""Redelivery contract: instruction programs are idempotent under faults.

numpywren's ``FailureTests`` contract: a solve whose every superstep is
delivered by a crew of redundant runners — each runner delivering every
task, every other runner in reverse (LIFO) order — is bit-identical to
the plain serial solve, on driver-resident state and on worker-resident
state, and also when a pool worker is SIGKILLed mid-program.  Metrics
stay a property of the *plan*: work rows, superstep labels and
communicated bytes must not notice the runner count.  The fakes live in
:mod:`tests.redelivery`.

Also pins the worker-side reply cache directly (a re-sent seq returns
the cached stripped reply and leaves the slot's segments alone), the
teardown contract (a runtime whose executor was closed mid-program
raises instead of hanging, and leaks no worker) and the superstep
numbering (the program counter advances identically whether or not
tracing is on).
"""

import multiprocessing as mp
import pickle

import numpy as np
import pytest

from repro.exceptions import ExecutorError
from repro.ltdp.engine.driver import ParallelOptions, solve_parallel
from repro.ltdp.engine.forward import plan_initial_pass
from repro.ltdp.engine.poolrt import PoolRuntime, _w_reset, _w_run_instr
from repro.ltdp.engine.program import InstructionProgram
from repro.ltdp.engine.runtime import LocalRuntime
from repro.ltdp.engine.specs import ForwardInitSpec
from repro.ltdp.matrix_problem import random_matrix_problem
from repro.ltdp.partition import partition_stages
from repro.machine.executor import ThreadExecutor, get_executor
from repro.machine.pool import PoolProcessExecutor
from repro.machine.trace import Tracer
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.smith_waterman import SmithWatermanProblem
from tests.redelivery import DuplicatingThreadExecutor, redelivering

NUM_PROCS = 4
SEED = 17


def build_problems():
    from repro.datagen.sequences import homologous_pair, random_dna

    rng = np.random.default_rng(23)
    problems = {"matrix": random_matrix_problem(48, 8, rng, integer=True)}
    a, b = homologous_pair(60, rng, divergence=0.08)
    problems["lcs"] = LCSProblem(a, b, width=10)
    problems["nw"] = NeedlemanWunschProblem(a, b, width=10)
    q = random_dna(12, rng)
    db = random_dna(120, rng)
    db[60:72] = q
    problems["sw"] = SmithWatermanProblem(q, db)
    return problems


PROBLEMS = build_problems()


def solve_with(problem, executor, **overrides):
    opts = ParallelOptions(
        num_procs=NUM_PROCS, seed=SEED, executor=executor, **overrides
    )
    return solve_parallel(problem, opts)


@pytest.fixture(scope="module")
def serial_solutions():
    return {
        name: solve_with(p, get_executor("serial")) for name, p in PROBLEMS.items()
    }


def assert_identical(got, base):
    """Answer, fix-up schedule and the metrics ledger all match."""
    np.testing.assert_array_equal(got.path, base.path)
    assert got.score == base.score
    assert got.objective_stage == base.objective_stage
    assert got.objective_cell == base.objective_cell
    m, b = got.metrics, base.metrics
    assert m.forward_fixup_iterations == b.forward_fixup_iterations
    assert m.backward_fixup_iterations == b.backward_fixup_iterations
    assert m.fixup_stages == b.fixup_stages
    assert m.num_barriers == b.num_barriers
    assert m.work_by_processor() == b.work_by_processor()
    assert m.bytes_communicated == b.bytes_communicated
    assert [s.label for s in m.supersteps] == [s.label for s in b.supersteps]
    assert [s.step for s in m.supersteps] == [s.step for s in b.supersteps]


def check_delta_mode(name, kind, serial_solutions, use_kernels, runners):
    """§4.7 delta mode under redelivery: sparse boundary diffs are
    snapshotted into the specs at compile time, and a double-applied
    sparse fix-up would corrupt the resident stage vectors, so the
    worker's per-seq reply cache must absorb every repeat."""
    with redelivering(kind, runners=runners) as ex:
        got = solve_with(PROBLEMS[name], ex, use_delta=True, use_kernels=use_kernels)
        assert ex.repeats > 0
    base = serial_solutions[name]
    np.testing.assert_array_equal(got.path, base.path)
    assert got.score == base.score


class TestMultiRunnerBitIdentity:
    """A crew of four runners must be invisible in every result, on
    every runtime."""

    @pytest.mark.parametrize("kind", ["serial", "thread", "pool"])
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_four_runners_bit_identical(self, name, kind, serial_solutions):
        with redelivering(kind, runners=4) as ex:
            got = solve_with(PROBLEMS[name], ex)
            assert ex.repeats > 0 and ex.reversals > 0
        assert_identical(got, serial_solutions[name])

    @pytest.mark.parametrize("kind", ["serial", "pool"])
    @pytest.mark.parametrize("name", ["lcs", "nw", "matrix", "sw"])
    def test_four_runners_delta_mode(self, name, kind, serial_solutions):
        check_delta_mode(name, kind, serial_solutions, None, runners=4)

    @pytest.mark.parametrize("kind", ["serial", "pool"])
    @pytest.mark.parametrize("name", ["lcs", "nw"])
    def test_four_runners_delta_mode_per_stage_sparse(
        self, name, kind, serial_solutions
    ):
        """The same with the kernel tier off: LCS / NW fix-ups run the
        per-stage sparse kernel against resident state."""
        check_delta_mode(name, kind, serial_solutions, False, runners=4)

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_metrics_are_runner_count_independent(self, name):
        """Work rows, superstep labels and communicated bytes are
        planner products; the runner count must not leak into them."""
        with DuplicatingThreadExecutor(max_workers=2, runners=1) as ex:
            one = solve_with(PROBLEMS[name], ex).metrics
        with DuplicatingThreadExecutor(max_workers=2, runners=4) as ex:
            four = solve_with(PROBLEMS[name], ex).metrics
        assert four.num_barriers == one.num_barriers
        assert four.work_by_processor() == one.work_by_processor()
        assert four.bytes_communicated == one.bytes_communicated
        assert [s.label for s in four.supersteps] == [
            s.label for s in one.supersteps
        ]
        assert [s.step for s in four.supersteps] == [
            s.step for s in one.supersteps
        ]


class TestRedelivery:
    """Every superstep delivered twice / out of order: still identical."""

    @pytest.mark.parametrize("kind", ["serial", "pool"])
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_duplicate_delivery_bit_identical(self, name, kind, serial_solutions):
        """The repeat runs in reverse order (LIFO), which a correct
        program must not observe either."""
        with redelivering(kind) as ex:
            got = solve_with(PROBLEMS[name], ex)
            assert ex.repeats > 0
        assert_identical(got, serial_solutions[name])

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_lifo_delivery_bit_identical(self, name, serial_solutions):
        """One runner delivering every superstep in reverse task order
        reorders the specs of a barrier, which a correct program must
        not observe."""
        with DuplicatingThreadExecutor(max_workers=2, runners=1, lifo=True) as ex:
            got = solve_with(PROBLEMS[name], ex)
            assert ex.repeats == 0 and ex.reversals > 0
        assert_identical(got, serial_solutions[name])

    def test_duplicates_and_lifo_combined(self, serial_solutions):
        with DuplicatingThreadExecutor(max_workers=2, runners=3, lifo=True) as ex:
            got = solve_with(PROBLEMS["sw"], ex)
            assert ex.repeats > 0 and ex.reversals > 0
        assert_identical(got, serial_solutions["sw"])

    def test_duplicate_delivery_with_delta_mode_on_pool(self, serial_solutions):
        """Worker-resident §4.7 state is the sharpest idempotency test."""
        check_delta_mode("nw", "pool", serial_solutions, None, runners=2)

    @pytest.mark.parametrize("name", ["lcs", "nw"])
    def test_duplicate_delivery_with_per_stage_sparse_on_pool(
        self, name, serial_solutions
    ):
        """The same with the kernel tier off, so every fix-up repairs
        the resident state through the per-stage sparse kernel."""
        check_delta_mode(name, "pool", serial_solutions, False, runners=2)

    def test_delivery_policy_validates(self):
        """A crew without runners would deliver nothing; the fakes
        refuse it rather than return an empty superstep."""
        for kind in ("serial", "thread"):
            with pytest.raises(ValueError, match="runners"):
                redelivering(kind, runners=0)
        with redelivering("serial", runners=1) as ex:
            assert ex.run_superstep([lambda: 1, lambda: 2]) == [1, 2]
            assert ex.repeats == 0 and ex.reversals == 0
        with redelivering("serial", runners=1, lifo=True) as ex:
            assert ex.run_superstep([lambda: 1, lambda: 2]) == [1, 2]
            assert ex.reversals == 1

    def test_duplicates_visible_to_tracer(self):
        """Each extra delivery runs as its own task and surfaces as its
        own ``compute`` span — never silently."""
        tracer = Tracer()
        with DuplicatingThreadExecutor(max_workers=2, runners=2) as ex:
            solve_with(PROBLEMS["matrix"], ex, tracer=tracer)
            repeats = ex.repeats
        tasks = sum(
            s.attrs["procs"] for s in tracer.spans if s.name == "superstep"
        )
        computes = [s for s in tracer.spans if s.name == "compute"]
        assert tasks >= 1
        assert repeats == tasks
        assert len(computes) == 2 * tasks


class TestRunnerFaultInjection:
    """A pool worker SIGKILLed mid-program while every batch repeats."""

    @pytest.mark.parametrize("seq,worker", [(2, 0), (4, 1)])
    def test_worker_kill_mid_program_recovers(
        self, seq, worker, serial_solutions
    ):
        """Dispatch 2 is the forward pass, dispatch 4 the first fix-up:
        the rebuilt worker replays the recorded slot history and the
        repeat of the killed batch is answered from its reply cache."""
        with redelivering("pool", fault_plan={seq: worker}) as ex:
            got = solve_with(PROBLEMS["matrix"], ex)
            assert ex.recovery_stats.respawns == 1
            assert ex.recovery_stats.retries >= 1
        assert_identical(got, serial_solutions["matrix"])
        assert got.metrics.worker_respawns == 1

    def test_worker_kill_with_duplicates(self, serial_solutions):
        """Crash recovery replays the recorded slot history through the
        same ``_w_run_instr`` path repeats use — both layers of
        idempotency active at once.  Dispatch 3 is the forward pass's
        repeat: the rebuilt worker has no cached reply for it and
        re-executes."""
        with redelivering("pool", fault_plan={3: 0}) as ex:
            got = solve_with(PROBLEMS["matrix"], ex)
            assert ex.recovery_stats.respawns == 1
        assert_identical(got, serial_solutions["matrix"])


class TestTeardownOrdering:
    """Closing mid-program: no deadlock, no leaked workers, clean errors."""

    def test_run_step_after_close_raises(self):
        ex = ThreadExecutor(max_workers=2)
        runtime = LocalRuntime(ex, PROBLEMS["matrix"])
        ranges = partition_stages(PROBLEMS["matrix"].num_stages, 2)
        specs = plan_initial_pass(ranges, ParallelOptions(num_procs=2))
        runtime.run(specs, label="forward")
        ex.close()  # mid-program: runtime.finish() never called
        ex.close()  # idempotent
        with pytest.raises(ExecutorError, match="closed"):
            runtime.run(specs, label="forward")
        runtime.finish()  # still safe after the executor closed

    def test_pool_close_mid_program_no_leaked_workers(self):
        problem = PROBLEMS["matrix"]
        ranges = partition_stages(problem.num_stages, 2)
        ex = PoolProcessExecutor(max_workers=2)
        runtime = PoolRuntime(ex, problem, ranges)
        specs = plan_initial_pass(ranges, ParallelOptions(num_procs=2))
        runtime.run(specs, label="forward")
        pids = set(ex.worker_pids())
        ex.close()
        alive = {p.pid for p in mp.active_children()}
        assert not (pids & alive)
        with pytest.raises(ExecutorError):
            runtime.run(specs, label="forward")


class _MustNotRun(ForwardInitSpec):
    """A spec whose execution fails the test: only the cache may answer."""

    def execute(self, problem, store):
        raise AssertionError("a re-sent seq must not execute again")


class TestReplyCache:
    def test_resent_seq_returns_cached_reply_and_leaves_segments(self):
        problem = PROBLEMS["nw"]
        ranges = partition_stages(problem.num_stages, 2)
        (spec, _) = plan_initial_pass(ranges, ParallelOptions(num_procs=2))
        ns: dict = {}
        _w_reset(ns, "solve", pickle.dumps(problem), [1, 2])
        store = ns["sessions"]["solve"]["states"][1]

        reply = _w_run_instr(ns, "solve", 1, spec)
        assert reply.s_blocks == [] and reply.pred_blocks == []
        assert reply.boundary is not None
        s_held, pred_held = store.s.held(), store.pred.held()

        resent = _MustNotRun(proc=1, lo=spec.lo, hi=spec.hi)
        again = _w_run_instr(ns, "solve", 1, resent)
        assert again is reply
        for now, before in ((store.s.held(), s_held), (store.pred.held(), pred_held)):
            assert len(now) == len(before)
            assert all(a is b for a, b in zip(now, before))


class TestSuperstepNumbering:
    """The program counter fix: numbering is identical traced or not."""

    def test_record_steps_dense_without_tracer(self):
        got = solve_with(PROBLEMS["sw"], get_executor("serial"))
        steps = [r.step for r in got.metrics.supersteps]
        assert steps == list(range(1, len(steps) + 1))

    def test_traced_and_untraced_steps_identical(self):
        """The pre-refactor bug: ``LocalRuntime._step_no`` only advanced
        when tracing was on, so traced and untraced runs disagreed on
        superstep numbers."""
        plain = solve_with(PROBLEMS["sw"], get_executor("serial"))
        tracer = Tracer()
        traced = solve_with(PROBLEMS["sw"], get_executor("serial"), tracer=tracer)
        assert [r.step for r in traced.metrics.supersteps] == [
            r.step for r in plain.metrics.supersteps
        ]

    def test_superstep_spans_agree_with_record_steps(self):
        tracer = Tracer()
        got = solve_with(PROBLEMS["sw"], get_executor("serial"), tracer=tracer)
        span_steps = {
            s.attrs["label"]: s.attrs["superstep"]
            for s in tracer.spans
            if s.name == "superstep"
        }
        for record in got.metrics.supersteps:
            assert span_steps[record.label] == record.step

    def test_crew_path_numbers_match_classic(self):
        with ThreadExecutor(max_workers=2) as ex:
            classic = solve_with(PROBLEMS["matrix"], ex)
        with DuplicatingThreadExecutor(max_workers=2, runners=4) as ex:
            crewed = solve_with(PROBLEMS["matrix"], ex)
        assert [r.step for r in crewed.metrics.supersteps] == [
            r.step for r in classic.metrics.supersteps
        ]


class TestProgramCompile:
    """Seqs, steps, the recorded set and the per-slot journal."""

    def test_supersteps_number_seqs_and_steps(self):
        from repro.ltdp.engine.specs import ForwardFixupSpec

        program = InstructionProgram()
        ranges = partition_stages(60, 3)
        opts = ParallelOptions(num_procs=3)
        step, init = program.add_superstep(plan_initial_pass(ranges, opts))
        assert step == 1
        assert [i.seq for i in init] == [1, 2, 3]
        assert [i.slot for i in init] == [1, 2, 3]

        fixups = [
            ForwardFixupSpec(
                proc=rg.proc,
                lo=rg.lo,
                hi=rg.hi,
                boundary=np.zeros(4),
                tol=0.0,
            )
            for rg in ranges[1:]
        ]
        step, instrs = program.add_superstep(fixups)
        assert step == 2 and program.step_no == 2
        assert [i.seq for i in instrs] == [4, 5]
        assert [i.slot for i in instrs] == [2, 3]

    def test_record_result_first_wins(self):
        program = InstructionProgram()
        _, (instr,) = program.add_superstep(
            plan_initial_pass(partition_stages(40, 1), ParallelOptions(num_procs=1))
        )
        assert not program.is_recorded(instr.seq)
        assert program.record(instr.seq)
        assert not program.record(instr.seq)
        assert program.is_recorded(instr.seq)

    def test_install_journalled_without_dataflow_registration(self):
        program = InstructionProgram()
        ranges = partition_stages(60, 2)
        program.add_superstep(plan_initial_pass(ranges, ParallelOptions(num_procs=2)))
        install = program.add_install(1, {"payload": True})
        assert install.op == "pred-install"
        assert install.seq == 3
        assert [i.seq for i in program.slot_history(1)] == [1, 3]
        assert [i.seq for i in program.slot_history(2)] == [2]
        assert not program.is_recorded(install.seq)
