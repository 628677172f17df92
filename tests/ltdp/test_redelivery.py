"""Redelivery contract: instruction programs are idempotent under faults.

The runner layer's promise (numpywren's ``FailureTests`` contract): a
solve driven by N concurrent runners pulling instructions from the
shared work queue is bit-identical to the serial executor — including
when every instruction is delivered *twice*, when ready instructions
are delivered in LIFO order wherever the dependency DAG allows it, and
when a pool worker is SIGKILLed mid-program.  Metrics stay a property
of the *plan*: work rows and communicated bytes must not notice the
runner count.

Also pins the teardown ordering satellite (closing an executor
mid-program drains the runner crew first, without deadlock or leaked
workers) and the superstep-numbering fix (the program counter advances
identically whether or not tracing is on).
"""

import multiprocessing as mp
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ExecutorError
from repro.ltdp.engine.forward import plan_initial_pass
from repro.ltdp.engine.program import InstructionProgram
from repro.ltdp.engine.runner import DeliveryPolicy, RunnerCrew
from repro.ltdp.matrix_problem import random_matrix_problem
from repro.ltdp.parallel import ParallelOptions, solve_parallel
from repro.ltdp.partition import partition_stages
from repro.machine.executor import ThreadExecutor, get_executor
from repro.machine.pool import PoolProcessExecutor
from repro.machine.trace import Tracer
from repro.problems.alignment.lcs import LCSProblem
from repro.problems.alignment.needleman_wunsch import NeedlemanWunschProblem
from repro.problems.alignment.smith_waterman import SmithWatermanProblem

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
    np.testing.assert_array_equal(got.path, base.path)
    assert got.score == base.score
    assert got.objective_stage == base.objective_stage
    assert got.objective_cell == base.objective_cell
    m, b = got.metrics, base.metrics
    assert m.forward_fixup_iterations == b.forward_fixup_iterations
    assert m.backward_fixup_iterations == b.backward_fixup_iterations
    assert m.fixup_stages == b.fixup_stages


class TestMultiRunnerBitIdentity:
    """runners=4 must be invisible in every result, on every runtime."""

    @pytest.mark.parametrize("kind", ["serial", "thread", "process", "pool"])
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_four_runners_bit_identical(self, name, kind, serial_solutions):
        ex = get_executor(kind, max_workers=2)
        try:
            got = solve_with(PROBLEMS[name], ex, runners=4)
        finally:
            ex.close()
        assert_identical(got, serial_solutions[name])

    @pytest.mark.parametrize("kind", ["serial", "pool"])
    @pytest.mark.parametrize("name", ["lcs", "nw", "matrix", "sw"])
    def test_four_runners_delta_mode(self, name, kind, serial_solutions):
        """§4.7 delta mode composes with concurrent runners: sparse
        boundary diffs are snapshotted into the specs at compile time,
        so runner scheduling cannot perturb them."""
        self._check_delta_mode(name, kind, serial_solutions, None)

    @pytest.mark.parametrize("kind", ["serial", "pool"])
    @pytest.mark.parametrize("name", ["lcs", "nw"])
    def test_four_runners_delta_mode_per_stage_sparse(
        self, name, kind, serial_solutions
    ):
        """The same with the kernel tier off: LCS / NW fix-ups run the
        per-stage sparse kernel against resident state."""
        self._check_delta_mode(name, kind, serial_solutions, False)

    @staticmethod
    def _check_delta_mode(name, kind, serial_solutions, use_kernels):
        ex = get_executor(kind, max_workers=2)
        try:
            got = solve_with(
                PROBLEMS[name],
                ex,
                runners=4,
                use_delta=True,
                use_kernels=use_kernels,
            )
        finally:
            ex.close()
        base = serial_solutions[name]
        np.testing.assert_array_equal(got.path, base.path)
        assert got.score == base.score

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_metrics_are_runner_count_independent(self, name):
        """Work rows, superstep labels and communicated bytes are
        planner products; the runner count must not leak into them."""
        with ThreadExecutor(max_workers=2) as ex:
            one = solve_with(PROBLEMS[name], ex, runners=1).metrics
            four = solve_with(PROBLEMS[name], ex, runners=4).metrics
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
    """Every instruction delivered twice / out of order: still identical."""

    @pytest.mark.parametrize("kind", ["serial", "pool"])
    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_duplicate_delivery_bit_identical(self, name, kind, serial_solutions):
        ex = get_executor(kind, max_workers=2)
        try:
            got = solve_with(
                PROBLEMS[name],
                ex,
                runners=2,
                delivery=DeliveryPolicy(duplicates=2),
            )
        finally:
            ex.close()
        assert_identical(got, serial_solutions[name])

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_lifo_delivery_bit_identical(self, name, serial_solutions):
        """Reversing ready-queue order reorders instructions wherever
        the dependency DAG allows — which a correct program must not
        observe."""
        with ThreadExecutor(max_workers=2) as ex:
            got = solve_with(
                PROBLEMS[name],
                ex,
                runners=4,
                delivery=DeliveryPolicy(order="lifo"),
            )
        assert_identical(got, serial_solutions[name])

    def test_duplicates_and_lifo_combined(self, serial_solutions):
        with ThreadExecutor(max_workers=2) as ex:
            got = solve_with(
                PROBLEMS["sw"],
                ex,
                runners=3,
                delivery=DeliveryPolicy(duplicates=2, order="lifo"),
            )
        assert_identical(got, serial_solutions["sw"])

    def test_duplicate_delivery_with_delta_mode_on_pool(self, serial_solutions):
        """Worker-resident §4.7 state is the sharpest idempotency test:
        a double-applied sparse fix-up would corrupt the resident stage
        vectors, so the worker's per-seq reply cache must absorb the
        second delivery."""
        self._check_duplicate_delta(serial_solutions, None)

    @pytest.mark.parametrize("name", ["lcs", "nw"])
    def test_duplicate_delivery_with_per_stage_sparse_on_pool(
        self, name, serial_solutions
    ):
        """The same with the kernel tier off, so every fix-up repairs
        the resident state through the per-stage sparse kernel."""
        self._check_duplicate_delta(serial_solutions, False, name)

    @staticmethod
    def _check_duplicate_delta(serial_solutions, use_kernels, name="nw"):
        with PoolProcessExecutor(max_workers=2) as ex:
            got = solve_with(
                PROBLEMS[name],
                ex,
                runners=2,
                use_delta=True,
                use_kernels=use_kernels,
                delivery=DeliveryPolicy(duplicates=2),
            )
        base = serial_solutions[name]
        np.testing.assert_array_equal(got.path, base.path)
        assert got.score == base.score

    def test_delivery_policy_validates(self):
        with pytest.raises(ValueError, match="duplicates"):
            DeliveryPolicy(duplicates=0)
        assert DeliveryPolicy().is_default
        assert not DeliveryPolicy(duplicates=2).is_default
        assert not DeliveryPolicy(order="lifo").is_default

    def test_duplicates_visible_to_tracer(self):
        """Each extra delivery surfaces as either an ``instr-duplicate``
        event (already recorded) or a ``program.instr`` span flagged
        ``duplicate`` (lost the record race) — never silently."""
        tracer = Tracer()
        with ThreadExecutor(max_workers=2) as ex:
            solve_with(
                PROBLEMS["matrix"],
                ex,
                runners=2,
                tracer=tracer,
                delivery=DeliveryPolicy(duplicates=2),
            )
        pulls = [s for s in tracer.spans if s.name == "runner.pull"]
        firsts = [
            s
            for s in tracer.spans
            if s.name == "program.instr" and not s.attrs.get("duplicate")
        ]
        dupes = len(
            [s for s in tracer.spans if s.name == "program.instr" and s.attrs.get("duplicate")]
        ) + len([e for e in tracer.events if e.name == "instr-duplicate"])
        assert len(firsts) >= 1
        assert dupes >= 1
        assert len(pulls) == len(firsts) + dupes
        assert len(pulls) == 2 * len(firsts)


class TestRunnerFaultInjection:
    """A pool worker SIGKILLed mid-program under concurrent runners."""

    @pytest.mark.parametrize("seq,worker", [(2, 0), (4, 1)])
    def test_worker_kill_mid_program_recovers(
        self, seq, worker, serial_solutions
    ):
        """With a crew, every instruction is its own dispatch, so a
        fault-plan seq lands on whichever instruction drew that dispatch
        number — the recovery contract must hold regardless."""
        with PoolProcessExecutor(
            max_workers=2, fault_plan={seq: worker}
        ) as ex:
            got = solve_with(PROBLEMS["matrix"], ex, runners=4)
            assert ex.recovery_stats.respawns == 1
            assert ex.recovery_stats.retries >= 1
        assert_identical(got, serial_solutions["matrix"])
        assert got.metrics.worker_respawns == 1

    def test_worker_kill_with_duplicates(self, serial_solutions):
        """Crash recovery replays the recorded slot history through the
        same ``_w_run_instr`` path duplicates use — both layers of
        idempotency active at once."""
        with PoolProcessExecutor(max_workers=2, fault_plan={3: 0}) as ex:
            got = solve_with(
                PROBLEMS["matrix"],
                ex,
                runners=2,
                delivery=DeliveryPolicy(duplicates=2),
            )
            assert ex.recovery_stats.respawns == 1
        assert_identical(got, serial_solutions["matrix"])


class TestTeardownOrdering:
    """Closing mid-program must drain runners first: no deadlock, no leaks."""

    def test_crew_close_unblocks_run_step(self):
        program = InstructionProgram()
        release = threading.Event()

        def slow_execute(instr):
            release.wait(timeout=10.0)
            return None

        crew = RunnerCrew(2, slow_execute, program)
        _, instrs = program.add_superstep(
            plan_initial_pass(
                partition_stages(40, 2), ParallelOptions(num_procs=2)
            ),
            label="forward",
        )
        errors = []

        def drive():
            try:
                crew.run_step(instrs)
            except ExecutorError as exc:
                errors.append(exc)

        t = threading.Thread(target=drive)
        t.start()
        time.sleep(0.05)  # let runners pull and block in slow_execute
        closer = threading.Thread(target=crew.close)
        closer.start()
        release.set()  # in-flight instructions finish; queued ones drop
        closer.join(timeout=10.0)
        t.join(timeout=10.0)
        assert not closer.is_alive() and not t.is_alive()
        assert crew.closed

    def test_run_step_after_close_raises(self):
        program = InstructionProgram()
        crew = RunnerCrew(1, lambda instr: None, program)
        crew.close()
        crew.close()  # idempotent
        _, instrs = program.add_superstep(
            plan_initial_pass(
                partition_stages(40, 2), ParallelOptions(num_procs=2)
            ),
            label="forward",
        )
        with pytest.raises(ExecutorError, match="closed"):
            crew.run_step(instrs)

    def test_thread_executor_close_drains_crew_via_hook(self):
        """The crew registers its close as an executor teardown hook, so
        an executor closed mid-program (PR 2's finalize path) abandons
        the queue before the transport disappears."""
        from repro.ltdp.engine.runtime import LocalRuntime

        ex = ThreadExecutor(max_workers=2)
        runtime = LocalRuntime(ex, PROBLEMS["matrix"], runners=2)
        ranges = partition_stages(PROBLEMS["matrix"].num_stages, 2)
        specs = plan_initial_pass(ranges, ParallelOptions(num_procs=2))
        runtime.run(specs, label="forward")
        ex.close()  # mid-program: runtime.finish() never called
        assert runtime._crew.closed
        with pytest.raises(ExecutorError, match="closed"):
            runtime.run(specs, label="forward")
        runtime.finish()  # still safe after the hook already closed it

    def test_pool_close_mid_program_no_leaked_workers(self):
        """Satellite (f): closing the pool mid-program neither deadlocks
        (the crew's teardown hook runs first) nor leaks workers."""
        from repro.ltdp.engine.poolrt import PoolRuntime

        problem = PROBLEMS["matrix"]
        ranges = partition_stages(problem.num_stages, 2)
        ex = PoolProcessExecutor(max_workers=2)
        runtime = PoolRuntime(ex, problem, ranges, runners=2)
        specs = plan_initial_pass(ranges, ParallelOptions(num_procs=2))
        runtime.run(specs, label="forward")
        pids = set(ex.worker_pids())
        ex.close()
        assert runtime._crew.closed
        alive = {p.pid for p in mp.active_children()}
        assert not (pids & alive)
        with pytest.raises(ExecutorError):
            runtime.run(specs, label="forward")

    def test_finish_unregisters_hook_and_close_stays_clean(self):
        """The normal path: finish() closes the crew and unregisters its
        hook, so a later executor close has nothing crew-shaped to do."""
        with ThreadExecutor(max_workers=2) as ex:
            got = solve_with(PROBLEMS["matrix"], ex, runners=4)
            assert not getattr(ex, "_teardown_hooks", [])
        assert got.path is not None


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
            classic = solve_with(PROBLEMS["matrix"], ex, runners=1)
            crewed = solve_with(PROBLEMS["matrix"], ex, runners=4)
        assert [r.step for r in crewed.metrics.supersteps] == [
            r.step for r in classic.metrics.supersteps
        ]

    def test_serial_backward_fallback_records_step_zero(self):
        got = solve_with(
            PROBLEMS["matrix"], get_executor("serial"), parallel_backward=False
        )
        assert got.metrics.supersteps[-1].label == "backward"
        assert got.metrics.supersteps[-1].step == 0
        assert all(r.step > 0 for r in got.metrics.supersteps[:-1])


class TestProgramCompile:
    """Instruction dataflow: the fix-up DAG made explicit."""

    def test_forward_program_dependency_edges(self):
        from repro.ltdp.engine.specs import ForwardFixupSpec

        program = InstructionProgram()
        ranges = partition_stages(60, 3)
        opts = ParallelOptions(num_procs=3)
        step, init = program.add_superstep(
            plan_initial_pass(ranges, opts), label="forward"
        )
        assert step == 1
        assert [i.seq for i in init] == [1, 2, 3]
        assert all(i.deps == () for i in init)

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
        step, instrs = program.add_superstep(fixups, label="fixup[1]")
        assert step == 2
        for instr in instrs:
            p = instr.slot
            # Reads its left neighbour's boundary and its own state; both
            # were last written in the initial pass (seqs p-1 and p).
            assert f"bnd:{p - 1}" in instr.reads
            assert set(instr.deps) == {p - 1, p}

    def test_record_result_first_wins(self):
        program = InstructionProgram()
        _, (instr,) = program.add_superstep(
            plan_initial_pass(
                partition_stages(40, 1), ParallelOptions(num_procs=1)
            ),
            label="forward",
        )
        assert program.record_result(instr.seq, "first")
        assert not program.record_result(instr.seq, "second")
        assert program.result(instr.seq) == "first"
        assert program.is_recorded(instr.seq)

    def test_install_journalled_without_dataflow_registration(self):
        program = InstructionProgram()
        ranges = partition_stages(60, 2)
        program.add_superstep(
            plan_initial_pass(ranges, ParallelOptions(num_procs=2)),
            label="forward",
        )
        install = program.add_install(1, {"payload": True})
        assert install.op == "pred-install"
        assert install.deps == ()
        assert install in program.slot_history(1)
        # A later reader of pred:1 must NOT depend on the install seq —
        # installs are driver-barriered, never queue-released.
        from repro.ltdp.engine.specs import BackwardInitSpec

        _, (instr,) = program.add_superstep(
            [BackwardInitSpec(proc=1, lo=0, hi=30, start_index=0)],
            label="backward",
        )
        assert install.seq not in instr.deps
