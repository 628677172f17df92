"""Typed executor capabilities: loud probes instead of silent getattr.

The bug these tests pin down: fast-path selection used
``getattr(executor, "supports_resident_state", False)``, so a typoed
capability name read as "unsupported" and silently disabled the fast
path.  With :class:`ExecutorCapabilities` the set of names is closed
and probing an undeclared name raises — these tests fail on the old
getattr-based probing (no ``capability`` API, no error on typos).
"""

import pytest

from repro.exceptions import ExecutorError
from repro.machine.executor import (
    CAPABILITY_NAMES,
    ExecutorCapabilities,
    SerialExecutor,
    ThreadExecutor,
    executor_capability,
    get_executor,
)


class TestCapabilityProbe:
    def test_unknown_capability_name_raises(self):
        # The exact failure mode of the old code: a typo silently read
        # as False.  Now it is a loud error naming the declared set.
        with pytest.raises(ExecutorError, match="unknown executor capability"):
            executor_capability(SerialExecutor(), "supports_resident_státe")

    def test_legacy_attribute_name_is_not_a_capability(self):
        # "supports_resident_state" was the attribute name, not the
        # capability name — probing it must raise, not return False.
        with pytest.raises(ExecutorError, match="unknown executor capability"):
            SerialExecutor().capability("supports_resident_state")

    def test_undeclared_executor_raises(self):
        class Bare:
            pass

        with pytest.raises(ExecutorError, match="ExecutorCapabilities"):
            executor_capability(Bare(), "resident_state")

    def test_declared_names_are_closed_and_typed(self):
        assert "resident_state" in CAPABILITY_NAMES
        caps = ExecutorCapabilities()
        for name in CAPABILITY_NAMES:
            assert isinstance(getattr(caps, name), bool)


class TestExecutorDeclarations:
    def test_serial_and_thread_are_not_resident(self):
        for ex in (SerialExecutor(), ThreadExecutor(max_workers=1)):
            try:
                assert ex.capability("resident_state") is False
            finally:
                ex.close()

    def test_pool_declares_resident_state_and_block_kernels(self):
        pool = get_executor("pool", max_workers=2)
        try:
            assert pool.capability("resident_state") is True
        finally:
            pool.close()


class TestCallSiteMigration:
    def test_service_rejects_undeclared_executor_loudly(self):
        from repro.serve.service import LTDPService

        class Bare:
            supports_resident_state = True  # old duck-typing, now ignored

        with pytest.raises(ExecutorError, match="ExecutorCapabilities"):
            LTDPService(executor=Bare())

    def test_driver_routes_on_declared_capability(self):
        from repro.ltdp.engine.driver import _make_runtime
        from repro.ltdp.engine.runtime import LocalRuntime
        from repro.ltdp.partition import partition_stages
        from repro.problems.alignment.lcs import LCSProblem

        problem = LCSProblem([1, 2, 3], [1, 3, 2], width=4)
        ranges = partition_stages(problem.num_stages, 2)
        ex = SerialExecutor()
        runtime = _make_runtime(ex, problem, ranges)
        try:
            assert isinstance(runtime, LocalRuntime)
        finally:
            runtime.finish()
            ex.close()
