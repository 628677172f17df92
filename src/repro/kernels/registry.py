"""Kernel registration, plan caching, and the per-dispatch identity gate.

Kernels register per *concrete* problem class; a subclass match is not
a match (an overridden stage method would invalidate the preplanned
layout).  Plans are cached per process by the kernel's content
fingerprint — problems are re-pickled into every pool worker, so
identity-keyed caching would never hit.

Every accepted dispatch is re-proven: :func:`block_sweep` recomputes
the first block stage, and the last kernel-computed stage from the
sweep's own previous stage, with the problem's own dense per-stage
kernel and compares values byte-for-byte (catching even ``-0.0`` sign
flips), predecessors exactly, and — when §4.7 capture is on — every
captured state plane.  Any disagreement silently discards the sweep
and the caller runs the dense loop, which also owns raising proper
errors for genuinely invalid inputs.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np

from repro.exceptions import KernelRegistrationError
from repro.kernels.base import BlockSweep, StageBlockKernel
from repro.machine.executor import executor_capability

__all__ = [
    "block_sweep",
    "kernel_tier_enabled",
    "price_path_fast",
    "register_kernel",
    "registered_kernels",
    "reset_plan_cache",
    "warm_kernels",
]

#: Exact problem type -> ordered tuple of kernels (first eligible wins).
_KERNELS: dict[type, tuple[StageBlockKernel, ...]] = {}

#: (kernel name, fingerprint) -> plan, or _INELIGIBLE when plan() said no.
_PLAN_CACHE: OrderedDict = OrderedDict()
_PLAN_CACHE_MAX = 32
_INELIGIBLE = object()

#: REPRO_KERNELS values that disable the tier (auto mode only).
_DISABLE_VALUES = frozenset({"0", "off", "false", "no"})


def register_kernel(problem_type: type, kernel: StageBlockKernel) -> None:
    if not isinstance(kernel.bit_identity_gate, str) or not kernel.bit_identity_gate.strip():
        raise KernelRegistrationError(
            f"kernel {type(kernel).__name__!r} declares no bit_identity_gate; "
            "every registered fast-path kernel must document the conditions "
            "under which it may replace the dense per-stage path (REP006)"
        )
    if not kernel.name:
        raise KernelRegistrationError(
            f"kernel {type(kernel).__name__!r} has no name (plan-cache key)"
        )
    _KERNELS[problem_type] = _KERNELS.get(problem_type, ()) + (kernel,)


def registered_kernels(problem_type: type) -> tuple[StageBlockKernel, ...]:
    """Kernels for the *exact* type (no subclass lookup, by design)."""
    return _KERNELS.get(problem_type, ())


def reset_plan_cache() -> None:
    _PLAN_CACHE.clear()


def _plan_for(kernel: StageBlockKernel, problem):
    key = (kernel.name, kernel.fingerprint(problem))
    if key in _PLAN_CACHE:
        _PLAN_CACHE.move_to_end(key)
        plan = _PLAN_CACHE[key]
    else:
        plan = kernel.plan(problem)
        if plan is None:
            plan = _INELIGIBLE
        _PLAN_CACHE[key] = plan
        if len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
    return None if plan is _INELIGIBLE else plan


def warm_kernels(problem) -> int:
    """Pre-build plans for ``problem`` (pool worker bind); returns count."""
    built = 0
    for kernel in registered_kernels(type(problem)):
        if _plan_for(kernel, problem) is not None:
            built += 1
    return built


def _stage_matches(problem, i, v, sweep, r, capture_state) -> bool:
    """Re-derive stage ``i`` (sweep row ``r``) densely from input ``v``."""
    try:
        if capture_state:
            dv, dp, ds = problem.apply_stage_with_state(i, v)
        else:
            dv, dp = problem.apply_stage_with_pred(i, v)
            ds = None
    except Exception:
        return False  # dense path owns raising this properly, in context
    kv = np.asarray(sweep.values[r])
    kp = np.asarray(sweep.preds[r])
    if kv.shape != dv.shape or kv.tobytes() != dv.tobytes():
        return False
    if not np.array_equal(kp, dp):
        return False
    if capture_state:
        if sweep.states is None or len(sweep.states) <= r:
            return False
        if not _states_equal(sweep.states[r], ds):
            return False
    return True


def _sweep_matches(problem, lo, v, sweep, capture_state) -> bool:
    """The dispatch gate: first and last kernel-computed stages."""
    if not _stage_matches(problem, lo + 1, v, sweep, 0, capture_state):
        return False
    last = len(sweep.values) - 1 - sweep.dense_tail
    if last < 1:
        return True
    return _stage_matches(
        problem, lo + 1 + last, sweep.values[last - 1], sweep, last, capture_state
    )


def _states_equal(kernel_state, dense_state) -> bool:
    """Field-wise byte comparison; sentinel states compare by equality."""
    if not hasattr(dense_state, "__dataclass_fields__"):
        return kernel_state == dense_state
    if type(kernel_state) is not type(dense_state):
        return False
    for field in dense_state.__dataclass_fields__:
        da = getattr(dense_state, field)
        ka = getattr(kernel_state, field)
        if isinstance(da, np.ndarray):
            if np.shape(ka) != da.shape:
                return False
            if np.ascontiguousarray(ka).tobytes() != np.ascontiguousarray(da).tobytes():
                return False
        elif ka != da:
            return False
    return True


def block_sweep(problem, lo: int, hi: int, v, *, capture_state: bool = False) -> BlockSweep | None:
    """One fast-path dispatch over stages ``lo+1 .. hi``, or ``None``.

    Tries each registered kernel in order; a sweep is returned only
    after its first and last kernel-computed stages have been re-derived
    densely (the last from the sweep's own previous stage) and matched
    bit-for-bit.
    """
    for kernel in registered_kernels(type(problem)):
        plan = _plan_for(kernel, problem)
        if plan is None:
            continue
        try:
            sweep = kernel.run(problem, plan, lo, hi, v, capture_state=capture_state)
        except Exception:
            sweep = None
        if sweep is None or not sweep.values:
            continue
        if _sweep_matches(problem, lo, v, sweep, capture_state):
            return sweep
    return None


def price_path_fast(problem, path) -> float | None:
    """Vectorized exact path pricing via any planned kernel, or ``None``."""
    path = np.asarray(path)
    for kernel in registered_kernels(type(problem)):
        plan = _plan_for(kernel, problem)
        if plan is None:
            continue
        try:
            price = kernel.price(problem, plan, path)
        except Exception:
            price = None
        if price is not None:
            return price
    return None


def kernel_tier_enabled(opts, problem) -> bool:
    """Gate mirroring the PR 5 sparse fix-up kernel's selection shape.

    ``opts.use_kernels`` is a tri-state: ``False`` forces the dense
    path, ``True`` forces the tier on (overriding the ``REPRO_KERNELS``
    environment switch), ``None`` (auto) enables it whenever the
    executor declares the ``block_kernels`` capability and a kernel is
    registered for the problem's exact type.
    """
    use = getattr(opts, "use_kernels", None)
    if use is False:
        return False
    if use is not True:
        if os.environ.get("REPRO_KERNELS", "").strip().lower() in _DISABLE_VALUES:
            return False
    if not executor_capability(opts.executor, "block_kernels"):
        return False
    return bool(registered_kernels(type(problem)))
