"""The repo-specific rules behind ``repro lint`` (REP001–REP009).

Each rule enforces a convention the runtime can only check late (or not
at all): the tropical-zero constant, identity-safe reductions, worker
determinism, canonical phase/label vocabulary, the executor error
contract, kernel gate declarations, and — the concurrency tier —
guarded-by discipline, lock-order acyclicity and no-blocking-under-lock
for the engine/pool/serve layers.  Canonical vocabularies are imported
from the modules that own them (:mod:`repro.machine.metrics`,
:mod:`repro.exceptions`) so the linter can never drift from the runtime.
"""

from __future__ import annotations

import ast
import inspect
from typing import Iterable

from repro import exceptions as _exceptions
from repro.exceptions import ExecutorError
from repro.lint.callgraph import CallGraph, ModuleInfo, build_call_graph
from repro.lint.core import (
    FileContext,
    Finding,
    ProjectContext,
    Rule,
    TextEdit,
    dotted_name,
)
from repro.lint.locks import (
    ROLE_STATE,
    build_class_models,
    build_project_model,
    site_block_reason,
)
from repro.machine.metrics import (
    KNOWN_LABEL_PREFIXES,
    RECORD_PHASES,
    TRACE_PHASES,
    TRACE_SPAN_NAMES,
)

__all__ = [
    "TropicalZeroLiteralRule",
    "IdentityUnsafeReductionRule",
    "WorkerDeterminismRule",
    "PhaseDisciplineRule",
    "ExecutorContractRule",
    "KernelGateDeclarationRule",
    "GuardedByDisciplineRule",
    "LockOrderRule",
    "BlockingUnderLockRule",
    "default_rules",
]

_NEG_INF_IMPORT = "repro.semiring.tropical:NEG_INF"


def _is_neg_inf_string(value: object) -> bool:
    return isinstance(value, str) and value.strip().lower() in ("-inf", "-infinity")


def _is_inf_string(value: object) -> bool:
    return isinstance(value, str) and value.strip().lower() in ("inf", "infinity")


def _is_float_call(node: ast.AST, predicate) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        and len(node.args) == 1
        and not node.keywords
        and isinstance(node.args[0], ast.Constant)
        and predicate(node.args[0].value)
    )


def _is_inf_attribute(node: ast.AST) -> bool:
    """``math.inf`` / ``np.inf`` / ``numpy.inf`` (any alias named like those)."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("inf", "infty")
        and isinstance(node.value, ast.Name)
        and node.value.id in ("math", "np", "numpy")
    )


class TropicalZeroLiteralRule(Rule):
    """REP001: the tropical zero is spelled ``NEG_INF``, nowhere else.

    Raw ``float("-inf")`` / ``-math.inf`` / ``-np.inf`` literals outside
    :mod:`repro.semiring` fork the definition of 0̄; if the semiring
    package ever hardens the representation (e.g. validation, a typed
    wrapper), stray literals silently opt out.  Autofixable: the literal
    becomes ``NEG_INF`` and the import is added.
    """

    code = "REP001"
    name = "raw-tropical-zero"
    summary = (
        "raw -inf literal outside repro/semiring/; use "
        "repro.semiring.tropical.NEG_INF"
    )

    def applies_to(self, relpath: str) -> bool:
        return not relpath.startswith("repro/semiring/")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        flagged: set[ast.AST] = set()
        for node in ast.walk(ctx.tree):
            target: ast.AST | None = None
            if _is_float_call(node, _is_neg_inf_string):
                target = node
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                if _is_inf_attribute(node.operand) or _is_float_call(
                    node.operand, _is_inf_string
                ):
                    target = node
                    flagged.add(node.operand)
            if target is None or target in flagged:
                continue
            fix = None
            if (
                getattr(target, "end_lineno", None) == target.lineno
                and getattr(target, "end_col_offset", None) is not None
            ):
                fix = TextEdit(
                    line=target.lineno,
                    col=target.col_offset,
                    end_line=target.end_lineno,
                    end_col=target.end_col_offset,
                    replacement="NEG_INF",
                    requires_import=_NEG_INF_IMPORT,
                )
            yield ctx.finding(
                self,
                target,
                "raw tropical-zero literal; use NEG_INF from "
                "repro.semiring.tropical so 0̄ has a single definition",
                fix=fix,
            )


class IdentityUnsafeReductionRule(Rule):
    """REP002: tropical reductions need an explicit identity.

    ``max(xs)`` raises on an empty sequence and ``np.maximum.reduce(xs)``
    raises without an ``initial``; in tropical kernels the correct empty
    reduction is the identity 0̄ = ``NEG_INF``.  Reductions over
    iterables whose emptiness the linter cannot rule out must pass
    ``default=NEG_INF`` / ``initial=NEG_INF`` (or carry a reasoned
    suppression).  Comprehensions directly over ``range(...)`` are
    exempt: stage-index ranges are non-empty by the LTDP problem
    contract (``num_stages >= 1``).
    """

    code = "REP002"
    name = "identity-unsafe-reduction"
    summary = (
        "max()/np.maximum.reduce over a possibly-empty sequence without "
        "an explicit NEG_INF identity"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(("repro/ltdp/", "repro/semiring/"))

    @staticmethod
    def _is_range_comprehension(node: ast.AST) -> bool:
        if not isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            return False
        return all(
            isinstance(gen.iter, ast.Call)
            and isinstance(gen.iter.func, ast.Name)
            and gen.iter.func.id == "range"
            for gen in node.generators
        )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            kwargs = {kw.arg for kw in node.keywords if kw.arg}
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "max"
                and len(node.args) == 1
                and "default" not in kwargs
                and not self._is_range_comprehension(node.args[0])
            ):
                yield ctx.finding(
                    self,
                    node,
                    "max() over a possibly-empty sequence has no tropical "
                    "identity; pass default=NEG_INF (empty tropical "
                    "reductions must yield 0̄, not raise)",
                )
                continue
            chain = dotted_name(node.func)
            if (
                chain is not None
                and len(chain) == 3
                and chain[0] in ("np", "numpy")
                and chain[1:] == ["maximum", "reduce"]
                and "initial" not in kwargs
            ):
                yield ctx.finding(
                    self,
                    node,
                    "np.maximum.reduce without initial= raises on empty "
                    "input; pass initial=NEG_INF so the reduction has the "
                    "tropical identity",
                )


#: ``(module dotted-name suffix, bare-name predicate)`` pairs naming the
#: entry points that run inside pool worker processes.
_DEFAULT_WORKER_ROOTS = (
    ("machine.pool", lambda name: name == "_pool_worker_main"),
    ("engine.poolrt", lambda name: name.startswith("_w_")),
)

#: ``time`` attributes that are fine in worker code (trace stamps).
_ALLOWED_CLOCKS = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
    }
)
_SEEDED_RNG_ENTRYPOINTS = frozenset({"default_rng", "Generator", "SeedSequence"})
_ENV_MUTATORS = frozenset(
    {"update", "setdefault", "pop", "popitem", "clear", "__setitem__"}
)


class WorkerDeterminismRule(Rule):
    """REP003: pool-worker-reachable code must be deterministic.

    Superstep replay (crash recovery, PR 2) rebuilds a dead worker's
    resident state by re-executing its journalled supersteps and relies
    on every replayed call being bit-identical.  This rule computes
    reachability from the worker loop (``machine/pool.py``), the
    worker-side runtime hooks (``ltdp/engine/poolrt.py`` ``_w_*``) and
    every ``threading.Thread(target=...)`` spawn target (the serve
    batcher — tracked by the call graph) over the project
    call graph and flags nondeterminism sources in reachable code: the stdlib ``random`` module, wall-clock reads (``time.time``,
    ``datetime.now``), unseeded NumPy RNGs / the legacy global NumPy
    RNG, environment mutation, and module-global writes.
    ``time.perf_counter`` (trace stamps) is allowlisted.
    """

    code = "REP003"
    name = "worker-determinism"
    summary = (
        "nondeterminism (random/wall-clock/env/global writes) in code "
        "reachable from pool workers"
    )
    project_wide = True

    def __init__(self, roots=_DEFAULT_WORKER_ROOTS) -> None:
        self.roots = tuple(roots)

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        graph = build_call_graph(project)
        root_keys: set[str] = set()
        for suffix, predicate in self.roots:
            root_keys |= graph.units_matching(
                module_suffix=suffix, name_predicate=predicate
            )
        # Thread spawn targets (the serve batcher) are
        # entry points of concurrent execution just like worker mains:
        # replay determinism must hold along everything they reach.
        root_keys |= graph.thread_roots
        for key in sorted(graph.reachable_from(root_keys)):
            unit = graph.units[key]
            info = graph.modules[unit.module]
            ctx = project.by_relpath(unit.relpath)
            if ctx is None:  # pragma: no cover - units come from project files
                continue
            yield from self._check_unit(ctx, unit, info)

    # -- per-unit checks ------------------------------------------------
    def _check_unit(self, ctx, unit, info: ModuleInfo) -> Iterable[Finding]:
        global_names: set[str] = set()
        for node in ast.walk(unit.node):
            if isinstance(node, ast.Global):
                global_names.update(node.names)
        for node in ast.walk(unit.node):
            if isinstance(node, ast.Call):
                reason = self._call_reason(node, info)
                if reason:
                    yield self._finding(ctx, node, unit, reason)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                yield from self._check_store(ctx, node, unit, info, global_names)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if self._is_environ_subscript(target, info):
                        yield self._finding(
                            ctx, node, unit, "deletes an os.environ entry"
                        )

    def _finding(self, ctx, node, unit, reason: str) -> Finding:
        return ctx.finding(
            self,
            node,
            f"{reason} in `{unit.qualname}`, which is reachable from the "
            "pool worker entry points; worker-resident code must be "
            "deterministic for superstep replay to stay bit-identical",
        )

    def _canonical(self, chain: list[str], info: ModuleInfo) -> str | None:
        head = chain[0]
        if head in info.aliases:
            return ".".join([info.aliases[head], *chain[1:]])
        if head in info.from_imports:
            mod, orig = info.from_imports[head]
            return ".".join([f"{mod}.{orig}", *chain[1:]])
        return None

    def _call_reason(self, node: ast.Call, info: ModuleInfo) -> str | None:
        if isinstance(node.func, ast.Name):
            chain = [node.func.id]
        else:
            chain = dotted_name(node.func)
        if chain is None:
            return None
        canonical = self._canonical(chain, info)
        if canonical is None:
            return None
        parts = canonical.split(".")
        if parts[0] == "random":
            return f"calls `{canonical}` (process-global stdlib RNG)"
        if canonical in ("time.time", "time.time_ns"):
            return f"reads the wall clock via `{canonical}`"
        if parts[0] == "time" and len(parts) == 2 and canonical not in _ALLOWED_CLOCKS:
            if parts[1] in ("ctime", "localtime", "gmtime", "strftime"):
                return f"reads the wall clock via `{canonical}`"
        if parts[0] == "datetime" and parts[-1] in ("now", "utcnow", "today"):
            return f"reads the wall clock via `{canonical}`"
        if canonical in ("os.putenv", "os.unsetenv"):
            return f"mutates the process environment via `{canonical}`"
        if (
            len(parts) >= 3
            and parts[:2] == ["os", "environ"]
            and parts[2] in _ENV_MUTATORS
        ):
            return f"mutates os.environ via `.{parts[2]}()`"
        if parts[:2] == ["numpy", "random"] and len(parts) >= 3:
            entry = parts[2]
            if entry in _SEEDED_RNG_ENTRYPOINTS:
                if not node.args and not node.keywords:
                    return (
                        f"creates an unseeded RNG via `{canonical}()`; pass "
                        "the spec's SeedSequence"
                    )
                return None
            return f"uses the legacy global NumPy RNG via `{canonical}`"
        return None

    def _is_environ_subscript(self, node: ast.AST, info: ModuleInfo) -> bool:
        if not isinstance(node, ast.Subscript):
            return False
        chain = dotted_name(node.value)
        if chain is None:
            return False
        return self._canonical(chain, info) == "os.environ"

    def _check_store(
        self, ctx, node, unit, info: ModuleInfo, global_names: set[str]
    ) -> Iterable[Finding]:
        targets = (
            node.targets
            if isinstance(node, ast.Assign)
            else [node.target]
        )
        for target in targets:
            if self._is_environ_subscript(target, info):
                yield self._finding(ctx, node, unit, "assigns into os.environ")
            elif isinstance(target, ast.Name) and target.id in global_names:
                yield self._finding(
                    ctx,
                    node,
                    unit,
                    f"writes module global `{target.id}`",
                )


class PhaseDisciplineRule(Rule):
    """REP004: phase/label vocabulary comes from ``machine/metrics.py``.

    The cost model prices a superstep by its phase; PR 3 fixed a bug
    where an unknown label was silently priced as forward work.  The
    runtime now raises on unknown phases — this rule catches the same
    class of bug *statically*: literal ``SuperstepRecord.phase`` values
    must be members of ``RECORD_PHASES``, a record built without an
    explicit phase must carry a label with a known prefix, tracer
    phase spans must use ``TRACE_PHASES`` members, and literal tracer
    span *names* must come from ``TRACE_SPAN_NAMES`` (an unregistered
    span name is invisible to trace summaries and the bench coverage
    check — the same silent-vocabulary-drift bug, one layer up).
    """

    code = "REP004"
    name = "phase-discipline"
    summary = (
        "superstep phase / tracer span phase / record label not in the "
        "canonical set from repro.machine.metrics"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.Assign):
                yield from self._check_assign(ctx, node)

    @staticmethod
    def _literal_str(node: ast.AST | None) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    @staticmethod
    def _static_prefix(node: ast.AST | None) -> str | None:
        """Literal value, or an f-string's leading literal text."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.JoinedStr) and node.values:
            first = node.values[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                return first.value
        return None

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterable[Finding]:
        func = node.func
        func_name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        if func_name == "SuperstepRecord":
            phase_node = keywords.get("phase")
            phase = self._literal_str(phase_node)
            if phase:
                if phase not in RECORD_PHASES:
                    yield ctx.finding(
                        self,
                        phase_node,
                        f"SuperstepRecord phase {phase!r} is not in the "
                        f"canonical set {sorted(RECORD_PHASES)}; the cost "
                        "model cannot price it",
                    )
                return
            if phase_node is not None and phase is None:
                return  # dynamic phase expression: cannot check statically
            label_node = keywords.get("label")
            if label_node is None and node.args:
                label_node = node.args[0]
            label = self._static_prefix(label_node)
            if label is not None and not label.startswith(
                tuple(KNOWN_LABEL_PREFIXES)
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"SuperstepRecord label {label!r} has no explicit phase= "
                    "and matches no known label prefix; before PR 3 such "
                    "records were silently priced as forward work — set "
                    "phase='forward' or 'backward'",
                )
        elif func_name in ("span", "add_span"):
            if node.args:
                span_name = self._literal_str(node.args[0])
                if span_name is not None and span_name not in TRACE_SPAN_NAMES:
                    yield ctx.finding(
                        self,
                        node.args[0],
                        f"tracer span name {span_name!r} is not in the "
                        f"canonical set {sorted(TRACE_SPAN_NAMES)} "
                        "(repro.machine.metrics.TRACE_SPAN_NAMES); register "
                        "it there so summaries and coverage checks see it",
                    )
            if "phase" in keywords:
                phase = self._literal_str(keywords["phase"])
                if phase is not None and phase not in TRACE_PHASES:
                    yield ctx.finding(
                        self,
                        keywords["phase"],
                        f"tracer span phase {phase!r} is not in the canonical "
                        f"set {sorted(TRACE_PHASES)}",
                    )

    def _check_assign(self, ctx: FileContext, node: ast.Assign) -> Iterable[Finding]:
        value = self._literal_str(node.value)
        if value is None or value == "":
            return
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "phase"
                and value not in RECORD_PHASES
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"assigning phase {value!r}; the canonical phase set is "
                    f"{sorted(RECORD_PHASES)}",
                )


def _executor_error_names() -> frozenset[str]:
    """ExecutorError and its subclasses, read from repro.exceptions."""
    return frozenset(
        name
        for name, obj in vars(_exceptions).items()
        if inspect.isclass(obj) and issubclass(obj, ExecutorError)
    )


#: Raises that signal caller bugs / bad configuration rather than
#: executor failures; repro.exceptions documents that these propagate.
_VALIDATION_ERRORS = frozenset({"ValueError", "TypeError", "NotImplementedError"})

_RAISE_SCOPE = ("repro/machine/executor.py", "repro/machine/pool.py")
_EXCEPT_SCOPE = _RAISE_SCOPE + ("repro/ltdp/engine/poolrt.py",)


class ExecutorContractRule(Rule):
    """REP005: executor failures surface as ``ExecutorError`` subclasses.

    The driver, the CLI and the fault-tolerance machinery all dispatch on
    :class:`~repro.exceptions.ExecutorError`; a raw ``RuntimeError``
    escaping an executor bypasses crash recovery and the user-facing
    error contract.  ``ValueError`` / ``TypeError`` are exempt (argument
    validation — the repo's exception hierarchy deliberately lets caller
    bugs propagate).  Broad ``except Exception`` / ``except
    BaseException`` handlers in executor code are only legal with a
    reasoned ``# repro: noqa[REP005]`` suppression.
    """

    code = "REP005"
    name = "executor-exception-contract"
    summary = (
        "executor raise sites must use ExecutorError subclasses; broad "
        "excepts need a reasoned suppression"
    )

    def __init__(self) -> None:
        self._allowed_raises = _executor_error_names() | _VALIDATION_ERRORS

    def applies_to(self, relpath: str) -> bool:
        return relpath in _EXCEPT_SCOPE

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        check_raises = ctx.relpath in _RAISE_SCOPE
        for node in ast.walk(ctx.tree):
            if check_raises and isinstance(node, ast.Raise):
                yield from self._check_raise(ctx, node)
            elif isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(ctx, node)

    def _check_raise(self, ctx: FileContext, node: ast.Raise) -> Iterable[Finding]:
        exc = node.exc
        if exc is None:
            return  # bare re-raise keeps the original type
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = None
        if isinstance(exc, ast.Name):
            name = exc.id
        elif isinstance(exc, ast.Attribute):
            name = exc.attr
        if name is None or name in self._allowed_raises:
            return
        yield ctx.finding(
            self,
            node,
            f"executor code raises {name}; failures crossing the executor "
            "boundary must be ExecutorError subclasses (ValueError/"
            "TypeError argument validation is exempt)",
        )

    def _check_handler(
        self, ctx: FileContext, node: ast.ExceptHandler
    ) -> Iterable[Finding]:
        broad = None
        if node.type is None:
            broad = "bare except"
        else:
            types = (
                node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            )
            for t in types:
                if isinstance(t, ast.Name) and t.id in ("Exception", "BaseException"):
                    broad = f"except {t.id}"
                    break
        if broad:
            yield ctx.finding(
                self,
                node,
                f"broad `{broad}` in executor code can swallow protocol "
                "desyncs; narrow the exception types or add "
                "`# repro: noqa[REP005]: <why the breadth is required>`",
            )


class KernelGateDeclarationRule(Rule):
    """REP006: registered fast-path kernels declare their bit-identity gate.

    Every kernel handed to :func:`repro.kernels.register_kernel` may
    silently replace the dense per-stage path, so each one must carry a
    non-empty ``bit_identity_gate`` string documenting exactly when that
    replacement is legal (the registry re-checks at runtime; this rule
    catches it at lint time, before a worker ever loads the kernel).
    The whole project is scanned in one pass: kernel class definitions
    are collected wherever they live, registration call sites wherever
    they appear, and a registration of a gateless class is flagged at
    the call site.
    """

    code = "REP006"
    name = "kernel-gate-declaration"
    summary = (
        "register_kernel() callees must declare a non-empty "
        "bit_identity_gate class attribute"
    )
    project_wide = True

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        kernel_classes: dict[str, bool] = {}
        registrations: list[tuple[FileContext, ast.Call, str]] = []
        for ctx in project.files:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef) and self._is_kernel_class(node):
                    kernel_classes[node.name] = self._declares_gate(node)
                elif isinstance(node, ast.Call):
                    registered = self._registered_class(node)
                    if registered is not None:
                        registrations.append((ctx, node, registered))
        for ctx, node, class_name in registrations:
            # A class we cannot see (built dynamically, imported from
            # outside the lint run) is left to the runtime check in
            # ``register_kernel``, which raises KernelRegistrationError.
            if kernel_classes.get(class_name, True):
                continue
            yield ctx.finding(
                self,
                node,
                f"register_kernel() registers {class_name}, which declares "
                "no non-empty `bit_identity_gate`; every fast-path kernel "
                "must document the conditions under which it may replace "
                "the dense per-stage path",
            )

    @staticmethod
    def _is_kernel_class(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = None
            if isinstance(base, ast.Name):
                name = base.id
            elif isinstance(base, ast.Attribute):
                name = base.attr
            if name == "StageBlockKernel":
                return True
        return False

    @staticmethod
    def _declares_gate(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "bit_identity_gate":
                    return (
                        isinstance(value, ast.Constant)
                        and isinstance(value.value, str)
                        and bool(value.value.strip())
                    )
        return False

    @staticmethod
    def _registered_class(node: ast.Call) -> str | None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name != "register_kernel" or len(node.args) < 2:
            return None
        kernel_arg = node.args[1]
        if isinstance(kernel_arg, ast.Call):
            ctor = kernel_arg.func
            if isinstance(ctor, ast.Name):
                return ctor.id
            if isinstance(ctor, ast.Attribute):
                return ctor.attr
        return None


class GuardedByDisciplineRule(Rule):
    """REP007: declared-guarded fields are only touched with their lock held.

    :mod:`repro.lint.locks` discovers each class's lock attributes and
    its guarded-field declarations (``# guarded-by: self._lock`` on the
    field's assignment, or a class-level ``guarded_fields`` dict).  Any
    read or write of a declared field outside a ``with <lock>`` block —
    in a method not marked caller-locked via ``# repro: locked[<lock>]``
    — is a finding.  ``__init__`` is exempt: construction happens-before
    publication of ``self`` to other threads.  Malformed annotations
    (a guard naming an unknown lock, a non-literal ``guarded_fields``)
    are reported here too, so a typo cannot silently disable the check.
    """

    code = "REP007"
    name = "guarded-by-discipline"
    summary = (
        "declared-guarded field accessed without its lock held "
        "(guarded-by / guarded_fields / locked[...] annotations)"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for model in build_class_models(ctx):
            for node, message in model.problems:
                yield ctx.finding(self, node, message)
            if not model.guarded:
                continue
            for method in model.methods.values():
                if method.name == "__init__":
                    continue
                for access in method.accesses:
                    lock = model.guarded.get(access.attr)
                    if lock is None or lock not in model.locks:
                        continue  # unknown guard already reported above
                    if lock in access.held:
                        continue
                    verb = "write to" if access.is_write else "read of"
                    yield ctx.finding(
                        self,
                        access.node,
                        f"{verb} `self.{access.attr}` in `{method.qualname}` "
                        f"without holding `self.{lock}` (declared guarded-by); "
                        f"wrap the access in `with self.{lock}:` or mark the "
                        f"method `# repro: locked[self.{lock}]` if every "
                        "caller already holds it",
                    )


def _find_cycles(edges: dict[str, dict[str, tuple]]) -> list[list[str]]:
    """Simple cycles (length ≥ 2) in the lock graph, deduplicated by node set."""
    cycles: list[list[str]] = []
    seen: set[frozenset[str]] = set()
    for start in sorted(edges):
        stack: list[tuple[str, tuple[str, ...]]] = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            for nxt in sorted(edges.get(node, ())):
                if nxt == start and len(path) >= 2:
                    key = frozenset(path)
                    if key not in seen:
                        seen.add(key)
                        cycles.append([*path, start])
                elif nxt not in path and len(path) < 8:
                    stack.append((nxt, (*path, nxt)))
    return cycles


class LockOrderRule(Rule):
    """REP008: the static lock-acquisition graph must be acyclic.

    Every acquisition of lock *B* while lock *A* is held — directly
    nested ``with`` blocks / ``.acquire()`` calls, or through a resolved
    call whose callee transitively acquires *B* — adds the edge A → B.
    A cycle means two threads can acquire the same pair of locks in
    opposite orders: a deadlock that no test run is guaranteed to hit.
    Also flagged: re-acquisition of a *non-reentrant* ``Lock`` already
    held (self-deadlock), and a ``.acquire()`` with no ``release()`` in
    the same method (use ``with``, or release in a ``finally``).  Lock
    collections (``_worker_locks``) collapse to one ``[i]`` node — the
    pool keeps same-list acquisitions safe by sorted acquisition order.
    """

    code = "REP008"
    name = "lock-order"
    summary = (
        "cycle in the static lock-acquisition graph, non-reentrant "
        "re-acquisition, or acquire() without a paired release()"
    )
    project_wide = True

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        model = build_project_model(project)
        #: src node → dst node → first witness (path, line, col, context).
        edges: dict[str, dict[str, tuple]] = {}
        findings: list[Finding] = []

        def add_edge(src, dst, node, unit, via: str) -> None:
            witness = (
                unit.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                f"{unit.method.qualname}{via}",
            )
            edges.setdefault(src, {}).setdefault(dst, witness)

        def reacquire(src_info, node, unit, via: str) -> None:
            findings.append(
                Finding(
                    code=self.code,
                    message=(
                        f"`{unit.method.qualname}`{via} re-acquires "
                        f"non-reentrant `{src_info.node_name}` while already "
                        "holding it: guaranteed self-deadlock (use an RLock "
                        "or restructure so the lock is taken once)"
                    ),
                    path=unit.path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                )
            )

        for uid in sorted(model.units):
            unit = model.units[uid]
            cls = unit.cls
            if cls is None:
                continue
            for acq in unit.method.acquisitions:
                dst = cls.locks.get(acq.attr)
                if dst is None:
                    continue
                for held_attr in sorted(acq.held_before):
                    src = cls.locks.get(held_attr)
                    if src is None:
                        continue
                    if src.node_name == dst.node_name:
                        if not dst.reentrant:
                            reacquire(src, acq.node, unit, "")
                        continue
                    add_edge(src.node_name, dst.node_name, acq.node, unit, "")
                if not acq.via_with and acq.attr not in unit.method.releases:
                    findings.append(
                        Finding(
                            code=self.code,
                            message=(
                                f"`{unit.method.qualname}` calls "
                                f"`{acq.attr}.acquire()` with no matching "
                                "`release()` in the same method; use `with "
                                f"self.{acq.attr}:` or release in a "
                                "`finally` block so an exception cannot "
                                "leak the lock"
                            ),
                            path=unit.path,
                            line=getattr(acq.node, "lineno", 1),
                            col=getattr(acq.node, "col_offset", 0),
                        )
                    )
            for site in unit.method.call_sites:
                if not site.held:
                    continue
                callee = model.callee_of(site)
                if callee is None or callee not in model.units:
                    continue
                via = f" (via `{model.units[callee].qualname}`)"
                for dst_name in sorted(model.transitive_acquires.get(callee, ())):
                    for held_attr in sorted(site.held):
                        src = cls.locks.get(held_attr)
                        if src is None:
                            continue
                        if src.node_name == dst_name:
                            if not src.reentrant:
                                reacquire(src, site.node, unit, via)
                            continue
                        add_edge(src.node_name, dst_name, site.node, unit, via)
        for cycle in _find_cycles(edges):
            hops = []
            for a, b in zip(cycle, cycle[1:]):
                path, line, _col, where = edges[a][b]
                hops.append(f"{b} (acquired in `{where}`, {path}:{line})")
            first = edges[cycle[0]][cycle[1]]
            findings.append(
                Finding(
                    code=self.code,
                    message=(
                        "lock-order cycle: holding "
                        f"{cycle[0]} → " + " → ".join(hops) + "; two threads "
                        "taking these locks in opposite orders deadlock — "
                        "pick one global acquisition order"
                    ),
                    path=first[0],
                    line=first[1],
                    col=first[2],
                )
            )
        seen: set[tuple] = set()
        for f in sorted(findings, key=Finding.sort_key):
            key = (f.path, f.line, f.message)
            if key not in seen:
                seen.add(key)
                yield f


class BlockingUnderLockRule(Rule):
    """REP009: never block while holding a *state* lock.

    Pipe sends/receives, ``Condition``/``Event`` waits, thread/process
    joins, sleeps, executor dispatch round-trips and payload pickling
    all stall every thread contending for the held lock — the PR 6/7
    teardown-deadlock class.  Flagged directly at the call site and
    transitively through resolved calls (with the trail in the message).
    Exemptions: waiting on the *same* condition the block holds (the
    wait releases it — that is the point of a condition variable), and
    locks created with ``# lock-role: transport`` (the pool's per-worker
    pipe locks exist to serialize exactly this I/O).
    """

    code = "REP009"
    name = "blocking-under-lock"
    summary = (
        "blocking call (pipe I/O, wait, join, sleep, dispatch, pickling) "
        "while holding a state-role lock"
    )
    project_wide = True

    @staticmethod
    def _own_wait_exempt(site, state_held: set[str]) -> bool:
        return (
            site.attr_name in ("wait", "wait_for")
            and bool(site.recv_locks)
            and site.recv_locks <= site.held
            and state_held <= site.recv_locks
        )

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        model = build_project_model(project)
        for uid in sorted(model.units):
            unit = model.units[uid]
            cls = unit.cls
            if cls is None:
                continue
            for site in unit.method.call_sites:
                state_held = {
                    attr
                    for attr in site.held
                    if attr in cls.locks and cls.locks[attr].role == ROLE_STATE
                }
                if not state_held:
                    continue
                held_names = ", ".join(
                    f"`{cls.locks[a].node_name}`" for a in sorted(state_held)
                )
                reason = site_block_reason(site)
                if reason is not None:
                    if self._own_wait_exempt(site, state_held):
                        continue
                    yield Finding(
                        code=self.code,
                        message=(
                            f"{reason} while holding {held_names} in "
                            f"`{unit.method.qualname}`; blocking under a "
                            "state lock stalls every contending thread — "
                            "move the call outside the `with` block (or mark "
                            "the lock `# lock-role: transport` if "
                            "serializing this I/O is its purpose)"
                        ),
                        path=unit.path,
                        line=site.node.lineno,
                        col=site.node.col_offset,
                    )
                    continue
                callee = model.callee_of(site)
                if callee is None or callee not in model.blocks:
                    continue
                breason, trail = model.blocks[callee]
                via = " → ".join(
                    (model.units[callee].qualname, *trail)
                )
                yield Finding(
                    code=self.code,
                    message=(
                        f"call to `{model.units[callee].qualname}` can block "
                        f"({breason}, via {via}) while holding {held_names} "
                        f"in `{unit.method.qualname}`; blocking under a "
                        "state lock stalls every contending thread"
                    ),
                    path=unit.path,
                    line=site.node.lineno,
                    col=site.node.col_offset,
                )


def default_rules() -> list[Rule]:
    """Fresh instances of every shipped rule, in code order."""
    return [
        TropicalZeroLiteralRule(),
        IdentityUnsafeReductionRule(),
        WorkerDeterminismRule(),
        PhaseDisciplineRule(),
        ExecutorContractRule(),
        KernelGateDeclarationRule(),
        GuardedByDisciplineRule(),
        LockOrderRule(),
        BlockingUnderLockRule(),
    ]
