"""Static lock model behind the concurrency rules (REP007–REP009).

The engine/pool/serve layers synchronize with a handful of
``threading.Lock`` / ``RLock`` / ``Condition`` attributes.  This module
builds a *static* model of that synchronization, per class:

- **lock discovery** — ``self._x = threading.Lock()`` (and ``RLock`` /
  ``Condition``; plain, annotated, or list-of-locks via a ``list[...]``
  annotation or ``.append(threading.RLock())``) registers ``_x`` as a
  lock attribute of the class.  A ``# lock-role: transport`` comment on
  the creating line marks a lock whose *purpose* is to serialize
  blocking I/O (the pool's per-worker pipe locks); blocking calls under
  such a lock are by design and exempt from REP009.
- **guarded-field declarations** — ``# guarded-by: self._lock`` on a
  field's assignment line, or a class-level ``guarded_fields =
  {"_field": "_lock"}`` dict, declares which lock must be held around
  every access of that field (REP007).
- **caller-locked methods** — ``# repro: locked[self._lock]`` on a
  ``def`` line documents that the method is only called with the lock
  already held; its body is analyzed with that lock in the held set.
- **held-lock tracking** — each method body is walked statement by
  statement with the set of held locks: ``with self._lock:`` blocks,
  explicit ``.acquire()`` / ``.release()`` pairs (including the local
  alias pattern ``locks = [self._worker_locks[w] ...]; for lock in
  locks: lock.acquire()``), lambdas and nested ``def``\\ s inheriting
  the enclosing held set.  A lock acquired inside a branch or loop is
  conservatively treated as held for the rest of the enclosing block
  (matching the acquire-in-loop idiom); ``release`` removes it.
- **typed call resolution** — ``self.m()``, ``self.attr.m()`` (attr
  type inferred from ``self.attr = ClassName(...)`` or an annotated
  ``__init__`` parameter), ``param.m()`` (annotated parameters), and
  same-module / ``from``-imported module functions resolve to project
  units.  Unlike :mod:`repro.lint.callgraph` — which *over*-approximates
  for the determinism rule — this resolution deliberately
  **under**-approximates: a lock-order or blocking edge is only drawn
  when the callee is known, so REP008/REP009 never hallucinate edges
  from name collisions.

On top of the per-class models, :class:`ProjectLockModel` computes
per-unit fixpoint summaries — the set of locks a call may transitively
acquire (REP008's acquisition graph) and whether a call may transitively
block (REP009) — with witness trails for the messages.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.lint.callgraph import module_name_of
from repro.lint.core import FileContext, ProjectContext, _iter_comments, dotted_name

__all__ = [
    "ROLE_STATE",
    "ROLE_TRANSPORT",
    "LockInfo",
    "Acquisition",
    "CallSite",
    "FieldAccess",
    "MethodModel",
    "ClassLockModel",
    "UnitModel",
    "ProjectLockModel",
    "build_class_models",
    "build_project_model",
    "site_block_reason",
]

ROLE_STATE = "state"
ROLE_TRANSPORT = "transport"
_ROLES = (ROLE_STATE, ROLE_TRANSPORT)

#: threading constructors we model, and whether they are reentrant.
#: (``Condition`` wraps an RLock by default.)
_LOCK_CTORS = {"Lock": False, "RLock": True, "Condition": True}

#: Annotation roots that mark a lock *collection* attribute.
_LIST_ANN_ROOTS = frozenset({"list", "List", "tuple", "Tuple", "Sequence", "deque"})

_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*(?P<lock>(?:self\.)?[A-Za-z_]\w*)")
_LOCK_ROLE_RE = re.compile(r"#\s*lock-role:\s*(?P<role>[\w-]+)")
_LOCKED_RE = re.compile(r"#\s*repro:\s*locked\[(?P<locks>[^\]]+)\]")

#: Method names whose call blocks the calling thread (pipe I/O, waits,
#: joins, dispatch round-trips).  Matched on the final attribute so a
#: computed receiver (``self._conns[w].send``) still matches.
_BLOCKING_PIPE = frozenset({"send", "recv", "send_bytes", "recv_bytes", "poll"})
_BLOCKING_DISPATCH = frozenset(
    {
        "dispatch", "_dispatch", "_dispatch_locked", "run_superstep",
        "call_slots", "broadcast", "post",
    }
)
_BLOCKING_WAIT = frozenset({"wait", "wait_for"})


def _strip_self(name: str) -> str:
    return name[5:] if name.startswith("self.") else name


@dataclass(frozen=True)
class LockInfo:
    """One discovered lock attribute of one class."""

    attr: str
    owner: str  #: class name
    kind: str  #: ``Lock`` / ``RLock`` / ``Condition``
    reentrant: bool
    is_list: bool  #: a collection of locks (``_worker_locks``)
    role: str  #: ``state`` (default) or ``transport``
    line: int

    @property
    def node_name(self) -> str:
        """Graph-node spelling: ``Cls._lock`` / ``Cls._worker_locks[i]``."""
        suffix = "[i]" if self.is_list else ""
        return f"{self.owner}.{self.attr}{suffix}"


@dataclass(frozen=True)
class Acquisition:
    """One static lock acquisition (a ``with`` item or ``.acquire()``)."""

    attr: str
    node: ast.AST
    held_before: frozenset[str]
    via_with: bool


@dataclass(frozen=True)
class CallSite:
    """One call expression, with the locks held when it executes."""

    node: ast.Call
    held: frozenset[str]
    attr_name: str | None  #: final attribute / bare name being called
    chain: tuple[str, ...] | None  #: full dotted chain when statically known
    recv_is_const_str: bool  #: receiver is a string literal (``",".join``)
    recv_locks: frozenset[str]  #: receiver resolves to these own-class locks


@dataclass(frozen=True)
class FieldAccess:
    """One ``self.<attr>`` read or write."""

    attr: str
    node: ast.AST
    held: frozenset[str]
    is_write: bool


@dataclass
class MethodModel:
    """Walk results for one method (or module-level function)."""

    name: str
    qualname: str
    node: ast.AST
    caller_locked: frozenset[str]
    param_types: dict[str, str]
    accesses: list[FieldAccess] = field(default_factory=list)
    acquisitions: list[Acquisition] = field(default_factory=list)
    releases: set[str] = field(default_factory=set)
    call_sites: list[CallSite] = field(default_factory=list)


@dataclass
class ClassLockModel:
    """Locks, guarded-field declarations and method walks of one class."""

    name: str
    module: str
    path: str
    relpath: str
    node: ast.ClassDef
    locks: dict[str, LockInfo] = field(default_factory=dict)
    guarded: dict[str, str] = field(default_factory=dict)  #: field -> lock attr
    guarded_nodes: dict[str, ast.AST] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    methods: dict[str, MethodModel] = field(default_factory=dict)
    #: Malformed annotations: ``(node, message)`` — surfaced by REP007.
    problems: list[tuple[ast.AST, str]] = field(default_factory=list)


# -- method-body walker -------------------------------------------------


class _MethodWalker:
    """Single pass over one method body tracking the held-lock set.

    ``with`` bodies get a copied set (the lock is released on exit);
    branch/loop/try bodies share the enclosing set, so an ``.acquire()``
    inside them is treated as held for the rest of the enclosing block —
    the conservative reading of the acquire-in-loop idiom.  Lambdas and
    nested ``def``\\ s inherit the held set at their definition point.
    """

    def __init__(self, locks: dict[str, LockInfo], caller_locked: frozenset[str]) -> None:
        self._locks = locks
        self._caller_locked = caller_locked
        self._bindings: dict[str, frozenset[str]] = {}
        self.accesses: list[FieldAccess] = []
        self.acquisitions: list[Acquisition] = []
        self.releases: set[str] = set()
        self.call_sites: list[CallSite] = []

    def walk(self, fn: ast.AST) -> None:
        held: set[str] = set(self._caller_locked)
        self._body(getattr(fn, "body", []), held)

    # -- statements ----------------------------------------------------
    def _body(self, stmts, held: set[str]) -> None:
        for stmt in stmts:
            self._stmt(stmt, held)

    def _stmt(self, stmt: ast.stmt, held: set[str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._body(stmt.body, set(held))
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            entered: list[str] = []
            for item in stmt.items:
                self._scan(item.context_expr, held)
                for attr in sorted(self._lock_expr(item.context_expr)):
                    self.acquisitions.append(
                        Acquisition(
                            attr=attr,
                            node=item.context_expr,
                            held_before=frozenset(held | set(entered)),
                            via_with=True,
                        )
                    )
                    entered.append(attr)
                if item.optional_vars is not None:
                    self._scan(item.optional_vars, held)
            inner = set(held)
            inner.update(entered)
            self._body(stmt.body, inner)
            return
        if isinstance(stmt, ast.If):
            self._scan(stmt.test, held)
            self._body(stmt.body, held)
            self._body(stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_for(stmt)
            self._scan(stmt.iter, held)
            self._body(stmt.body, held)
            self._body(stmt.orelse, held)
            return
        if isinstance(stmt, ast.While):
            self._scan(stmt.test, held)
            self._body(stmt.body, held)
            self._body(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self._body(stmt.body, held)
            for handler in stmt.handlers:
                self._body(handler.body, held)
            self._body(stmt.orelse, held)
            self._body(stmt.finalbody, held)
            return
        if isinstance(stmt, ast.Assign):
            self._maybe_bind(stmt)
        self._scan(stmt, held)

    # -- expressions ---------------------------------------------------
    def _scan(self, node: ast.AST, held: set[str]) -> None:
        if isinstance(node, ast.Call):
            for child in ast.iter_child_nodes(node):
                self._scan(child, held)
            self._handle_call(node, held)
            return
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                self.accesses.append(
                    FieldAccess(
                        attr=node.attr,
                        node=node,
                        held=frozenset(held),
                        is_write=isinstance(node.ctx, (ast.Store, ast.Del)),
                    )
                )
            else:
                self._scan(node.value, held)
            return
        for child in ast.iter_child_nodes(node):
            self._scan(child, held)

    def _handle_call(self, call: ast.Call, held: set[str]) -> None:
        func = call.func
        attr_name: str | None = None
        recv: ast.AST | None = None
        if isinstance(func, ast.Attribute):
            attr_name = func.attr
            recv = func.value
        elif isinstance(func, ast.Name):
            attr_name = func.id
        if attr_name in ("acquire", "release") and recv is not None:
            locks = self._lock_expr(recv)
            if locks:
                for attr in sorted(locks):
                    if attr_name == "acquire":
                        self.acquisitions.append(
                            Acquisition(
                                attr=attr,
                                node=call,
                                held_before=frozenset(held),
                                via_with=False,
                            )
                        )
                        held.add(attr)
                    else:
                        self.releases.add(attr)
                        held.discard(attr)
                return
        chain = dotted_name(func)
        self.call_sites.append(
            CallSite(
                node=call,
                held=frozenset(held),
                attr_name=attr_name,
                chain=tuple(chain) if chain else None,
                recv_is_const_str=(
                    isinstance(recv, ast.Constant) and isinstance(recv.value, str)
                ),
                recv_locks=(
                    frozenset(self._lock_expr(recv)) if recv is not None else frozenset()
                ),
            )
        )

    # -- lock expressions and local aliases ----------------------------
    def _lock_expr(self, node: ast.AST) -> set[str]:
        """Own-class lock attributes the expression denotes."""
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                info = self._locks.get(node.attr)
                if info is not None and not info.is_list:
                    return {node.attr}
            return set()
        if isinstance(node, ast.Subscript):
            inner = node.value
            if (
                isinstance(inner, ast.Attribute)
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "self"
            ):
                info = self._locks.get(inner.attr)
                if info is not None and info.is_list:
                    return {inner.attr}
            return set()
        if isinstance(node, ast.Name):
            return set(self._bindings.get(node.id, frozenset()))
        return set()

    def _locks_in_value(self, value: ast.AST) -> set[str]:
        out: set[str] = set()
        for node in ast.walk(value):
            out |= self._lock_expr(node)
        return out

    def _maybe_bind(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
            locks = self._locks_in_value(stmt.value)
            if locks:
                self._bindings[stmt.targets[0].id] = frozenset(locks)

    def _bind_for(self, stmt) -> None:
        if isinstance(stmt.target, ast.Name):
            locks = self._locks_in_value(stmt.iter)
            if locks:
                self._bindings[stmt.target.id] = frozenset(locks)


# -- class model construction ------------------------------------------


def _lock_ctor_kind(value: ast.AST) -> str | None:
    """``threading.Lock()`` / bare ``Lock()`` → ``"Lock"`` (etc.)."""
    if not isinstance(value, ast.Call):
        return None
    chain = dotted_name(value.func)
    if not chain or chain[-1] not in _LOCK_CTORS:
        return None
    if len(chain) == 1 or chain[0] in ("threading", "_thread"):
        return chain[-1]
    return None


def _annotation_lock_kind(ann: ast.AST | None) -> tuple[str | None, bool]:
    """Lock kind named inside an annotation, and whether it is a collection."""
    if ann is None:
        return None, False
    kind = None
    for node in ast.walk(ann):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name in _LOCK_CTORS and kind is None:
            kind = name
    if kind is None:
        return None, False
    is_list = False
    root = ann
    if isinstance(root, ast.Subscript):
        base = dotted_name(root.value)
        if base and base[-1] in _LIST_ANN_ROOTS:
            is_list = True
    return kind, is_list


def _self_attr_target(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _param_types(fn) -> dict[str, str]:
    out: dict[str, str] = {}
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        ann = arg.annotation
        name = None
        if isinstance(ann, ast.Name):
            name = ann.id
        elif isinstance(ann, ast.Attribute):
            name = ann.attr
        elif isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            name = ann.value.strip()
        if name and name.isidentifier():
            out[arg.arg] = name
    return out


def _caller_locked(fn, comments: dict[int, str], locks, problems, cls_name) -> frozenset[str]:
    """Parse ``# repro: locked[self._lock]`` on the def/signature lines."""
    first_body = fn.body[0].lineno if fn.body else fn.lineno
    found: set[str] = set()
    for line in range(fn.lineno, first_body + 1):
        text = comments.get(line)
        if not text:
            continue
        m = _LOCKED_RE.search(text)
        if not m:
            continue
        for raw in m.group("locks").split(","):
            attr = _strip_self(raw.strip())
            if attr in locks:
                found.add(attr)
            else:
                problems.append(
                    (
                        fn,
                        f"`# repro: locked[{raw.strip()}]` on `{cls_name}.{fn.name}` "
                        f"names no discovered lock attribute of {cls_name} "
                        f"(known locks: {sorted(locks) or 'none'})",
                    )
                )
    return frozenset(found)


def _discover_locks(cls: ast.ClassDef, comments: dict[int, str], problems) -> dict[str, LockInfo]:
    locks: dict[str, LockInfo] = {}

    def register(attr: str, kind: str, is_list: bool, line: int) -> None:
        role = ROLE_STATE
        text = comments.get(line, "")
        m = _LOCK_ROLE_RE.search(text)
        if m:
            role = m.group("role")
            if role not in _ROLES:
                problems.append(
                    (
                        cls,
                        f"`# lock-role: {role}` on line {line} is not one of "
                        f"{_ROLES}",
                    )
                )
                role = ROLE_STATE
        existing = locks.get(attr)
        if existing is not None:
            is_list = is_list or existing.is_list
            if existing.role != ROLE_STATE:
                role = existing.role
        locks[attr] = LockInfo(
            attr=attr,
            owner=cls.name,
            kind=kind,
            reentrant=_LOCK_CTORS[kind],
            is_list=is_list,
            role=role,
            line=line,
        )

    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            attr = _self_attr_target(node.targets[0])
            if attr:
                kind = _lock_ctor_kind(node.value)
                if kind:
                    register(attr, kind, False, node.lineno)
                    continue
                if isinstance(node.value, (ast.List, ast.ListComp)):
                    for sub in ast.walk(node.value):
                        kind = _lock_ctor_kind(sub)
                        if kind:
                            register(attr, kind, True, node.lineno)
                            break
        elif isinstance(node, ast.AnnAssign):
            attr = _self_attr_target(node.target)
            if attr:
                kind = _lock_ctor_kind(node.value) if node.value is not None else None
                if kind:
                    register(attr, kind, False, node.lineno)
                    continue
                kind, is_list = _annotation_lock_kind(node.annotation)
                if kind:
                    register(attr, kind, is_list, node.lineno)
        elif isinstance(node, ast.Call):
            # self._worker_locks.append(threading.RLock())
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "append"
                and node.args
            ):
                attr = _self_attr_target(func.value)
                kind = _lock_ctor_kind(node.args[0])
                if attr and kind:
                    register(attr, kind, True, node.lineno)
    return locks


def _collect_guards(model: ClassLockModel, comments: dict[int, str]) -> None:
    cls = model.node
    # Class-level ``guarded_fields = {"_field": "_lock"}``.
    for stmt in cls.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "guarded_fields"
        ):
            if not isinstance(stmt.value, ast.Dict):
                model.problems.append(
                    (stmt, "`guarded_fields` must be a literal dict of "
                           '{"_field": "_lock"} string pairs')
                )
                continue
            for k, v in zip(stmt.value.keys, stmt.value.values):
                if (
                    isinstance(k, ast.Constant)
                    and isinstance(k.value, str)
                    and isinstance(v, ast.Constant)
                    and isinstance(v.value, str)
                ):
                    model.guarded[k.value] = _strip_self(v.value)
                    model.guarded_nodes[k.value] = stmt
                else:
                    model.problems.append(
                        (stmt, "`guarded_fields` entries must be string "
                               "literals mapping field name to lock name")
                    )
    # Inline ``# guarded-by: self._lock`` on field assignment lines.
    for node in ast.walk(cls):
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = _self_attr_target(node.targets[0])
        elif isinstance(node, ast.AnnAssign):
            target = _self_attr_target(node.target)
        if not target:
            continue
        text = comments.get(node.lineno)
        if not text:
            continue
        m = _GUARDED_BY_RE.search(text)
        if m:
            model.guarded[target] = _strip_self(m.group("lock"))
            model.guarded_nodes[target] = node


def _build_class_model(
    ctx: FileContext, cls: ast.ClassDef, comments: dict[int, str], module: str
) -> ClassLockModel:
    model = ClassLockModel(
        name=cls.name,
        module=module,
        path=ctx.path,
        relpath=ctx.relpath,
        node=cls,
    )
    model.locks = _discover_locks(cls, comments, model.problems)
    _collect_guards(model, comments)
    for field_name, lock_attr in model.guarded.items():
        if lock_attr not in model.locks:
            model.problems.append(
                (
                    model.guarded_nodes.get(field_name, cls),
                    f"`{field_name}` is declared guarded by `{lock_attr}`, "
                    f"which is not a discovered lock attribute of {cls.name} "
                    f"(known locks: {sorted(model.locks) or 'none'})",
                )
            )
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        caller_locked = _caller_locked(
            item, comments, model.locks, model.problems, cls.name
        )
        walker = _MethodWalker(model.locks, caller_locked)
        walker.walk(item)
        # Infer attribute types from ctor assignments / annotated params.
        ptypes = _param_types(item)
        for stmt in ast.walk(item):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                attr = _self_attr_target(stmt.targets[0])
                if not attr:
                    continue
                value = stmt.value
                if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                    model.attr_types.setdefault(attr, value.func.id)
                elif isinstance(value, ast.Name) and value.id in ptypes:
                    model.attr_types.setdefault(attr, ptypes[value.id])
        method = MethodModel(
            name=item.name,
            qualname=f"{cls.name}.{item.name}",
            node=item,
            caller_locked=caller_locked,
            param_types=ptypes,
            accesses=walker.accesses,
            acquisitions=walker.acquisitions,
            releases=walker.releases,
            call_sites=walker.call_sites,
        )
        model.methods[item.name] = method
    return model


def build_class_models(ctx: FileContext) -> list[ClassLockModel]:
    """Per-class lock models for one file (top-level classes only)."""
    comments = {line: text for line, _col, text in _iter_comments(ctx.source)}
    module = module_name_of(ctx.relpath)
    return [
        _build_class_model(ctx, node, comments, module)
        for node in ctx.tree.body
        if isinstance(node, ast.ClassDef)
    ]


# -- blocking predicate -------------------------------------------------


def site_block_reason(site: CallSite) -> str | None:
    """Why this call blocks the calling thread, or ``None``.

    Context-free: the own-condition ``wait`` exemption (waiting releases
    the lock being waited on) is applied by the *caller*, because it
    depends on which locks are held and, transitively, on whose.
    """
    attr = site.attr_name
    if attr is None:
        return None
    chain = site.chain
    if attr in _BLOCKING_WAIT:
        return f"`{attr}()` (condition/event wait)"
    if attr == "join":
        if site.recv_is_const_str:
            return None  # ", ".join(...) — string joining, not thread joining
        if chain and len(chain) >= 3 and chain[0] == "os" and chain[1] == "path":
            return None
        return "`join()` (thread/process join)"
    if attr == "sleep":
        return "`sleep()`"
    if attr in _BLOCKING_PIPE:
        return f"`{attr}()` (pipe I/O)"
    if attr in _BLOCKING_DISPATCH:
        return f"`{attr}()` (executor dispatch round-trip)"
    if attr in ("dumps", "loads") and chain and chain[0] == "pickle":
        return f"`pickle.{attr}()` (payload pickling)"
    return None


# -- project model ------------------------------------------------------


@dataclass
class UnitModel:
    """One analyzable unit: a class method or a module-level function."""

    uid: tuple
    qualname: str
    module: str
    cls: ClassLockModel | None
    method: MethodModel
    path: str


@dataclass
class _Imports:
    aliases: dict[str, str] = field(default_factory=dict)
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)


def _method_uid(cls: ClassLockModel, method: str) -> tuple:
    return ("c", cls.module, cls.name, method)


class ProjectLockModel:
    """All class models plus cross-unit fixpoint summaries."""

    def __init__(self) -> None:
        self.classes: list[ClassLockModel] = []
        self.classes_by_name: dict[str, ClassLockModel] = {}
        self.units: dict[tuple, UnitModel] = {}
        self._functions: dict[tuple[str, str], tuple] = {}
        self._imports: dict[str, _Imports] = {}
        #: uid → set of lock node-names the unit may transitively acquire.
        self.transitive_acquires: dict[tuple, set[str]] = {}
        #: uid → ``(reason, via-trail)`` when the unit may block.
        self.blocks: dict[tuple, tuple[str, tuple[str, ...]]] = {}
        self._site_callees: dict[int, tuple] = {}

    # -- resolution ----------------------------------------------------
    def resolve(self, site: CallSite, unit: UnitModel) -> tuple | None:
        """Callee uid for a call site, or ``None`` (under-approximating)."""
        chain = site.chain
        if not chain:
            return None
        if chain[0] == "self" and unit.cls is not None:
            if len(chain) == 2:
                if chain[1] in unit.cls.methods:
                    return _method_uid(unit.cls, chain[1])
                return None
            if len(chain) == 3:
                tname = unit.cls.attr_types.get(chain[1])
                target = self.classes_by_name.get(tname) if tname else None
                if target is not None and chain[2] in target.methods:
                    return _method_uid(target, chain[2])
            return None
        if len(chain) == 2:
            tname = unit.method.param_types.get(chain[0])
            target = self.classes_by_name.get(tname) if tname else None
            if target is not None and chain[1] in target.methods:
                return _method_uid(target, chain[1])
            imports = self._imports.get(unit.module)
            if imports is not None:
                base = imports.aliases.get(chain[0])
                if base is not None and (base, chain[1]) in self._functions:
                    return ("f", base, chain[1])
            return None
        if len(chain) == 1:
            name = chain[0]
            if (unit.module, name) in self._functions:
                return ("f", unit.module, name)
            imports = self._imports.get(unit.module)
            if imports is not None and name in imports.from_imports:
                mod, orig = imports.from_imports[name]
                if (mod, orig) in self._functions:
                    return ("f", mod, orig)
                target = self.classes_by_name.get(orig)
                if (
                    target is not None
                    and target.module == mod
                    and "__init__" in target.methods
                ):
                    return _method_uid(target, "__init__")
                return None
            target = self.classes_by_name.get(name)
            if (
                target is not None
                and target.module == unit.module
                and "__init__" in target.methods
            ):
                return _method_uid(target, "__init__")
        return None

    def callee_of(self, site: CallSite) -> tuple | None:
        """Memoized resolution (populated during the fixpoint)."""
        return self._site_callees.get(id(site))

    def lock_info(self, unit: UnitModel, attr: str) -> LockInfo | None:
        if unit.cls is None:
            return None
        return unit.cls.locks.get(attr)

    # -- fixpoint summaries --------------------------------------------
    def _summarize(self) -> None:
        for uid, unit in self.units.items():
            acquired: set[str] = set()
            if unit.cls is not None:
                for acq in unit.method.acquisitions:
                    info = unit.cls.locks.get(acq.attr)
                    if info is not None:
                        acquired.add(info.node_name)
            self.transitive_acquires[uid] = acquired
            for site in unit.method.call_sites:
                self._site_callees[id(site)] = self.resolve(site, unit)
            reason = next(
                (
                    site_block_reason(site)
                    for site in unit.method.call_sites
                    if site_block_reason(site)
                ),
                None,
            )
            if reason is not None:
                self.blocks[uid] = (reason, ())
        changed = True
        iterations = 0
        while changed and iterations < 50:
            changed = False
            iterations += 1
            for uid, unit in self.units.items():
                acquired = self.transitive_acquires[uid]
                for site in unit.method.call_sites:
                    callee = self._site_callees.get(id(site))
                    if callee is None or callee not in self.units:
                        continue
                    extra = self.transitive_acquires[callee] - acquired
                    if extra:
                        acquired |= extra
                        changed = True
                    if uid not in self.blocks and callee in self.blocks:
                        reason, trail = self.blocks[callee]
                        self.blocks[uid] = (
                            reason,
                            (self.units[callee].qualname, *trail[:3]),
                        )
                        changed = True


def build_project_model(project: ProjectContext) -> ProjectLockModel:
    model = ProjectLockModel()
    ambiguous: set[str] = set()
    for ctx in project.files:
        module = module_name_of(ctx.relpath)
        imports = _Imports()
        model._imports[module] = imports
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        imports.aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        imports.aliases[root] = root
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    imports.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )
        comments = {line: text for line, _col, text in _iter_comments(ctx.source)}
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                cls_model = _build_class_model(ctx, node, comments, module)
                model.classes.append(cls_model)
                if cls_model.name in model.classes_by_name:
                    ambiguous.add(cls_model.name)
                model.classes_by_name[cls_model.name] = cls_model
                for method in cls_model.methods.values():
                    uid = _method_uid(cls_model, method.name)
                    model.units[uid] = UnitModel(
                        uid=uid,
                        qualname=method.qualname,
                        module=module,
                        cls=cls_model,
                        method=method,
                        path=ctx.path,
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walker = _MethodWalker({}, frozenset())
                walker.walk(node)
                method = MethodModel(
                    name=node.name,
                    qualname=f"{module}:{node.name}",
                    node=node,
                    caller_locked=frozenset(),
                    param_types=_param_types(node),
                    accesses=walker.accesses,
                    acquisitions=walker.acquisitions,
                    releases=walker.releases,
                    call_sites=walker.call_sites,
                )
                uid = ("f", module, node.name)
                model.units[uid] = UnitModel(
                    uid=uid,
                    qualname=method.qualname,
                    module=module,
                    cls=None,
                    method=method,
                    path=ctx.path,
                )
                model._functions[(module, node.name)] = uid
    # Name collisions would make cross-class resolution guesswork:
    # drop ambiguous names from typed resolution entirely.
    for name in ambiguous:
        model.classes_by_name.pop(name, None)
    model._summarize()
    return model
