"""Per-module symbol tables — phase 1 of the whole-program analyzer.

A :class:`ModuleSymbols` is everything the cross-module rules
(:mod:`repro.analysis.project_rules`) need to know about one source
file, extracted from the tree the per-file rules have just read.  The
runner keeps the table and drops the AST, so the
:class:`~repro.analysis.graph.ProjectGraph` holds a summary per module
rather than every parsed file at once.

The tables are deliberately *conservative summaries*, not full dataflow
facts: imports resolved to absolute dotted names, per-class attribute
assignments and reads, writes to module-level state from function
scopes, metric registrations, and raw checkpoint-style write sites.
Each project rule then joins these summaries across modules; any
precision the summary lacks errs toward silence on a single file and
toward a finding only when two modules actually disagree.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = [
    "ClassSymbol",
    "FunctionSymbol",
    "MetricReg",
    "ModuleSymbols",
    "build_symbols",
]

#: method names that mutate their receiver in place — the write half of
#: the REP013 shared-state check.
_MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

#: calls/literals whose result is shared mutable state when bound at
#: module level (mirrors the REP004 mutable-default table).
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "OrderedDict"}
)

#: identifier substrings that mark a context manager as a lock-ish
#: object for the held-across-await check.
_LOCK_HINT_RE = re.compile(r"lock|mutex|semaphore", re.IGNORECASE)

#: expression text that marks a raw write as targeting a checkpoint
#: path (the REP014 containment check).
_CHECKPOINT_HINT_RE = re.compile(
    r"checkpoint|ckpt|save_state|state_path", re.IGNORECASE
)


@dataclass(frozen=True)
class MetricReg:
    """One ``registry.counter/gauge/histogram("name", ...)`` call site."""

    name: str
    kind: str
    line: int


@dataclass(frozen=True)
class FunctionSymbol:
    """One function or method scope, with the facts REP013 joins on."""

    qualname: str
    line: int
    is_async: bool
    #: writes to module-level state reached from this scope:
    #: ``(module, name, line, kind)`` where ``module`` is the dotted
    #: module written through an import alias ("" for this module's own
    #: globals) and ``kind`` is ``"rebind"`` or ``"mutate"``.
    global_writes: Tuple[Tuple[str, str, int, str], ...] = ()
    #: lines of synchronous ``with <lock>`` statements whose body
    #: contains an ``await`` (only populated for async scopes).
    lock_waits: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ClassSymbol:
    """One class definition, summarized for the containment rules."""

    name: str
    line: int
    #: ``self.<attr> = ...`` assignment -> first line it happens.
    self_attrs: Dict[str, int] = field(default_factory=dict)
    #: attr -> resolved dotted name of the constructor it is assigned
    #: from (``self.fastpath = FastPath(...)`` ->
    #: ``repro.fastpath.plane.FastPath``), when resolvable.
    attr_ctors: Dict[str, str] = field(default_factory=dict)
    #: method name -> definition line.
    method_lines: Dict[str, int] = field(default_factory=dict)
    #: method name -> every ``self.<attr>`` it reads or calls through.
    method_self_reads: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: method name -> sibling methods it invokes as ``self.m(...)``.
    method_self_calls: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class ModuleSymbols:
    """Everything the project rules know about one module."""

    module: str
    path: str
    posix: str
    is_test: bool
    #: local alias -> absolute dotted origin, e.g. ``FastPath`` ->
    #: ``repro.fastpath.plane.FastPath`` (relative imports resolved
    #: against the module's own package).
    imports: Dict[str, str] = field(default_factory=dict)
    #: absolute dotted import target -> first import line; the graph
    #: keeps only the targets that resolve to modules it holds.
    import_targets: Dict[str, int] = field(default_factory=dict)
    #: every module-level binding -> line (for rebind hazards).
    module_globals: Dict[str, int] = field(default_factory=dict)
    #: the subset bound to mutable containers at module level.
    mutable_globals: Dict[str, int] = field(default_factory=dict)
    functions: Tuple[FunctionSymbol, ...] = ()
    classes: Dict[str, ClassSymbol] = field(default_factory=dict)
    metrics: Tuple[MetricReg, ...] = ()
    #: raw checkpoint-style write sites: ``(line, description)``.
    checkpoint_writes: Tuple[Tuple[int, str], ...] = ()


# -- extraction ---------------------------------------------------------------


def _package_of(module: str, is_package: bool) -> str:
    if is_package:
        return module
    return module.rpartition(".")[0]


def _collect_imports(
    tree: ast.Module, module: str, is_package: bool
) -> Tuple[Dict[str, str], Dict[str, int]]:
    """(alias -> absolute origin, absolute target -> first line)."""
    aliases: Dict[str, str] = {}
    targets: Dict[str, int] = {}
    package = _package_of(module, is_package)

    def record(target: str, line: int) -> None:
        targets.setdefault(target, line)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else local
                record(alias.name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                # Resolve the relative import against this module's
                # package: one level is the package itself, each extra
                # level climbs one parent.
                parts = package.split(".") if package else []
                climb = node.level - 1
                if climb > len(parts):
                    continue
                kept = parts[: len(parts) - climb]
                base = ".".join(kept + ([node.module] if node.module else []))
            if not base:
                continue
            record(base, node.lineno)
            for alias in node.names:
                if alias.name == "*":
                    continue
                origin = f"{base}.{alias.name}"
                aliases[alias.asname or alias.name] = origin
                record(origin, node.lineno)
    return aliases, targets


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _MUTABLE_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _MUTABLE_CALLS:
            return True
    return False


def _module_level_bindings(
    tree: ast.Module,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """(every top-level binding, the mutable-container subset)."""
    bindings: Dict[str, int] = {}
    mutable: Dict[str, int] = {}
    for stmt in tree.body:
        names: List[str] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            value = stmt.value
            for target in stmt.targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        names.append(node.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            value = stmt.value
            names.append(stmt.target.id)
        for name in names:
            bindings.setdefault(name, stmt.lineno)
            if value is not None and _is_mutable_value(value):
                mutable.setdefault(name, stmt.lineno)
    return bindings, mutable


def _attr_chain(node: ast.AST) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """Decompose ``root.a.b`` into ``("root", ("a", "b"))``."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    return current.id, tuple(reversed(parts))


def _local_bindings(fn: ast.AST) -> Tuple[Set[str], Set[str]]:
    """(locally bound names, ``global``-declared names) for one scope."""
    assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    local: Set[str] = set()
    declared_global: Set[str] = set()
    args = fn.args
    for arg in (
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ):
        local.add(arg.arg)
    for node in _scope_body_walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    local.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            local.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    local.add(sub.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for sub in ast.walk(item.optional_vars):
                        if isinstance(sub, ast.Name):
                            local.add(sub.id)
    local -= declared_global
    return local, declared_global


def _scope_body_walk(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk one function's body without descending into nested scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _collect_global_writes(
    fn: ast.AST, aliases: Dict[str, str]
) -> Tuple[Tuple[str, str, int, str], ...]:
    """Writes to module-level state visible from one function scope."""
    local, declared_global = _local_bindings(fn)
    writes: List[Tuple[str, str, int, str]] = []

    def classify(root: str, chain: Tuple[str, ...], line: int, kind: str) -> None:
        if root in local:
            return
        origin = aliases.get(root)
        if origin is not None and chain:
            # A dotted write through an import alias: ``w.CACHE[...] =``
            # targets ``CACHE`` in module ``origin``.
            writes.append((origin, chain[0], line, kind))
        elif origin is None and not chain:
            writes.append(("", root, line, kind))
        elif origin is None and chain:
            # ``obj.attr`` on a module-level object of this module.
            writes.append(("", root, line, kind))

    for node in _scope_body_walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in declared_global:
                        writes.append(("", target.id, node.lineno, "rebind"))
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    base = (
                        target.value
                        if isinstance(target, ast.Subscript)
                        else target.value
                    )
                    chain = _attr_chain(base)
                    if chain is not None:
                        root, parts = chain
                        classify(root, parts, node.lineno, "mutate")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHODS:
                chain = _attr_chain(node.func.value)
                if chain is not None:
                    root, parts = chain
                    classify(root, parts, node.lineno, "mutate")
    return tuple(writes)


def _collect_lock_waits(fn: ast.AST) -> Tuple[int, ...]:
    """Sync ``with <lock-ish>`` statements holding across an ``await``."""
    lines: List[int] = []
    for node in _scope_body_walk(fn):
        if not isinstance(node, ast.With):
            continue
        lockish = False
        for item in node.items:
            for sub in ast.walk(item.context_expr):
                if isinstance(sub, ast.Name) and _LOCK_HINT_RE.search(sub.id):
                    lockish = True
                elif isinstance(sub, ast.Attribute) and _LOCK_HINT_RE.search(
                    sub.attr
                ):
                    lockish = True
        if not lockish:
            continue
        for stmt in node.body:
            for sub in _scope_body_walk_stmt(stmt):
                if isinstance(sub, ast.Await):
                    lines.append(node.lineno)
                    break
            else:
                continue
            break
    return tuple(lines)


def _scope_body_walk_stmt(stmt: ast.AST) -> Iterator[ast.AST]:
    yield stmt
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return
    for child in ast.iter_child_nodes(stmt):
        yield from _scope_body_walk_stmt(child)


def _resolve_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    chain = _attr_chain(node)
    if chain is None:
        return None
    root, parts = chain
    origin = aliases.get(root)
    if origin is None:
        return None
    return ".".join((origin, *parts)) if parts else origin


def _collect_functions(
    tree: ast.Module, aliases: Dict[str, str]
) -> Tuple[FunctionSymbol, ...]:
    symbols: List[FunctionSymbol] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                is_async = isinstance(child, ast.AsyncFunctionDef)
                symbols.append(
                    FunctionSymbol(
                        qualname=qualname,
                        line=child.lineno,
                        is_async=is_async,
                        global_writes=_collect_global_writes(child, aliases),
                        lock_waits=(
                            _collect_lock_waits(child) if is_async else ()
                        ),
                    )
                )
                visit(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return tuple(symbols)


def _collect_classes(
    tree: ast.Module, aliases: Dict[str, str]
) -> Dict[str, ClassSymbol]:
    classes: Dict[str, ClassSymbol] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        self_attrs: Dict[str, int] = {}
        attr_ctors: Dict[str, str] = {}
        method_lines: Dict[str, int] = {}
        method_self_reads: Dict[str, Tuple[str, ...]] = {}
        method_self_calls: Dict[str, Tuple[str, ...]] = {}
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method_lines.setdefault(stmt.name, stmt.lineno)
            reads: List[str] = []
            calls: List[str] = []
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Attribute) and isinstance(
                    sub.value, ast.Name
                ):
                    if sub.value.id != "self":
                        continue
                    if isinstance(sub.ctx, ast.Load):
                        reads.append(sub.attr)
                    elif isinstance(sub.ctx, ast.Store):
                        self_attrs.setdefault(sub.attr, sub.lineno)
                elif isinstance(sub, ast.Call):
                    func = sub.func
                    if (
                        isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                    ):
                        calls.append(func.attr)
                if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    # ``self.x = C()`` and ``self.x: C[int] = C()`` alike.
                    targets = (
                        sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and isinstance(sub.value, ast.Call)
                        ):
                            ctor = _resolve_name(sub.value.func, aliases)
                            if ctor is None and isinstance(
                                sub.value.func, ast.Name
                            ):
                                ctor = sub.value.func.id
                            if ctor is not None:
                                attr_ctors.setdefault(target.attr, ctor)
            method_self_reads[stmt.name] = tuple(dict.fromkeys(reads))
            method_self_calls[stmt.name] = tuple(dict.fromkeys(calls))
        classes[node.name] = ClassSymbol(
            name=node.name,
            line=node.lineno,
            self_attrs=self_attrs,
            attr_ctors=attr_ctors,
            method_lines=method_lines,
            method_self_reads=method_self_reads,
            method_self_calls=method_self_calls,
        )
    return classes


def _collect_metrics(tree: ast.Module) -> Tuple[MetricReg, ...]:
    metrics: List[MetricReg] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in ("counter", "gauge", "histogram") or not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            metrics.append(
                MetricReg(name=first.value, kind=func.attr, line=first.lineno)
            )
    return tuple(metrics)


def _collect_checkpoint_writes(
    tree: ast.Module, aliases: Dict[str, str]
) -> Tuple[Tuple[int, str], ...]:
    """Raw write sites whose target expression smells like a checkpoint."""
    writes: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        resolved = _resolve_name(func, aliases)
        if resolved == "os.replace" or (
            isinstance(func, ast.Attribute) and func.attr == "replace"
            and resolved is not None and resolved.endswith("os.replace")
        ):
            rendered = ast.unparse(node)
            if _CHECKPOINT_HINT_RE.search(rendered):
                writes.append((node.lineno, f"os.replace: {rendered[:80]}"))
        elif isinstance(func, ast.Name) and func.id == "open":
            mode = ""
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
                mode = str(node.args[1].value)
            for keyword in node.keywords:
                if keyword.arg == "mode" and isinstance(
                    keyword.value, ast.Constant
                ):
                    mode = str(keyword.value.value)
            if "w" in mode and node.args:
                rendered = ast.unparse(node.args[0])
                if _CHECKPOINT_HINT_RE.search(rendered):
                    writes.append(
                        (node.lineno, f"open(..., {mode!r}): {rendered[:80]}")
                    )
        elif isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            rendered = ast.unparse(func.value)
            if _CHECKPOINT_HINT_RE.search(rendered):
                writes.append(
                    (node.lineno, f".{func.attr}: {rendered[:80]}")
                )
    return tuple(writes)


def build_symbols(
    *,
    module: str,
    path: str,
    posix: str,
    tree: ast.Module,
    is_test: bool,
    is_package: bool,
) -> ModuleSymbols:
    """Extract one module's symbol table in a single pass."""
    aliases, targets = _collect_imports(tree, module, is_package)
    module_globals, mutable_globals = _module_level_bindings(tree)
    return ModuleSymbols(
        module=module,
        path=path,
        posix=posix,
        is_test=is_test,
        imports=aliases,
        import_targets=targets,
        module_globals=module_globals,
        mutable_globals=mutable_globals,
        functions=_collect_functions(tree, aliases),
        classes=_collect_classes(tree, aliases),
        metrics=_collect_metrics(tree),
        checkpoint_writes=_collect_checkpoint_writes(tree, aliases),
    )
