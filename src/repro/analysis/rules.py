"""The invariant catalogue.

Each rule encodes one discipline the reproduction depends on, mostly
established the hard way (see ``docs/static-analysis.md`` for the full
story behind each):

========  ==============================================================
REP001    wall-clock reads only in ``util/timebase.py``
REP002    ``random`` module use only in ``util/rng.py``
REP003    library code raises only :class:`~repro.util.errors.ReproError`
          subclasses (plus ``NotImplementedError``/``AssertionError``)
REP004    no mutable default arguments
REP005    ``struct`` unpacks must sit behind a length guard
REP006    metric names follow the documented naming convention
REP007    public modules declare ``__all__`` consistent with their
          definitions
REP008    ``type: ignore`` must be error-code-scoped
REP009    stateful components implement the full stage-state protocol
          (``state_dict(self)`` / ``load_state(self, state)``), and
          ``core/persistence.py`` never reaches into private attributes
          (its own objects' ``self._x`` excepted)
REP010    no blocking calls (``time.sleep``, synchronous socket
          receives/accepts, subprocess waits, console reads) inside
          ``async def`` bodies — event-loop code must stay non-blocking
========  ==============================================================

Rules are pure functions from a parsed :class:`ModuleInfo` to findings —
no I/O, no configuration files, no state — so adding one is writing a
single ``ast`` visitor and registering it in :data:`ALL_RULES`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.analysis.findings import Finding

__all__ = ["ModuleInfo", "Rule", "ALL_RULES", "RULE_IDS"]


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file, as the rules see it."""

    #: path as reported in findings (relative when the input was).
    path: str
    #: normalised posix path used for allowlist suffix matching.
    posix: str
    source: str
    tree: ast.Module
    #: test files get a lighter contract: rules marked ``library_only``
    #: skip them (a test may deliberately raise ValueError or register a
    #: junk metric name to provoke an error path).
    is_test: bool

    @cached_property
    def aliases(self) -> Dict[str, str]:
        """Map local names to the qualified names they import.

        ``import time`` binds ``time -> time``; ``from datetime import
        datetime as dt`` binds ``dt -> datetime.datetime``.  Relative
        imports are project-internal and never resolve to a banned
        stdlib name, so they are skipped.  Walked once per module, for
        every rule that resolves names.
        """
        aliases: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    aliases[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return aliases


@dataclass(frozen=True)
class Rule:
    """One named invariant check."""

    id: str
    summary: str
    check: Callable[[ModuleInfo], Iterable[Finding]]
    #: rule does not apply to test files.
    library_only: bool = False
    #: posix path suffixes exempt from this rule (the module that
    #: legitimately owns the banned construct).
    allowed_paths: Tuple[str, ...] = ()

    def applies_to(self, info: ModuleInfo) -> bool:
        if self.library_only and info.is_test:
            return False
        return not any(info.posix.endswith(suffix) for suffix in self.allowed_paths)


FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def _finding(info: ModuleInfo, rule: str, node: ast.AST, message: str) -> Finding:
    return Finding(
        rule=rule,
        path=info.path,
        line=getattr(node, "lineno", 1),
        message=message,
    )


def _resolve(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain to a qualified dotted name."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    origin = aliases.get(current.id)
    if origin is None:
        return None
    parts.append(origin)
    return ".".join(reversed(parts))


def _walk_scoped(tree: ast.Module) -> Iterator[Tuple[ast.AST, Optional[FuncNode]]]:
    """Yield every node with its innermost enclosing function (or None)."""

    def visit(node: ast.AST, scope: Optional[FuncNode]) -> Iterator[
        Tuple[ast.AST, Optional[FuncNode]]
    ]:
        for child in ast.iter_child_nodes(node):
            yield child, scope
            child_scope = (
                child
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                )
                else scope
            )
            yield from visit(child, child_scope)

    yield from visit(tree, None)


# -- REP001: wall-clock ----------------------------------------------------

#: Reading any of these makes a run depend on when it was started, which
#: breaks bit-for-bit replay.  ``time.perf_counter`` is deliberately not
#: listed: durations are observability, not simulation input.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def _check_wall_clock(info: ModuleInfo) -> Iterator[Finding]:
    aliases = info.aliases
    for node in ast.walk(info.tree):
        if not isinstance(node, (ast.Name, ast.Attribute)):
            continue
        resolved = _resolve(node, aliases)
        if resolved in _WALL_CLOCK:
            yield _finding(
                info,
                "REP001",
                node,
                f"wall-clock read {resolved}(); simulated time comes from"
                " repro.util.timebase.SimClock",
            )


# -- REP002: direct random -------------------------------------------------


def _check_direct_random(info: ModuleInfo) -> Iterator[Finding]:
    aliases = info.aliases
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield _finding(
                        info,
                        "REP002",
                        node,
                        "direct 'import random'; draw from"
                        " repro.util.rng.SeededRng instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module == "random":
                yield _finding(
                    info,
                    "REP002",
                    node,
                    "direct 'from random import ...'; draw from"
                    " repro.util.rng.SeededRng instead",
                )
        elif isinstance(node, ast.Attribute):
            resolved = _resolve(node, aliases)
            if resolved is not None and resolved.startswith("random."):
                yield _finding(
                    info,
                    "REP002",
                    node,
                    f"direct use of {resolved}; draw from"
                    " repro.util.rng.SeededRng instead",
                )


# -- REP003: error taxonomy ------------------------------------------------

#: Builtins that library code must not raise directly: callers catch
#: ReproError at API boundaries, and a raw builtin escapes that contract.
#: The taxonomy in repro.util.errors multiply-inherits (e.g. ConfigError
#: is also a ValueError) so migrating a raise never breaks existing
#: ``except ValueError`` callers.
_RAW_EXCEPTIONS = frozenset(
    {
        "ArithmeticError",
        "AttributeError",
        "BaseException",
        "BufferError",
        "EOFError",
        "Exception",
        "IOError",
        "IndexError",
        "KeyError",
        "LookupError",
        "NameError",
        "OSError",
        "OverflowError",
        "RuntimeError",
        "StopIteration",
        "SystemError",
        "TypeError",
        "ValueError",
        "ZeroDivisionError",
    }
)


def _check_raise_taxonomy(info: ModuleInfo) -> Iterator[Finding]:
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        name: Optional[str] = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name in _RAW_EXCEPTIONS:
            yield _finding(
                info,
                "REP003",
                node,
                f"raises builtin {name}; raise a ReproError subclass from"
                " repro.util.errors so API boundaries can catch one base",
            )


# -- REP004: mutable defaults ----------------------------------------------

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "deque", "defaultdict"})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _MUTABLE_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _MUTABLE_CALLS:
            return True
    return False


def _check_mutable_defaults(info: ModuleInfo) -> Iterator[Finding]:
    for node in ast.walk(info.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults: List[ast.AST] = list(node.args.defaults)
        defaults.extend(d for d in node.args.kw_defaults if d is not None)
        for default in defaults:
            if _is_mutable_default(default):
                yield _finding(
                    info,
                    "REP004",
                    default,
                    "mutable default argument is shared across calls;"
                    " default to None (or use dataclass default_factory)",
                )


# -- REP005: guarded unpack ------------------------------------------------


def _is_unpack_call(node: ast.Call, aliases: Dict[str, str]) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in ("unpack", "unpack_from"):
        return True
    resolved = _resolve(func, aliases)
    return resolved in ("struct.unpack", "struct.unpack_from")


def _test_guards_length(test: ast.AST) -> bool:
    """Does a condition look at a buffer length (``len(...)`` or ``.size``)?"""
    for node in ast.walk(test):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "len":
                return True
        if isinstance(node, ast.Attribute) and node.attr == "size":
            return True
    return False


def _guard_lines(scope: ast.AST) -> List[int]:
    lines = []
    for node in ast.walk(scope):
        if isinstance(node, (ast.If, ast.While)) and _test_guards_length(node.test):
            lines.append(node.lineno)
        elif isinstance(node, ast.Assert) and _test_guards_length(node.test):
            lines.append(node.lineno)
    return lines


def _check_guarded_unpack(info: ModuleInfo) -> Iterator[Finding]:
    aliases = info.aliases
    guard_cache: Dict[int, List[int]] = {}
    for node, scope in _walk_scoped(info.tree):
        if not isinstance(node, ast.Call) or not _is_unpack_call(node, aliases):
            continue
        scope_node: ast.AST = scope if scope is not None else info.tree
        key = id(scope_node)
        if key not in guard_cache:
            guard_cache[key] = _guard_lines(scope_node)
        if not any(line <= node.lineno for line in guard_cache[key]):
            yield _finding(
                info,
                "REP005",
                node,
                "struct unpack without a preceding length guard in this"
                " scope; short network input must raise"
                " NetFlowDecodeError, not struct.error",
            )


# -- REP006: metric naming -------------------------------------------------

_METRIC_NAME_RE = re.compile(r"^infilter_[a-z0-9]+(_[a-z0-9]+)+$")
#: histogram names carry their unit, per the Prometheus conventions the
#: exporter follows (docs/observability.md).
_HISTOGRAM_UNITS = ("_seconds", "_bytes")


def _check_metric_names(info: ModuleInfo) -> Iterator[Finding]:
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        kind = func.attr
        if kind not in ("counter", "gauge", "histogram") or not node.args:
            continue
        first = node.args[0]
        if not isinstance(first, ast.Constant) or not isinstance(first.value, str):
            continue
        name = first.value
        if not _METRIC_NAME_RE.match(name):
            yield _finding(
                info,
                "REP006",
                first,
                f"metric name {name!r} does not match the documented"
                " 'infilter_<component>_<what>' convention",
            )
            continue
        if kind == "counter" and not name.endswith("_total"):
            yield _finding(
                info,
                "REP006",
                first,
                f"counter {name!r} must end in '_total'",
            )
        elif kind == "histogram" and not name.endswith(_HISTOGRAM_UNITS):
            yield _finding(
                info,
                "REP006",
                first,
                f"histogram {name!r} must carry a unit suffix"
                f" ({' or '.join(_HISTOGRAM_UNITS)})",
            )
        elif kind == "gauge" and name.endswith("_total"):
            yield _finding(
                info,
                "REP006",
                first,
                f"gauge {name!r} must not end in '_total' (that suffix"
                " marks monotonic counters)",
            )


# -- REP007: __all__ consistency -------------------------------------------


def _top_level_bindings(tree: ast.Module) -> FrozenSet[str]:
    names: List[str] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        names.append(node.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.append(stmt.target.id)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                names.append(alias.asname or alias.name.split(".")[0])
    return frozenset(names)


def _declared_all(tree: ast.Module) -> Optional[Tuple[ast.AST, List[str]]]:
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        if not isinstance(value, (ast.List, ast.Tuple)):
            return stmt, []
        entries = [
            element.value
            for element in value.elts
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        ]
        return stmt, entries
    return None


def _check_dunder_all(info: ModuleInfo) -> Iterator[Finding]:
    declared = _declared_all(info.tree)
    if declared is None:
        yield Finding(
            rule="REP007",
            path=info.path,
            line=1,
            message="public module declares no __all__; spell out the"
            " export surface",
        )
        return
    stmt, entries = declared
    bindings = _top_level_bindings(info.tree)
    for entry in entries:
        if entry not in bindings:
            yield _finding(
                info,
                "REP007",
                stmt,
                f"__all__ exports {entry!r} which is not defined or"
                " imported at module top level",
            )
    exported = frozenset(entries)
    for node in info.tree.body:
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if node.name.startswith("_") or node.name in exported:
            continue
        yield _finding(
            info,
            "REP007",
            node,
            f"public top-level {node.name!r} is missing from __all__;"
            " export it or prefix it with '_'",
        )


# -- REP008: scoped type-ignores -------------------------------------------

_BARE_IGNORE_RE = re.compile(r"#\s*type:\s*ignore(?!\s*\[)")


def _check_scoped_ignores(info: ModuleInfo) -> Iterator[Finding]:
    for number, line in enumerate(info.source.splitlines(), start=1):
        if _BARE_IGNORE_RE.search(line):
            yield Finding(
                rule="REP008",
                path=info.path,
                line=number,
                message="bare 'type: ignore' suppresses every mypy error"
                " on the line; scope it as 'type: ignore[code]'",
            )


# -- REP009: the stage-state protocol ----------------------------------------


def _is_stateful_decorator(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Name):
        return target.id == "stateful"
    if isinstance(target, ast.Attribute):
        return target.attr == "stateful"
    return False


def _method_named(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _plain_positional_names(fn: ast.FunctionDef) -> Optional[List[str]]:
    """The argument names iff the signature is plain positional-only.

    None when the function takes varargs, keyword-only arguments,
    positional-only markers, or defaults — anything beyond the exact
    protocol shape.
    """
    args = fn.args
    if (
        args.posonlyargs
        or args.kwonlyargs
        or args.vararg is not None
        or args.kwarg is not None
        or args.defaults
    ):
        return None
    return [arg.arg for arg in args.args]


_STATE_SIGNATURES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("state_dict", ("self",)),
    ("load_state", ("self", "state")),
)


def _check_state_protocol(info: ModuleInfo) -> Iterator[Finding]:
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorated = any(
            _is_stateful_decorator(d) for d in node.decorator_list
        )
        methods = {
            name: _method_named(node, name)
            for name, _ in _STATE_SIGNATURES
        }
        if not decorated and not any(methods.values()):
            continue
        for name, signature in _STATE_SIGNATURES:
            method = methods[name]
            if method is None:
                yield _finding(
                    info,
                    "REP009",
                    node,
                    f"stateful component {node.name!r} defines no {name}();"
                    " the stage-state protocol needs both state_dict(self)"
                    " and load_state(self, state)",
                )
            elif tuple(_plain_positional_names(method) or ()) != signature:
                yield _finding(
                    info,
                    "REP009",
                    method,
                    f"{node.name}.{name} must have the exact protocol"
                    f" signature ({', '.join(signature)})",
                )
    if info.posix.endswith("repro/core/persistence.py"):
        for node in ast.walk(info.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not (
                    node.attr.startswith("__") and node.attr.endswith("__")
                )
                # The writer's own memo is not a component's state.
                and not (
                    isinstance(node.value, ast.Name) and node.value.id == "self"
                )
            ):
                yield _finding(
                    info,
                    "REP009",
                    node,
                    f"persistence reaches into private attribute"
                    f" {node.attr!r}; components expose checkpoint state"
                    " only through the stage-state protocol",
                )


# -- REP010: no blocking calls in async bodies --------------------------------

#: Qualified call targets that park the calling thread — inside a
#: coroutine they stall the entire event loop (every queue, socket, and
#: timer it drives).  The async equivalents: ``asyncio.sleep``,
#: ``loop.sock_recv*``, ``loop.run_in_executor`` for subprocess work.
_BLOCKING_QUALIFIED = frozenset(
    {
        "time.sleep",
        "os.wait",
        "os.waitpid",
        "select.select",
        "selectors.DefaultSelector",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
    }
)

#: Method names that are blocking waits on every object that defines
#: them in the stdlib networking/file surface.  ``sendto`` is NOT here:
#: ``asyncio.DatagramTransport.sendto`` is the canonical *non-blocking*
#: UDP send, and a datagram ``socket.sendto`` does not wait either.
_BLOCKING_METHODS = frozenset(
    {"recv", "recvfrom", "recv_into", "recvmsg", "sendall", "accept"}
)


def _check_async_blocking(info: ModuleInfo) -> Iterator[Finding]:
    aliases = info.aliases
    # A call that is directly awaited is the event loop doing its job
    # (``await loop.sock_recv(...)``), never a blocking wait.
    awaited = {
        id(node.value)
        for node in ast.walk(info.tree)
        if isinstance(node, ast.Await)
    }
    for node, scope in _walk_scoped(info.tree):
        if not isinstance(node, ast.Call) or id(node) in awaited:
            continue
        if not isinstance(scope, ast.AsyncFunctionDef):
            continue
        func = node.func
        resolved = _resolve(func, aliases)
        if resolved in _BLOCKING_QUALIFIED:
            yield _finding(
                info,
                "REP010",
                node,
                f"blocking call {resolved}() inside 'async def"
                f" {scope.name}' stalls the event loop; use the asyncio"
                " equivalent (e.g. asyncio.sleep, loop.sock_* or an"
                " executor)",
            )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _BLOCKING_METHODS
            and resolved is None
        ):
            yield _finding(
                info,
                "REP010",
                node,
                f"synchronous .{func.attr}() inside 'async def"
                f" {scope.name}' blocks the event loop; await the"
                " transport/loop API instead",
            )
        elif isinstance(func, ast.Name) and func.id == "input":
            yield _finding(
                info,
                "REP010",
                node,
                f"console read input() inside 'async def {scope.name}'"
                " blocks the event loop",
            )


ALL_RULES: Tuple[Rule, ...] = (
    Rule(
        id="REP001",
        summary="no wall-clock reads outside util/timebase.py",
        check=_check_wall_clock,
        allowed_paths=("repro/util/timebase.py",),
    ),
    Rule(
        id="REP002",
        summary="no direct random module use outside util/rng.py",
        check=_check_direct_random,
        allowed_paths=("repro/util/rng.py",),
    ),
    Rule(
        id="REP003",
        summary="library code raises only ReproError subclasses",
        check=_check_raise_taxonomy,
        library_only=True,
    ),
    Rule(
        id="REP004",
        summary="no mutable default arguments",
        check=_check_mutable_defaults,
    ),
    Rule(
        id="REP005",
        summary="struct unpacks sit behind a length guard",
        check=_check_guarded_unpack,
    ),
    Rule(
        id="REP006",
        summary="metric names follow the documented convention",
        check=_check_metric_names,
        library_only=True,
    ),
    Rule(
        id="REP007",
        summary="public modules declare a consistent __all__",
        check=_check_dunder_all,
        library_only=True,
    ),
    Rule(
        id="REP008",
        summary="type: ignore comments are error-code-scoped",
        check=_check_scoped_ignores,
    ),
    Rule(
        id="REP009",
        summary="stateful components implement the full stage-state protocol",
        check=_check_state_protocol,
        library_only=True,
    ),
    Rule(
        id="REP010",
        summary="no blocking calls inside async def bodies",
        check=_check_async_blocking,
    ),
)

#: Every selectable rule id, including REP000 (linter-internal findings:
#: unparsable files and malformed pragmas).
RULE_IDS: FrozenSet[str] = frozenset(rule.id for rule in ALL_RULES) | {"REP000"}
