"""The repository's invariants, checked over its parsed source.

The reproduced figures hold only because every run replays on simulated
time, seeded randomness, guarded decoding and atomic checkpoints —
conventions Python will not enforce by itself.  Each invariant here is a
check over ``ast.parse`` of every ``*.py`` under ``src/repro/`` and
``tests/``, each file parsed once per run of this module:

* ``test_tree_holds[REPnnn]`` — the repository has no violation;
* ``test_catches[REPnnn-…]`` / ``test_passes[REPnnn-…]`` — the check
  flags a seeded violation and lets conforming code through;
* ``test_allowlist_entry_is_needed[…]`` — every file an invariant
  excuses exists and really owns the construct the invariant bans.

``docs/static-analysis.md`` says what each invariant protects.  Fixture
strings that would trip REP008's line check on this file are assembled
by concatenation.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import pytest

REPO = Path(__file__).resolve().parents[1]
OBSERVABILITY_DOC = "docs/observability.md"

#: assembled so this file's own lines never contain the marker.
BARE_IGNORE = "# type" + ": ignore"


@dataclass(frozen=True)
class Module:
    """One parsed source file."""

    #: repo-relative posix path; "is a test" means "is under tests/".
    path: str
    source: str
    tree: ast.Module

    @property
    def is_test(self) -> bool:
        return self.path.startswith("tests/")

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """``ast.walk(tree)``, walked once for every check."""
        return list(ast.walk(self.tree))

    @cached_property
    def aliases(self) -> Dict[str, str]:
        """Local names -> the absolute dotted names they import.

        ``import time`` binds ``time -> time``; ``from datetime import
        datetime as dt`` binds ``dt -> datetime.datetime``.
        """
        aliases: Dict[str, str] = {}
        for node in self.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    aliases[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name != "*":
                        local = alias.asname or alias.name
                        aliases[local] = f"{node.module}.{alias.name}"
        return aliases


def parse(path: str, source: str) -> Module:
    return Module(path, source, ast.parse(source, filename=path))


@pytest.fixture(scope="module")
def tree() -> List[Module]:
    files = sorted(REPO.glob("src/repro/**/*.py")) + sorted(REPO.glob("tests/**/*.py"))
    return [
        parse(path.relative_to(REPO).as_posix(), path.read_text(encoding="utf-8"))
        for path in files
    ]


# -- shared helpers -----------------------------------------------------------

FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]
#: ``(line, message)`` from a per-file check.
Violation = Tuple[int, str]


def resolve(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain to an absolute dotted name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in aliases:
        return None
    return ".".join([aliases[node.id], *reversed(parts)])


def walk_scoped(tree: ast.AST) -> Iterator[Tuple[ast.AST, Optional[FuncNode]]]:
    """Every node with its innermost enclosing function (or None)."""
    stack: List[Tuple[ast.AST, Optional[FuncNode]]] = [(tree, None)]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope = node
        for child in ast.iter_child_nodes(node):
            yield child, scope
            stack.append((child, scope))


def metric_calls(module: Module) -> Iterator[Tuple[int, str, str]]:
    """``(line, kind, name)`` per ``x.counter/gauge/histogram("name", …)``."""
    for node in module.nodes:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("counter", "gauge", "histogram")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.args[0].lineno, node.func.attr, node.args[0].value


# -- REP001: no wall-clock reads ----------------------------------------------

#: Reading any of these makes a run depend on when it started.
#: ``time.perf_counter`` is not listed: durations are observability
#: output, not simulation input.
WALL_CLOCK = frozenset(
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


def wall_clock(module: Module) -> Iterator[Violation]:
    for node in module.nodes:
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = resolve(node, module.aliases)
            if name in WALL_CLOCK:
                yield node.lineno, (
                    f"wall-clock read {name}(); simulated time comes from"
                    " repro.util.timebase.SimClock"
                )


# -- REP002: no direct random -------------------------------------------------


def direct_random(module: Module) -> Iterator[Violation]:
    fix = "; draw from repro.util.rng.SeededRng instead"
    for node in module.nodes:
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "random" for alias in node.names):
                yield node.lineno, "direct 'import random'" + fix
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module == "random":
                yield node.lineno, "direct 'from random import ...'" + fix
        elif isinstance(node, ast.Attribute):
            name = resolve(node, module.aliases)
            if name is not None and name.startswith("random."):
                yield node.lineno, f"direct use of {name}" + fix


# -- REP003: one error taxonomy -----------------------------------------------

#: Builtins library code must not raise: callers catch ReproError at API
#: boundaries.  The taxonomy multiply-inherits (ConfigError is also a
#: ValueError), so migrating a raise never breaks ``except ValueError``.
RAW_EXCEPTIONS = frozenset(
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


def raise_taxonomy(module: Module) -> Iterator[Violation]:
    for node in module.nodes:
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name in RAW_EXCEPTIONS:
            yield node.lineno, (
                f"raises builtin {name}; raise a ReproError subclass from"
                " repro.util.errors so API boundaries can catch one base"
            )


# -- REP004: no mutable defaults ----------------------------------------------

MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "deque", "defaultdict"})
MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp
)


def mutable_defaults(module: Module) -> Iterator[Violation]:
    for node in module.nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            called = getattr(default, "func", None)
            if isinstance(default, MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and (getattr(called, "id", None) or getattr(called, "attr", None))
                in MUTABLE_CALLS
            ):
                yield default.lineno, (
                    "mutable default argument is shared across calls;"
                    " default to None (or use dataclass default_factory)"
                )


# -- REP005: struct unpacks sit behind a length guard --------------------------


def guards_length(test: ast.AST) -> bool:
    """Does a condition look at a buffer length (``len(...)`` or ``.size``)?"""
    return any(
        (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len")
        or (isinstance(node, ast.Attribute) and node.attr == "size")
        for node in ast.walk(test)
    )


def guarded_unpack(module: Module) -> Iterator[Violation]:
    guards: Dict[int, List[int]] = {}
    for node, scope in walk_scoped(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            (isinstance(func, ast.Attribute) and func.attr in ("unpack", "unpack_from"))
            or resolve(func, module.aliases) in ("struct.unpack", "struct.unpack_from")
        ):
            continue
        body = scope if scope is not None else module.tree
        if id(body) not in guards:
            guards[id(body)] = [
                guard.lineno
                for guard in ast.walk(body)
                if isinstance(guard, (ast.If, ast.While, ast.Assert))
                and guards_length(guard.test)
            ]
        if not any(line <= node.lineno for line in guards[id(body)]):
            yield node.lineno, (
                "struct unpack without a preceding length guard in this scope;"
                " short network input must raise NetFlowDecodeError, not"
                " struct.error"
            )


# -- REP006: metric naming ----------------------------------------------------

METRIC_NAME = re.compile(r"^infilter_[a-z0-9]+(_[a-z0-9]+)+$")
#: histograms carry their unit, per the Prometheus conventions.
HISTOGRAM_UNITS = ("_seconds", "_bytes")


def metric_names(module: Module) -> Iterator[Violation]:
    for line, kind, name in metric_calls(module):
        if not METRIC_NAME.match(name):
            yield line, (
                f"metric name {name!r} does not match the documented"
                " 'infilter_<component>_<what>' convention"
            )
        elif kind == "counter" and not name.endswith("_total"):
            yield line, f"counter {name!r} must end in '_total'"
        elif kind == "histogram" and not name.endswith(HISTOGRAM_UNITS):
            yield line, (
                f"histogram {name!r} must carry a unit suffix"
                f" ({' or '.join(HISTOGRAM_UNITS)})"
            )
        elif kind == "gauge" and name.endswith("_total"):
            yield line, (
                f"gauge {name!r} must not end in '_total' (that suffix marks"
                " monotonic counters)"
            )


# -- REP007: a consistent __all__ ---------------------------------------------


def top_level_bindings(tree: ast.Module) -> FrozenSet[str]:
    names: List[str] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.extend(
                node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)
            )
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names.extend(
                alias.asname or alias.name.split(".")[0]
                for alias in stmt.names
                if alias.name != "*"
            )
    return frozenset(names)


def dunder_all(module: Module) -> Iterator[Violation]:
    declared = [
        stmt
        for stmt in module.tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        and stmt.value is not None
        and any(
            getattr(target, "id", None) == "__all__"
            for target in (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
        )
    ]
    if not declared:
        yield 1, "public module declares no __all__; spell out the export surface"
        return
    value = declared[0].value
    entries = [
        element.value
        for element in getattr(value, "elts", [])
        if isinstance(element, ast.Constant) and isinstance(element.value, str)
    ]
    bindings = top_level_bindings(module.tree)
    for entry in entries:
        if entry not in bindings:
            yield declared[0].lineno, (
                f"__all__ exports {entry!r} which is not defined or imported"
                " at module top level"
            )
    for node in module.tree.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in entries
        ):
            yield node.lineno, (
                f"public top-level {node.name!r} is missing from __all__;"
                " export it or prefix it with '_'"
            )


# -- REP008: error-code-scoped type ignores -----------------------------------

BARE_IGNORE_RE = re.compile(r"#\s*type:\s*ignore(?!\s*\[)")


def scoped_ignores(module: Module) -> Iterator[Violation]:
    for number, line in enumerate(module.source.splitlines(), start=1):
        if BARE_IGNORE_RE.search(line):
            yield number, (
                "bare 'type: ignore' suppresses every mypy error on the line;"
                " scope it as 'type: ignore[code]'"
            )


# -- REP009: the stage-state protocol -----------------------------------------

PERSISTENCE = "src/repro/core/persistence.py"
STATE_SIGNATURES = {"state_dict": ["self"], "load_state": ["self", "state"]}


def plain_positional(fn: ast.FunctionDef) -> Optional[List[str]]:
    """The argument names iff the signature is plain positional, no defaults."""
    args = fn.args
    if (
        args.posonlyargs
        or args.kwonlyargs
        or args.vararg
        or args.kwarg
        or args.defaults
    ):
        return None
    return [arg.arg for arg in args.args]


def state_protocol(module: Module) -> Iterator[Violation]:
    for node in module.nodes:
        if not isinstance(node, ast.ClassDef):
            continue
        decorated = any(
            "stateful"
            in (getattr(target, "id", None), getattr(target, "attr", None))
            for target in (getattr(d, "func", d) for d in node.decorator_list)
        )
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, ast.FunctionDef) and stmt.name in STATE_SIGNATURES
        }
        if not decorated and not methods:
            continue
        for name, signature in STATE_SIGNATURES.items():
            if name not in methods:
                yield node.lineno, (
                    f"stateful component {node.name!r} defines no {name}();"
                    " the stage-state protocol needs both state_dict(self)"
                    " and load_state(self, state)"
                )
            elif plain_positional(methods[name]) != signature:
                yield methods[name].lineno, (
                    f"{node.name}.{name} must have the exact protocol"
                    f" signature ({', '.join(signature)})"
                )
    if module.path != PERSISTENCE:
        return
    for node in module.nodes:
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
            # The writer's own memo is not a component's state.
            and getattr(node.value, "id", None) != "self"
        ):
            yield node.lineno, (
                f"persistence reaches into private attribute {node.attr!r};"
                " components expose checkpoint state only through the"
                " stage-state protocol"
            )


# -- REP010: no blocking calls in async bodies --------------------------------

#: Call targets that park the thread — inside a coroutine they stall
#: the whole event loop.
BLOCKING_CALLS = frozenset(
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
#: Blocking socket waits.  ``sendto`` is not here: a datagram send and
#: ``asyncio.DatagramTransport.sendto`` never wait.
BLOCKING_METHODS = frozenset(
    {"recv", "recvfrom", "recv_into", "recvmsg", "sendall", "accept"}
)


def async_blocking(module: Module) -> Iterator[Violation]:
    for coroutine in module.nodes:
        if not isinstance(coroutine, ast.AsyncFunctionDef):
            continue
        # A directly awaited call is the event loop doing its job.
        awaited = {
            id(node.value)
            for node in ast.walk(coroutine)
            if isinstance(node, ast.Await)
        }
        where = f"inside 'async def {coroutine.name}' blocks the event loop"
        for node, scope in walk_scoped(coroutine):
            if (
                scope is not coroutine
                or not isinstance(node, ast.Call)
                or id(node) in awaited
            ):
                continue
            func = node.func
            name = resolve(func, module.aliases)
            if name in BLOCKING_CALLS:
                yield node.lineno, (
                    f"blocking call {name}() {where}; use the asyncio equivalent"
                    " (e.g. asyncio.sleep, loop.sock_* or an executor)"
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in BLOCKING_METHODS
                and name is None
            ):
                yield node.lineno, (
                    f"synchronous .{func.attr}() {where}; await the transport/loop API"
                )
            elif isinstance(func, ast.Name) and func.id == "input":
                yield node.lineno, f"console read input() {where}"


# -- REP011: the layer DAG ----------------------------------------------------

#: ``repro.<package>`` -> rank.  An import is legal only if it stays
#: inside one package or points at a strictly lower rank.  ``__init__``
#: is the ``repro`` facade, which re-exports from every layer.
LAYERS = {
    "util": 0,
    "obs": 1,
    "netflow": 2,
    "routing": 2,
    "fastpath": 3,
    "flowgen": 3,
    "validation": 3,
    "core": 4,
    "serve": 5,
    "testbed": 5,
    "baselines": 6,
    "cli": 7,
    "__init__": 8,
}
#: packages that must not *reach* the listed ones through any chain.
REACH_BANS = {"core": ("serve",), "fastpath": ("core", "serve")}


def package(path: str) -> str:
    """``src/repro/core/eia.py`` -> ``core``; ``src/repro/cli.py`` -> ``cli``."""
    return path.split("/")[2].removesuffix(".py")


def dotted(path: str) -> str:
    """``src/repro/core/eia.py`` -> ``repro.core.eia``."""
    module = path[len("src/"):].removesuffix(".py").removesuffix("/__init__")
    return module.replace("/", ".")


def import_edges(modules: Sequence[Module]) -> Dict[str, Dict[str, int]]:
    """importer path -> {imported path: first line}, inside ``modules``."""
    paths = {dotted(module.path): module.path for module in modules}
    edges: Dict[str, Dict[str, int]] = {}
    for module in modules:
        here = dotted(module.path).split(".")
        if not module.path.endswith("/__init__.py"):
            here.pop()
        targets: List[Tuple[str, int]] = []
        for node in module.nodes:
            if isinstance(node, ast.Import):
                targets.extend((alias.name, node.lineno) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = here[: len(here) - node.level + 1] if node.level else []
                base = ".".join(base + [node.module or ""]).strip(".")
                targets.append((base, node.lineno))
                targets.extend((f"{base}.{a.name}", node.lineno) for a in node.names)
        found = edges.setdefault(module.path, {})
        for target, line in targets:
            while target and target not in paths:
                target = target.rpartition(".")[0]
            if target and paths[target] != module.path:
                found.setdefault(paths[target], line)
    return edges


def layer_violations(modules: Sequence[Module]) -> Iterator[Tuple[str, int, str]]:
    edges = import_edges([module for module in modules if not module.is_test])
    for importer, imported in edges.items():
        for target, line in imported.items():
            src, dst = package(importer), package(target)
            if src == dst:
                continue
            if src not in LAYERS or dst not in LAYERS:
                missing = src if src not in LAYERS else dst
                yield importer, line, (
                    f"package 'repro.{missing}' is not in the declared layer"
                    " table (tests/test_invariants.py LAYERS); give it a rank"
                )
            elif LAYERS[dst] >= LAYERS[src]:
                yield importer, line, (
                    f"layer violation: 'repro.{src}' (rank {LAYERS[src]}) imports"
                    f" '{dotted(target)}' ('repro.{dst}' is rank {LAYERS[dst]});"
                    " imports must point strictly down the layer DAG"
                )
    # Name the whole chain when a banned package is reached indirectly.
    for start in sorted(edges):
        banned = REACH_BANS.get(package(start), ())
        if not banned:
            continue
        parent: Dict[str, str] = {}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for target in edges.get(current, {}):
                if target in parent or target == start:
                    continue
                parent[target] = current
                if package(target) not in banned:
                    queue.append(target)
                    continue
                chain = [target]
                while chain[-1] != start:
                    chain.append(parent[chain[-1]])
                if len(chain) > 2:
                    yield start, edges[start][chain[-2]], (
                        f"'repro.{package(start)}' must not reach"
                        f" 'repro.{package(target)}'; offending import chain: "
                        + " -> ".join(dotted(path) for path in reversed(chain))
                    )


# -- REP014: checkpoint writes go through the atomic helper -------------------

#: expression text that marks a raw write as targeting a checkpoint.
CHECKPOINT_HINT = re.compile(r"checkpoint|ckpt|save_state|state_path", re.IGNORECASE)


def checkpoint_writes(module: Module) -> Iterator[Violation]:
    for node in module.nodes:
        if not isinstance(node, ast.Call):
            continue
        func, what, target = node.func, "", ""
        name = resolve(func, module.aliases) or ""
        if name.split(".")[-2:] == ["os", "replace"]:
            what, target = "os.replace", ast.unparse(node)
        elif getattr(func, "id", None) == "open" and node.args:
            modes = [
                *node.args[1:2],
                *(keyword.value for keyword in node.keywords if keyword.arg == "mode"),
            ]
            mode = "".join(
                str(m.value) for m in modes if isinstance(m, ast.Constant)
            )
            if "w" in mode:
                what, target = f"open(..., {mode!r})", ast.unparse(node.args[0])
        elif getattr(func, "attr", None) in ("write_text", "write_bytes"):
            what, target = f".{func.attr}", ast.unparse(func.value)
        if CHECKPOINT_HINT.search(target):
            yield node.lineno, (
                f"raw checkpoint write ({what}: {target[:80]}); checkpoint"
                " files must flow through the atomic temp+os.replace helper in"
                " repro.core.persistence so crashes never leave a torn checkpoint"
            )


# -- REP015: the metric catalogue matches the code ----------------------------

#: a backticked metric name, counted only inside a markdown table row.
DOC_METRIC = re.compile(r"`(infilter_[a-z0-9]+(?:_[a-z0-9]+)+)`")


def metric_drift(modules: Sequence[Module], doc: str) -> Iterator[Tuple[str, int, str]]:
    registered: Dict[str, Tuple[str, int]] = {}
    for module in modules:
        if not module.is_test:
            for line, _, name in metric_calls(module):
                if name.startswith("infilter_"):
                    registered.setdefault(name, (module.path, line))
    documented: Dict[str, int] = {}
    for number, text in enumerate(doc.splitlines(), start=1):
        if text.lstrip().startswith("|"):
            for match in DOC_METRIC.finditer(text):
                documented.setdefault(match.group(1), number)
    for name, (path, line) in sorted(registered.items()):
        if name not in documented:
            yield path, line, (
                f"metric '{name}' is registered in code but missing from the"
                f" catalogue tables in {OBSERVABILITY_DOC}"
            )
    for name, line in sorted(documented.items()):
        if name not in registered:
            yield OBSERVABILITY_DOC, line, (
                f"metric '{name}' is documented in {OBSERVABILITY_DOC} but"
                " never registered in code"
            )


# -- the catalogue ------------------------------------------------------------

LIBRARY = ("src/",)
EVERYWHERE = ("src/", "tests/")

#: id -> (check, paths it covers, the files it excuses).  Library-only
#: invariants skip tests, which deliberately raise builtins or register
#: junk metric names to provoke error paths.  A file is excused only
#: when it owns the banned construct (``test_allowlist_entry_is_needed``).
FILE_INVARIANTS: Dict[
    str, Tuple[Callable[[Module], Iterable[Violation]], Tuple[str, ...], FrozenSet[str]]
] = {
    "REP001": (wall_clock, EVERYWHERE, frozenset()),
    "REP002": (direct_random, EVERYWHERE, frozenset({"src/repro/util/rng.py"})),
    "REP003": (raise_taxonomy, LIBRARY, frozenset()),
    "REP004": (mutable_defaults, EVERYWHERE, frozenset()),
    "REP005": (guarded_unpack, EVERYWHERE, frozenset()),
    "REP006": (metric_names, LIBRARY, frozenset()),
    "REP007": (dunder_all, LIBRARY, frozenset()),
    "REP008": (scoped_ignores, EVERYWHERE, frozenset()),
    "REP009": (state_protocol, LIBRARY, frozenset()),
    "REP010": (async_blocking, EVERYWHERE, frozenset()),
    "REP014": (checkpoint_writes, LIBRARY, frozenset()),
}
#: whole-tree invariants: ``check(modules, observability doc text)``.
PROJECT_INVARIANTS: Dict[
    str, Callable[[Sequence[Module], str], Iterable[Tuple[str, int, str]]]
] = {
    "REP011": lambda modules, doc: layer_violations(modules),
    "REP015": metric_drift,
}
INVARIANTS = sorted([*FILE_INVARIANTS, *PROJECT_INVARIANTS])


def violations(rule: str, modules: Sequence[Module], doc: str) -> List[str]:
    """``path:line: RULE message`` for every violation of ``rule``."""
    if rule in PROJECT_INVARIANTS:
        found = list(PROJECT_INVARIANTS[rule](modules, doc))
    else:
        check, covered, excused = FILE_INVARIANTS[rule]
        found = [
            (module.path, line, message)
            for module in modules
            if module.path.startswith(covered) and module.path not in excused
            for line, message in check(module)
        ]
    return [f"{path}:{line}: {rule} {message}" for path, line, message in sorted(found)]


# -- the repository holds -----------------------------------------------------


@pytest.mark.parametrize("rule", INVARIANTS)
def test_tree_holds(rule, tree):
    doc = (REPO / OBSERVABILITY_DOC).read_text(encoding="utf-8")
    found = violations(rule, tree, doc)
    assert not found, "\n" + "\n".join(found)


def test_tree_walk_is_not_vacuous(tree):
    assert {
        "src/repro/util/rng.py",
        "src/repro/util/timebase.py",
        "src/repro/core/persistence.py",
        "src/repro/core/pipeline.py",
        "tests/conftest.py",
    } <= {module.path for module in tree}


@pytest.mark.parametrize(
    "rule, path",
    [
        (rule, path)
        for rule, (_, _, excused) in FILE_INVARIANTS.items()
        for path in sorted(excused)
    ],
)
def test_allowlist_entry_is_needed(rule, path, tree):
    (module,) = [module for module in tree if module.path == path]
    check = FILE_INVARIANTS[rule][0]
    assert list(check(module)), f"{path} no longer needs its {rule} exemption"


def test_layer_table_names_every_package(tree):
    packages = {package(module.path) for module in tree if not module.is_test}
    assert packages == set(LAYERS)


def test_docs_table_lists_every_invariant():
    doc = (REPO / "docs" / "static-analysis.md").read_text(encoding="utf-8")
    row = r"^\| (REP\d{3}) \|.*\| `tests/test_invariants\.py"
    documented = re.findall(row, doc, re.M)
    assert documented == INVARIANTS


# -- each check catches what it exists to catch -------------------------------

#: where a single-source fixture lives: library code, covered by every check.
LIB = "src/repro/core/fixture.py"
Fixture = Union[str, Dict[str, str]]


def fixture_violations(case: str, files: Fixture) -> List[str]:
    files = files if isinstance(files, dict) else {LIB: files}
    modules = [
        parse(path, text) for path, text in files.items() if path.endswith(".py")
    ]
    return violations(case.split("-")[0], modules, files.get(OBSERVABILITY_DOC, ""))


def doc_rows(*names: str) -> str:
    rows = "".join(f"| `{name}` | counter |\n" for name in names)
    return "| Metric | Kind |\n|---|---|\n" + rows


SLEEP_IN_ASYNC = "import time\n\nasync def worker():\n    time.sleep(1)\n"
STATE_PAIR = (
    "class Component:\n"
    "    def state_dict(self):\n        return {}\n\n"
    "    def load_state(self, state):\n        return None\n"
)
REGISTERS_DROPS = (
    "def setup(registry):\n"
    "    registry.counter('infilter_serve_drops_total', 'dropped')\n"
)

#: case -> (violations expected, a fragment one of them carries, source).
CATCHES: Dict[str, Tuple[int, str, Fixture]] = {
    "REP001-time-time": (1, "SimClock", "import time\n\nSTARTED = time.time()\n"),
    "REP001-datetime-now": (
        1,
        "datetime.datetime.now",
        "from datetime import datetime\n\nNOW = datetime.now()\n",
    ),
    "REP001-in-a-test": (
        1, "time.time", {"tests/test_x.py": "import time\nT = time.time()\n"}
    ),
    "REP002-import-and-use": (
        2, "SeededRng", "import random\n\nrng = random.Random(7)\n"
    ),
    "REP002-from-import": (1, "from random", "from random import shuffle\n"),
    "REP003-builtin-raise": (
        1,
        "ReproError",
        "def check(x):\n    if x < 0:\n        raise ValueError('negative')\n",
    ),
    "REP004-list-literal": (
        1, "mutable default", "def add(item, bucket=[]):\n    bucket.append(item)\n"
    ),
    "REP004-dict-call-keyword-only": (
        1,
        "mutable default",
        "def add(item, *, index=dict()):\n    index[item] = True\n",
    ),
    "REP005-unguarded-unpack": (
        1,
        "length guard",
        "import struct\n\ndef decode(data):\n    return struct.unpack('!HH', data)\n",
    ),
    "REP006-bad-prefix": (
        1,
        "convention",
        "def register(r):\n    return r.counter('flows_total', 'Flows.')\n",
    ),
    "REP006-counter-without-total": (
        1,
        "_total",
        "def register(r):\n    return r.counter('infilter_pipeline_flows', 'F.')\n",
    ),
    "REP006-histogram-without-unit": (
        1,
        "unit suffix",
        "def register(r):\n    return r.histogram('infilter_batch_latency', 'L.')\n",
    ),
    "REP006-gauge-ending-total": (
        1,
        "gauge",
        "def register(r):\n    return r.gauge('infilter_queue_total', 'Q.')\n",
    ),
    "REP007-missing-all": (1, "no __all__", "def helper():\n    return 1\n"),
    "REP007-undefined-export": (1, "'missing'", "__all__ = ['missing']\n"),
    "REP007-unexported-public-def": (
        1,
        "'stray'",
        "__all__ = ['exported']\n\ndef exported():\n    return 1\n\n"
        "def stray():\n    return 2\n",
    ),
    "REP008-bare-ignore": (
        1, "bare 'type: ignore'", f"x = undefined()  {BARE_IGNORE}\n"
    ),
    "REP009-missing-load-state": (
        1,
        "load_state()",
        "class Component:\n    def state_dict(self):\n        return {}\n",
    ),
    "REP009-missing-state-dict": (
        1,
        "state_dict()",
        "class Component:\n    def load_state(self, state):\n        return None\n",
    ),
    "REP009-decorated-without-methods": (
        2,
        "defines no",
        "from repro.core.state import stateful\n\n\n"
        "@stateful('widget')\nclass Widget:\n    pass\n",
    ),
    "REP009-wrong-signature": (
        1,
        "(self)",
        STATE_PAIR.replace("state_dict(self)", "state_dict(self, verbose=False)"),
    ),
    "REP009-persistence-touches-underscores": (
        1,
        "_alert_counter",
        {PERSISTENCE: "def peek(detector):\n    return detector._alert_counter\n"},
    ),
    "REP010-time-sleep": (1, "asyncio.sleep", SLEEP_IN_ASYNC),
    "REP010-aliased-import": (
        1,
        "subprocess.run",
        "import subprocess as sp\n\nasync def runner():\n    sp.run(['ls'])\n",
    ),
    "REP010-socket-recv": (
        1, ".recv()", "async def reader(sock):\n    return sock.recv(1024)\n"
    ),
    "REP010-console-input": (
        1, "input()", "async def prompt():\n    return input()\n"
    ),
    "REP010-in-a-test": (1, "time.sleep", {"tests/test_x.py": SLEEP_IN_ASYNC}),
    "REP011-upward-import": (
        1,
        "layer violation",
        {
            "src/repro/core/thing.py": "import repro.serve.daemon\n",
            "src/repro/serve/daemon.py": "",
        },
    ),
    "REP011-names-the-chain": (
        # The chain, plus the upward edge that makes it.
        2,
        "repro.core.thing -> repro.fastpath.lru -> repro.serve.daemon",
        {
            "src/repro/core/thing.py": "import repro.fastpath.lru\n",
            "src/repro/fastpath/lru.py": "from ..serve import daemon\n",
            "src/repro/serve/daemon.py": "",
        },
    ),
    "REP011-package-missing-from-table": (
        1,
        "layer table",
        {
            "src/repro/mystery/thing.py": "import repro.util.errors\n",
            "src/repro/util/errors.py": "",
        },
    ),
    "REP014-raw-os-replace": (
        1,
        "atomic",
        "import os\n\ndef save(tmp_name, checkpoint_path):\n"
        "    os.replace(tmp_name, checkpoint_path)\n",
    ),
    "REP014-raw-open-for-write": (
        1,
        "open(..., 'w')",
        "import json\n\ndef save(state, checkpoint_path):\n"
        "    with open(checkpoint_path, 'w') as handle:\n"
        "        json.dump(state, handle)\n",
    ),
    "REP015-registered-not-documented": (
        1,
        "infilter_serve_drops_total",
        {"src/repro/serve/metrics.py": REGISTERS_DROPS, OBSERVABILITY_DOC: doc_rows()},
    ),
    "REP015-documented-not-registered": (
        1,
        f"{OBSERVABILITY_DOC}:3: REP015 metric 'infilter_ghost_total'",
        {
            "src/repro/obs/registry.py": REGISTERS_DROPS,
            OBSERVABILITY_DOC: doc_rows(
                "infilter_ghost_total", "infilter_serve_drops_total"
            ),
        },
    ),
}

#: case -> conforming source the check must let through.
PASSES: Dict[str, Fixture] = {
    "REP001-perf-counter": "import time\n\nELAPSED = time.perf_counter()\n",
    "REP002-seeded-rng": "from repro.util.rng import SeededRng\n\nrng = SeededRng(7)\n",
    "REP002-in-the-rng-module": {
        "src/repro/util/rng.py": "import random\n\nR = random.Random(7)\n"
    },
    "REP003-taxonomy-and-reraise": (
        "from repro.util.errors import ConfigError\n\n"
        "def check(x):\n"
        "    if x < 0:\n        raise ConfigError('negative')\n"
        "    if x == 1:\n        raise NotImplementedError\n"
        "    try:\n        return 1 // x\n"
        "    except ZeroDivisionError:\n        raise\n"
    ),
    "REP003-in-a-test": {
        "tests/test_x.py": "def test_boom():\n    raise RuntimeError('boom')\n"
    },
    "REP004-none-default": (
        "def add(item, bucket=None):\n    bucket = [] if bucket is None else bucket\n"
    ),
    "REP005-length-guard": (
        "import struct\n\ndef decode(data):\n"
        "    if len(data) < 4:\n        raise ValueError('short')\n"
        "    return struct.unpack('!HH', data[:4])\n"
    ),
    "REP005-struct-size-guard": (
        "import struct\n\nHEADER = struct.Struct('!HH')\n\ndef decode(data):\n"
        "    if len(data) < HEADER.size:\n        raise ValueError('short')\n"
        "    return HEADER.unpack_from(data, 0)\n"
    ),
    "REP006-conforming-names": (
        "def register(r):\n"
        "    r.counter('infilter_serve_batches_total', 'B.')\n"
        "    r.gauge('infilter_serve_queue_depth', 'Q.')\n"
        "    r.histogram('infilter_serve_wait_seconds', 'W.')\n"
    ),
    "REP007-consistent-module": (
        "__all__ = ['CONSTANT', 'exported']\n\nCONSTANT = 3\n\n"
        "def exported():\n    return CONSTANT\n\ndef _private():\n    return 0\n"
    ),
    "REP007-in-a-test": {"tests/helpers.py": "def helper():\n    return 1\n"},
    "REP008-scoped-ignore": f"x = undefined()  {BARE_IGNORE}[name-defined]\n",
    "REP009-complete-pair": STATE_PAIR,
    "REP009-persistence-keeps-its-own-private-state": {
        PERSISTENCE: (
            "class Writer:\n    def save(self, detector):\n"
            "        self._sink = detector.alert_sink\n        return self._sink\n"
        )
    },
    "REP009-underscore-access-elsewhere": "def peek(d):\n    return d._alert_counter\n",
    "REP009-dunder-access-in-persistence": {
        PERSISTENCE: "def name_of(obj):\n    return obj.__class__\n"
    },
    "REP010-sync-def": "import time\n\ndef worker():\n    time.sleep(1)\n",
    "REP010-awaited-loop-api": (
        "import asyncio\n\nasync def reader(loop, sock):\n"
        "    await asyncio.sleep(0)\n    return await loop.sock_recv(sock, 1024)\n"
    ),
    "REP010-datagram-sendto": (
        "async def pump(transport, data):\n    transport.sendto(data)\n"
    ),
    "REP010-sync-helper-nested-in-async": (
        "import time\n\nasync def outer():\n"
        "    def helper():\n        time.sleep(1)\n    return helper\n"
    ),
    "REP011-downward-import": {
        "src/repro/core/thing.py": "import repro.netflow.record\n",
        "src/repro/netflow/record.py": "",
    },
    "REP011-tests-are-exempt": {
        "tests/test_thing.py": "import repro.serve.daemon\n",
        "src/repro/serve/daemon.py": "",
    },
    "REP014-non-checkpoint-write": (
        "def save(report_path, text):\n"
        "    with open(report_path, 'w') as handle:\n        handle.write(text)\n"
    ),
    "REP015-matching-catalogue": {
        "src/repro/obs/registry.py": REGISTERS_DROPS,
        OBSERVABILITY_DOC: doc_rows("infilter_serve_drops_total"),
    },
    "REP015-prose-is-not-catalogue": {
        "src/repro/obs/registry.py": REGISTERS_DROPS,
        OBSERVABILITY_DOC: (
            "Run grep `infilter_prose_only_total` on the export.\n\n"
            + doc_rows("infilter_serve_drops_total")
        ),
    },
}


@pytest.mark.parametrize("case", sorted(CATCHES))
def test_catches(case):
    count, fragment, files = CATCHES[case]
    found = fixture_violations(case, files)
    assert len(found) == count, found
    assert any(fragment in line for line in found), found


@pytest.mark.parametrize("case", sorted(PASSES))
def test_passes(case):
    assert fixture_violations(case, PASSES[case]) == []
