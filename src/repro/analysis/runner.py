"""Discovering files, applying rules, filtering suppressions.

:func:`run` is the whole programmatic surface: hand it paths (files or
directories), get back a sorted list of findings.  The CLI, the CI gate
and the self-clean test all call this one function, so they cannot drift
apart on discovery or suppression semantics.

A run is one serial pass in one process.  Each file is parsed once; the
selected per-file rules (REP001–REP010) run on its AST and its symbol
table is built from the same tree.  The tables are then assembled into
a :class:`~repro.analysis.graph.ProjectGraph` for the cross-module
rules (REP011, REP014, REP015), which are relations *between* modules
and so can only run once every module has been seen.  There is no other mode: the
same paths and the same selection give the same findings however and
whenever the command is invoked.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.findings import Finding
from repro.analysis.graph import ProjectGraph, load_doc_catalogue
from repro.analysis.pragmas import PragmaTable, parse_pragmas
from repro.analysis.project_rules import PROJECT_RULES, PROJECT_RULE_IDS
from repro.analysis.rules import ALL_RULES, RULE_IDS, ModuleInfo
from repro.analysis.symbols import ModuleSymbols, build_symbols
from repro.util.errors import ConfigError

__all__ = ["run", "iter_python_files", "KNOWN_RULE_IDS"]

#: directory names never descended into.
_SKIP_DIRS = frozenset({".git", "__pycache__", ".mypy_cache", ".pytest_cache"})

#: every rule id a pragma or --select/--ignore may name.
KNOWN_RULE_IDS: FrozenSet[str] = RULE_IDS | PROJECT_RULE_IDS


def _discover(paths: Sequence[str]) -> List[Tuple[Path, Tuple[str, ...]]]:
    """Resolve lint roots to ``(file, parts relative to its root)``.

    Order is the roots' order with each directory walked sorted, and a
    file reached through two overlapping roots (``src src/repro``) is
    kept once, at its first occurrence — findings must never be
    double-reported.  The relative parts (which include the root's own
    basename: ``infilter lint tests`` really is linting test code) are
    what test-file detection matches against, so a checkout living
    under a directory named ``test`` does not turn the whole tree into
    test files.  A file named directly has no root, so its parts are
    the packages it lives in: ``tests/reference_chain.py`` is test code
    whether reached by name or through ``tests``.
    """
    discovered: List[Tuple[Path, Tuple[str, ...]]] = []
    seen: Set[str] = set()

    def add(path: Path, rel_parts: Tuple[str, ...]) -> None:
        key = path.resolve().as_posix()
        if key in seen:
            return
        seen.add(key)
        discovered.append((path, rel_parts))

    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ConfigError(f"lint path does not exist: {raw}")
        if path.is_file():
            add(path, _package_parts(path) + (path.name,))
            continue
        root_name = (path.name,) if path.name else ()
        for child in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in child.parts):
                continue
            add(child, root_name + child.relative_to(path).parts)
    return discovered


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories.

    Directories are walked in sorted order so findings come out in a
    stable order on every platform, and overlapping inputs are
    deduplicated on resolved path.  A path that does not exist raises
    :class:`~repro.util.errors.ConfigError` — a typo'd CI invocation must
    fail loudly, not lint nothing and pass.
    """
    for path, _ in _discover(paths):
        yield path


def _is_test_file(name: str, rel_parts: Tuple[str, ...]) -> bool:
    """Test-file detection against root-relative parts only."""
    if any(part in ("tests", "test") for part in rel_parts[:-1]):
        return True
    return name.startswith("test_") or name == "conftest.py"


def _package_parts(path: Path) -> Tuple[str, ...]:
    """The packages enclosing one file, outermost first.

    Climbs parents while ``__init__.py`` exists, from the resolved path
    so that a bare file name given from inside a package still climbs
    (and terminates).
    """
    parts: List[str] = []
    current = path.resolve().parent
    while (current / "__init__.py").is_file():
        parts.insert(0, current.name)
        current = current.parent
    return tuple(parts)


def _module_name(path: Path, rel_parts: Tuple[str, ...]) -> str:
    """Best-effort dotted module name for one source file.

    Prefer the real package structure (``src/repro/fastpath/plane.py`` →
    ``repro.fastpath.plane`` however the lint was invoked).  Fall back
    to the root-relative parts with a leading ``src`` stripped, which
    covers bare fixture trees without ``__init__.py`` files.
    """
    packages = list(_package_parts(path))
    if path.name == "__init__.py":
        return ".".join(packages)
    if not packages:
        packages = list(rel_parts[:-1])
        if packages and packages[0] == "src":
            packages = packages[1:]
    return ".".join(packages + [path.stem])


def _normalise_selection(
    raw: Optional[Iterable[str]], option: str
) -> Optional[FrozenSet[str]]:
    if raw is None:
        return None
    selection: Set[str] = set()
    for item in raw:
        for rule in item.split(","):
            rule = rule.strip().upper()
            if not rule:
                continue
            if rule not in KNOWN_RULE_IDS:
                raise ConfigError(
                    f"{option} names unknown rule {rule!r};"
                    f" known rules: {', '.join(sorted(KNOWN_RULE_IDS))}"
                )
            selection.add(rule)
    return frozenset(selection)


def _load(path: Path, is_test: bool) -> Union[ModuleInfo, Finding]:
    """Read and parse one file, or say as ``REP000`` why it cannot be."""
    reported = str(path)
    try:
        source = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return Finding("REP000", reported, 1, f"unreadable file: {error}")
    try:
        tree = ast.parse(source, filename=reported)
    except SyntaxError as error:
        return Finding(
            "REP000", reported, error.lineno or 1, f"syntax error: {error.msg}"
        )
    return ModuleInfo(
        path=reported,
        posix=path.resolve().as_posix(),
        source=source,
        tree=tree,
        is_test=is_test,
    )


def _find_doc(paths: Sequence[str]) -> Optional[Path]:
    """Locate ``docs/observability.md`` relative to the lint roots."""
    for raw in paths:
        candidate = Path(raw)
        if candidate.is_file():
            candidate = candidate.parent
        for _ in range(4):
            doc = candidate / "docs" / "observability.md"
            if doc.is_file():
                return doc
            parent = candidate.parent
            if parent == candidate:
                break
            candidate = parent
    return None


def run(
    paths: Sequence[str],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint ``paths`` and return all surviving findings, sorted.

    ``select`` restricts checking to the listed rule ids — a rule that
    is not selected is not run, and with no project rule selected no
    symbol table is built; ``ignore`` drops the listed ids after
    checking.  Pragma suppressions (see :mod:`repro.analysis.pragmas`)
    apply either way, and pragma *errors* surface as ``REP000`` findings
    subject to the same select/ignore filtering.
    """
    selected = _normalise_selection(select, "--select")
    ignored = _normalise_selection(ignore, "--ignore") or frozenset()

    def selects(rule_id: str) -> bool:
        return selected is None or rule_id in selected

    file_rules = [rule for rule in ALL_RULES if selects(rule.id)]
    project_rules = [rule for rule in PROJECT_RULES if selects(rule.id)]

    findings: List[Finding] = []
    pragma_tables: Dict[str, PragmaTable] = {}
    modules: Dict[str, ModuleSymbols] = {}
    for path, rel_parts in _discover(paths):
        info = _load(path, _is_test_file(path.name, rel_parts))
        if isinstance(info, Finding):
            findings.append(info)
            continue
        pragmas = parse_pragmas(info.path, info.source, KNOWN_RULE_IDS)
        pragma_tables[info.path] = pragmas
        findings.extend(pragmas.errors)
        for rule in file_rules:
            if not rule.applies_to(info):
                continue
            for finding in rule.check(info):
                if not pragmas.allows(finding.rule, finding.line):
                    findings.append(finding)
        if project_rules:
            symbols = build_symbols(
                module=_module_name(path, rel_parts),
                path=info.path,
                posix=info.posix,
                tree=info.tree,
                is_test=info.is_test,
                is_package=path.name == "__init__.py",
            )
            modules.setdefault(symbols.module, symbols)

    if project_rules:
        doc_path = _find_doc(paths)
        graph = ProjectGraph(
            modules=modules,
            doc=load_doc_catalogue(doc_path) if doc_path is not None else None,
        )
        for project_rule in project_rules:
            for finding in project_rule.check(graph):
                table = pragma_tables.get(finding.path)
                if table is None or not table.allows(finding.rule, finding.line):
                    findings.append(finding)

    # Only REP000 can still be unselected here; ``ignore`` drops the rest.
    findings = [
        finding
        for finding in findings
        if selects(finding.rule) and finding.rule not in ignored
    ]
    findings.sort(key=Finding.sort_key)
    return findings
