"""Per-module symbol tables — phase 1 of the whole-program analyzer.

A :class:`ModuleSymbols` is everything the cross-module rules
(:mod:`repro.analysis.project_rules`) need to know about one source
file, extracted from the tree the per-file rules have just read.  The
runner keeps the table and drops the AST, so the
:class:`~repro.analysis.graph.ProjectGraph` holds a summary per module
rather than every parsed file at once.

The tables are deliberately *conservative summaries*, not full dataflow
facts: imports resolved to absolute dotted names, metric registrations,
and raw checkpoint-style write sites.
Each project rule then joins these summaries across modules; any
precision the summary lacks errs toward silence on a single file and
toward a finding only when two modules actually disagree.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "MetricReg",
    "ModuleSymbols",
    "build_symbols",
]

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
class ModuleSymbols:
    """Everything the project rules know about one module."""

    module: str
    path: str
    posix: str
    is_test: bool
    #: local alias -> absolute dotted origin, e.g. ``Prefix`` ->
    #: ``repro.util.ip.Prefix`` (relative imports resolved
    #: against the module's own package).
    imports: Dict[str, str] = field(default_factory=dict)
    #: absolute dotted import target -> first import line; the graph
    #: keeps only the targets that resolve to modules it holds.
    import_targets: Dict[str, int] = field(default_factory=dict)
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


def _resolve_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    chain = _attr_chain(node)
    if chain is None:
        return None
    root, parts = chain
    origin = aliases.get(root)
    if origin is None:
        return None
    return ".".join((origin, *parts)) if parts else origin


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
    return ModuleSymbols(
        module=module,
        path=path,
        posix=posix,
        is_test=is_test,
        imports=aliases,
        import_targets=targets,
        metrics=_collect_metrics(tree),
        checkpoint_writes=_collect_checkpoint_writes(tree, aliases),
    )
