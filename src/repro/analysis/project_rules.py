"""Cross-module invariant rules (REP011, REP014, REP015) — phase 2.

Each :class:`ProjectRule` checks one whole-program property against the
assembled :class:`~repro.analysis.graph.ProjectGraph`:

* **REP011** — the layer DAG.  Every ``repro.*`` package has a declared
  rank in :data:`LAYERS`; imports may only point downward.  A handful
  of :data:`TRANSITIVE_BANS` additionally forbid *reaching* a package
  through any chain, and violations name the full offending chain.
* **REP014** — checkpoint-write containment.  Raw checkpoint writes
  (``open(..., "w")``, ``os.replace``, ``write_bytes``) belong in the
  atomic helper in ``repro.core.persistence`` and nowhere else.
* **REP015** — metric-name drift, both directions, between registered
  ``infilter_*`` metrics and the ``docs/observability.md`` catalogue.

Project rules skip test modules: tests intentionally construct the very
shapes these rules exist to forbid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .findings import Finding
from .graph import ProjectGraph
from .symbols import ModuleSymbols

__all__ = [
    "LAYERS",
    "PROJECT_RULES",
    "PROJECT_RULE_IDS",
    "ProjectRule",
    "TRANSITIVE_BANS",
]


@dataclass(frozen=True)
class ProjectRule:
    """One whole-program invariant check."""

    id: str
    summary: str
    check: Callable[[ProjectGraph], Iterable[Finding]]


#: The declared layer DAG: ``repro.<package>`` -> rank.  An import
#: edge is legal only if it stays inside one package or points at a
#: strictly lower rank.  This table is the single source of truth the
#: docs render; amend it here first.
LAYERS: Dict[str, int] = {
    "util": 0,
    "obs": 1,
    "analysis": 1,
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
}

#: rank given to the ``repro`` package facade itself (``repro/__init__``
#: re-exports from everywhere, so it sits above every layer).
_FACADE_RANK = 99

#: Hard reachability bans on top of the rank check: ``src`` must not
#: reach any package in its ban set through *any* import chain.  The
#: rank check already rejects direct upward edges; these catch laundering
#: an upward dependency through an intermediate layer.
TRANSITIVE_BANS: Dict[str, Tuple[str, ...]] = {
    "core": ("serve",),
    "fastpath": ("core", "serve"),
    "analysis": (
        "baselines",
        "cli",
        "core",
        "fastpath",
        "flowgen",
        "netflow",
        "obs",
        "routing",
        "serve",
        "testbed",
        "validation",
    ),
}


def _package_of(module: str) -> Optional[str]:
    """``repro.fastpath.plane`` -> ``fastpath``; non-repro -> None."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return ""
    return parts[1]


def _rank(package: str) -> Optional[int]:
    if package == "":
        return _FACADE_RANK
    return LAYERS.get(package)


def _checked_modules(graph: ProjectGraph) -> Iterable[ModuleSymbols]:
    for name in sorted(graph.modules):
        symbols = graph.modules[name]
        if symbols.is_test or not name.startswith("repro"):
            continue
        yield symbols


def _check_layers(graph: ProjectGraph) -> Iterable[Finding]:
    checked = {s.module for s in _checked_modules(graph)}
    # adjacency over checked repro modules, for the chain search.
    adjacency: Dict[str, List[Tuple[str, int]]] = {m: [] for m in checked}
    direct: List[Finding] = []
    for importer, imported, line in graph.edges():
        if importer not in checked:
            continue
        src_pkg = _package_of(importer)
        dst_pkg = _package_of(imported)
        if src_pkg is None or dst_pkg is None:
            continue
        if imported in checked:
            adjacency[importer].append((imported, line))
        if src_pkg == dst_pkg:
            continue
        src_rank = _rank(src_pkg)
        dst_rank = _rank(dst_pkg)
        path = graph.modules[importer].path
        if src_rank is None:
            direct.append(
                Finding(
                    rule="REP011",
                    path=path,
                    line=line,
                    message=(
                        f"package 'repro.{src_pkg}' is not in the declared "
                        "layer table (repro.analysis.project_rules.LAYERS); "
                        "add it with a rank before importing across layers"
                    ),
                )
            )
            continue
        if dst_rank is None:
            direct.append(
                Finding(
                    rule="REP011",
                    path=path,
                    line=line,
                    message=(
                        f"import of 'repro.{dst_pkg}' which is not in the "
                        "declared layer table "
                        "(repro.analysis.project_rules.LAYERS)"
                    ),
                )
            )
            continue
        if dst_rank >= src_rank:
            direct.append(
                Finding(
                    rule="REP011",
                    path=path,
                    line=line,
                    message=(
                        f"layer violation: 'repro.{src_pkg}' (rank "
                        f"{src_rank}) imports '{imported}' ('repro.{dst_pkg}'"
                        f" is rank {dst_rank}); imports must point strictly "
                        "down the layer DAG"
                    ),
                )
            )
    yield from direct

    # Transitive bans: BFS from each module of a banned-source package,
    # reporting only chains of length >= 2 (direct edges are already
    # covered by the rank check above).
    for src_pkg, banned in TRANSITIVE_BANS.items():
        banned_set = set(banned)
        for module in sorted(checked):
            if _package_of(module) != src_pkg:
                continue
            parent: Dict[str, Tuple[str, int]] = {}
            queue = deque([module])
            seen = {module}
            while queue:
                current = queue.popleft()
                for neighbour, line in adjacency.get(current, []):
                    if neighbour in seen:
                        continue
                    seen.add(neighbour)
                    parent[neighbour] = (current, line)
                    pkg = _package_of(neighbour)
                    if pkg in banned_set:
                        chain = [neighbour]
                        node = neighbour
                        while node in parent:
                            node = parent[node][0]
                            chain.append(node)
                        chain.reverse()
                        if len(chain) > 2:
                            first_line = parent[chain[1]][1]
                            yield Finding(
                                rule="REP011",
                                path=graph.modules[module].path,
                                line=first_line,
                                message=(
                                    f"'repro.{src_pkg}' must not reach "
                                    f"'repro.{pkg}'; offending import "
                                    "chain: " + " -> ".join(chain)
                                ),
                            )
                        continue
                    queue.append(neighbour)


_ATOMIC_HELPER_SUFFIX = "repro/core/persistence.py"


def _check_checkpoint_writes(graph: ProjectGraph) -> Iterable[Finding]:
    for symbols in _checked_modules(graph):
        if symbols.posix.endswith(_ATOMIC_HELPER_SUFFIX):
            continue
        for line, desc in symbols.checkpoint_writes:
            yield Finding(
                rule="REP014",
                path=symbols.path,
                line=line,
                message=(
                    f"raw checkpoint write ({desc}); checkpoint files must "
                    "flow through the atomic temp+os.replace helper in "
                    "repro.core.persistence so crashes never leave a "
                    "torn checkpoint"
                ),
            )


def _check_metric_drift(graph: ProjectGraph) -> Iterable[Finding]:
    registered: Dict[str, Tuple[str, int]] = {}
    for symbols in _checked_modules(graph):
        for metric in symbols.metrics:
            if not metric.name.startswith("infilter_"):
                continue
            registered.setdefault(metric.name, (symbols.path, metric.line))
    doc = graph.doc
    if doc is None:
        return
    for name in sorted(registered):
        if name not in doc.names:
            path, line = registered[name]
            yield Finding(
                rule="REP015",
                path=path,
                line=line,
                message=(
                    f"metric '{name}' is registered in code but missing "
                    "from the catalogue tables in docs/observability.md"
                ),
            )
    # The doc->code direction is only meaningful when the whole tree is
    # being linted; keyed on the registry module being in the graph so a
    # partial lint of one file does not declare every metric undocumented.
    if "repro.obs.registry" not in graph.modules:
        return
    for name in sorted(doc.names):
        if name not in registered:
            yield Finding(
                rule="REP015",
                path=doc.path,
                line=doc.names[name],
                message=(
                    f"metric '{name}' is documented in "
                    "docs/observability.md but never registered in code"
                ),
            )


PROJECT_RULES: Tuple[ProjectRule, ...] = (
    ProjectRule(
        id="REP011",
        summary=(
            "Imports must follow the declared layer DAG; banned packages "
            "must be unreachable through any import chain."
        ),
        check=_check_layers,
    ),
    ProjectRule(
        id="REP014",
        summary=(
            "Checkpoint writes go through the atomic helper in "
            "repro.core.persistence, never raw open/os.replace."
        ),
        check=_check_checkpoint_writes,
    ),
    ProjectRule(
        id="REP015",
        summary=(
            "Registered infilter_* metrics and the docs/observability.md "
            "catalogue must match exactly, both directions."
        ),
        check=_check_metric_drift,
    ),
)

PROJECT_RULE_IDS = frozenset(rule.id for rule in PROJECT_RULES)
