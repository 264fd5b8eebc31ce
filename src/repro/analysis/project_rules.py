"""Cross-module invariant rules (REP011–REP015) — phase 2.

Each :class:`ProjectRule` checks one whole-program property against the
assembled :class:`~repro.analysis.graph.ProjectGraph`:

* **REP011** — the layer DAG.  Every ``repro.*`` package has a declared
  rank in :data:`LAYERS`; imports may only point downward.  A handful
  of :data:`TRANSITIVE_BANS` additionally forbid *reaching* a package
  through any chain, and violations name the full offending chain.
* **REP012** — derived-cache containment.  Fastpath memo state is
  rebuilt, never restored: cache classes in ``repro.fastpath`` must not
  implement the stage-state protocol, and no ``state_dict`` anywhere
  may read an attribute holding a fastpath cache.
* **REP013** — concurrency safety.  Module-level mutable state written
  from ``async def``, and synchronous locks held across an ``await``.
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


_STATE_METHODS = ("state_dict", "load_state")


def _check_cache_containment(graph: ProjectGraph) -> Iterable[Finding]:
    # (a) fastpath cache classes must not join the stage-state protocol.
    fastpath_classes: Dict[str, str] = {}
    for symbols in _checked_modules(graph):
        if not symbols.module.startswith("repro.fastpath"):
            continue
        for cls in symbols.classes.values():
            fastpath_classes[f"{symbols.module}.{cls.name}"] = cls.name
            for method in _STATE_METHODS:
                if method in cls.method_lines:
                    yield Finding(
                        rule="REP012",
                        path=symbols.path,
                        line=cls.method_lines[method],
                        message=(
                            f"fastpath cache class '{cls.name}' implements "
                            f"'{method}'; derived caches are rebuilt, never "
                            "serialized — remove it from the stage-state "
                            "protocol"
                        ),
                    )

    # (b) no state_dict may reach an attribute holding a fastpath cache.
    for symbols in _checked_modules(graph):
        for cls in symbols.classes.values():
            cache_attrs = {
                attr
                for attr, ctor in cls.attr_ctors.items()
                if ctor in fastpath_classes
                or ctor.startswith("repro.fastpath.")
            }
            if not cache_attrs or "state_dict" not in cls.method_lines:
                continue
            # Close over self-method calls reachable from state_dict.
            reachable = {"state_dict"}
            frontier = ["state_dict"]
            while frontier:
                method = frontier.pop()
                for callee in cls.method_self_calls.get(method, ()):
                    if callee in cls.method_lines and callee not in reachable:
                        reachable.add(callee)
                        frontier.append(callee)
            touched = sorted(
                attr
                for method in reachable
                for attr in cls.method_self_reads.get(method, ())
                if attr in cache_attrs
            )
            if touched:
                yield Finding(
                    rule="REP012",
                    path=symbols.path,
                    line=cls.method_lines["state_dict"],
                    message=(
                        f"'{cls.name}.state_dict' reaches derived-cache "
                        f"attribute(s) {', '.join(sorted(set(touched)))}; "
                        "fastpath memos must never be serialized "
                        "(byte-identity rule from the stage-state protocol)"
                    ),
                )


def _check_concurrency(graph: ProjectGraph) -> Iterable[Finding]:
    by_module = {s.module: s for s in _checked_modules(graph)}
    for symbols in by_module.values():
        for fn in symbols.functions:
            if fn.is_async:
                for target_module, name, line, kind in fn.global_writes:
                    owner = (
                        symbols
                        if target_module == ""
                        else by_module.get(target_module)
                    )
                    if owner is None:
                        continue
                    if kind == "rebind":
                        shared = name in owner.module_globals
                    else:
                        shared = name in owner.mutable_globals
                    if not shared:
                        continue
                    yield Finding(
                        rule="REP013",
                        path=symbols.path,
                        line=line,
                        message=(
                            f"module-level state '{name}' (defined at "
                            f"{owner.module}:"
                            f"{owner.module_globals.get(name, 0)}) is "
                            f"written from async function '{fn.qualname}'; "
                            "shared mutable globals under concurrency need a "
                            "lock or per-task state"
                        ),
                    )
            for line in fn.lock_waits:
                yield Finding(
                    rule="REP013",
                    path=symbols.path,
                    line=line,
                    message=(
                        f"synchronous lock held across 'await' in "
                        f"'{fn.qualname}'; this blocks the event loop for "
                        "every other task — use an asyncio lock or release "
                        "before awaiting"
                    ),
                )


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
        id="REP012",
        summary=(
            "Fastpath derived caches stay out of the stage-state protocol: "
            "no state_dict may define or reach memo state."
        ),
        check=_check_cache_containment,
    ),
    ProjectRule(
        id="REP013",
        summary=(
            "No writes to module-level mutable state from async code; "
            "no sync lock held across await."
        ),
        check=_check_concurrency,
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
