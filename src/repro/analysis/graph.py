"""Project graph — the whole-program view the cross-module rules run on.

The runner assembles one :class:`ProjectGraph` from every module's
:class:`~repro.analysis.symbols.ModuleSymbols` (plus the observability
doc's metric catalogue).  The cross-module rules
(:mod:`repro.analysis.project_rules`) never touch an AST: everything
they join on is in the graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from .symbols import ModuleSymbols

__all__ = ["DocCatalogue", "ProjectGraph", "load_doc_catalogue"]

#: a backticked metric name inside a markdown table row.
_DOC_METRIC_RE = re.compile(r"`(infilter_[a-z0-9]+(?:_[a-z0-9]+)+)`")


@dataclass(frozen=True)
class DocCatalogue:
    """The metric names documented in ``docs/observability.md``."""

    path: str
    #: documented metric name -> first line it appears on.
    names: Dict[str, int] = field(default_factory=dict)


def load_doc_catalogue(path: Path) -> Optional[DocCatalogue]:
    """Parse the metric catalogue out of the observability doc.

    Only backticked ``infilter_*`` tokens inside markdown table rows
    (lines starting with ``|``) count as catalogue entries — prose
    mentions and grep examples in the same doc are not declarations.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return None
    names: Dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.lstrip().startswith("|"):
            continue
        for match in _DOC_METRIC_RE.finditer(line):
            names.setdefault(match.group(1), lineno)
    return DocCatalogue(path=str(path), names=names)


@dataclass(frozen=True)
class ProjectGraph:
    """All module symbol tables plus the doc catalogue, joined."""

    #: dotted module name -> its symbol table.
    modules: Dict[str, ModuleSymbols] = field(default_factory=dict)
    doc: Optional[DocCatalogue] = None

    def resolve_import(self, target: str) -> Optional[str]:
        """Map an absolute import target to a module in this graph.

        ``repro.util.ip.Prefix`` resolves to ``repro.util.ip`` by
        longest-prefix match; targets
        outside the graph (stdlib, third-party) resolve to ``None``.
        """
        candidate = target
        while candidate:
            if candidate in self.modules:
                return candidate
            candidate = candidate.rpartition(".")[0]
        return None

    def edges(self) -> Iterator[Tuple[str, str, int]]:
        """Yield ``(importer, imported, line)`` for in-graph imports."""
        for module, symbols in self.modules.items():
            seen: Dict[str, int] = {}
            for target, line in symbols.import_targets.items():
                resolved = self.resolve_import(target)
                if resolved is None or resolved == module:
                    continue
                if resolved not in seen or line < seen[resolved]:
                    seen[resolved] = line
            for resolved, line in seen.items():
                yield module, resolved, line
