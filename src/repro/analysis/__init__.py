"""Static analysis for the reproduction's own invariants.

The commit loop's serial-equivalence guarantee, the measurement
studies' bit-for-bit replays and the decoder's robustness contract all
rest on conventions — simulated time, seeded randomness, one error
taxonomy, guarded parsing — that Python will not enforce by itself.
``repro.analysis`` is an AST linter (stdlib only) that does:

>>> from repro.analysis import run
>>> run(["src"])
[]

Operationally it is the ``infilter lint`` subcommand; in CI it gates
every change next to the tier-1 tests and ``mypy --strict``.  The rule
catalogue, the pragma escape hatch and the recipe for adding a rule live
in ``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.graph import DocCatalogue, ProjectGraph, load_doc_catalogue
from repro.analysis.pragmas import PragmaTable, parse_pragmas
from repro.analysis.project_rules import (
    LAYERS,
    PROJECT_RULE_IDS,
    PROJECT_RULES,
    ProjectRule,
)
from repro.analysis.rules import ALL_RULES, RULE_IDS, ModuleInfo, Rule
from repro.analysis.runner import KNOWN_RULE_IDS, iter_python_files, run
from repro.analysis.sarif import render_sarif
from repro.analysis.symbols import ModuleSymbols, build_symbols

__all__ = [
    "ALL_RULES",
    "DocCatalogue",
    "Finding",
    "KNOWN_RULE_IDS",
    "LAYERS",
    "ModuleInfo",
    "ModuleSymbols",
    "PROJECT_RULES",
    "PROJECT_RULE_IDS",
    "PragmaTable",
    "ProjectGraph",
    "ProjectRule",
    "RULE_IDS",
    "Rule",
    "build_symbols",
    "iter_python_files",
    "load_doc_catalogue",
    "parse_pragmas",
    "render_sarif",
    "run",
]
