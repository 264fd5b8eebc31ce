"""Tests for the whole-program phase of repro.analysis (PR 8).

Covers the project graph, the cross-module rules REP011, REP014 and
REP015 (each with positive and negative fixtures), the SARIF renderer,
the discovery fixes (duplicate yields, root-relative test detection, a
file linted by name) and what ``select`` / ``ignore`` do to the one pass
``run`` makes.

Fixture trees emulate the real layout — ``repro/<package>/<module>.py``
with ``__init__.py`` files so module names resolve by package climbing —
and each test selects only the rule under scrutiny so the per-file rules
stay out of the assertions.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    KNOWN_RULE_IDS,
    LAYERS,
    PROJECT_RULE_IDS,
    PROJECT_RULES,
    RULE_IDS,
    Finding,
    iter_python_files,
    render_sarif,
    run,
)
from repro.analysis import runner
from repro.analysis.graph import load_doc_catalogue
from repro.cli import main
from repro.util.errors import ConfigError

#: assembled so this file's own lines never contain pragma markers.
PRAGMA_BAD_RULE = "# repro" + ": allow[REP999]"


def write_module(root: Path, dotted: str, source: str) -> Path:
    """Create ``repro/pkg/mod.py`` (with ``__init__.py`` chain) under root."""
    parts = dotted.split(".")
    directory = root
    for part in parts[:-1]:
        directory = directory / part
        directory.mkdir(exist_ok=True)
        init = directory / "__init__.py"
        if not init.exists():
            init.write_text("")
    path = directory / f"{parts[-1]}.py"
    path.write_text(source)
    return path


def write_doc(root: Path, *metric_names: str) -> Path:
    doc = root / "docs"
    doc.mkdir(exist_ok=True)
    rows = "\n".join(
        f"| `{name}` | counter | things |" for name in metric_names
    )
    path = doc / "observability.md"
    path.write_text(
        "# Observability\n\n| Metric | Kind | Meaning |\n|---|---|---|\n"
        + rows
        + "\n"
    )
    return path


def rules_of(findings) -> list:
    return [finding.rule for finding in findings]


#: a project-rule fixture: a raw ``os.replace`` onto a checkpoint path.
RAW_CHECKPOINT_WRITE = (
    "import os\n"
    "\n"
    "def save(tmp_name, checkpoint_path):\n"
    "    os.replace(tmp_name, checkpoint_path)\n"
)

CATALOGUE_HEADER = "| rule | check | invariant it protects |"


def documented_rule_ids() -> set:
    """Rule ids in the catalogue tables of ``docs/static-analysis.md``.

    Only tables headed :data:`CATALOGUE_HEADER` count, so the audit
    table's rows for retired ids and prose mentions of ``REP000`` stay
    out.
    """
    doc = Path(__file__).resolve().parents[1] / "docs" / "static-analysis.md"
    ids = set()
    tables = 0
    in_catalogue = False
    for line in doc.read_text().splitlines():
        if line == CATALOGUE_HEADER:
            in_catalogue = True
            tables += 1
        elif not line.startswith("|"):
            in_catalogue = False
        elif in_catalogue and line.startswith("| REP"):
            ids.add(line.split("|")[1].strip())
    assert tables == 2, "expected the file-rule and project-rule catalogues"
    return ids


class TestProjectRuleCatalogue:
    def test_project_rule_ids_are_well_formed_and_disjoint(self):
        ids = [rule.id for rule in PROJECT_RULES]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        assert PROJECT_RULE_IDS == {"REP011", "REP014", "REP015"}
        assert not (PROJECT_RULE_IDS & RULE_IDS)
        assert KNOWN_RULE_IDS == RULE_IDS | PROJECT_RULE_IDS

    def test_layer_table_covers_the_real_tree(self):
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        packages = {
            child.name
            for child in src.iterdir()
            if child.is_dir() and (child / "__init__.py").exists()
        }
        assert packages <= set(LAYERS), (
            "every repro package needs a declared layer rank"
        )

    def test_list_rules_includes_project_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
        assert PROJECT_RULE_IDS <= listed
        # Both directions: a rule without a catalogue row, or a row for
        # a rule that no longer runs, fails here.
        assert listed == documented_rule_ids()


class TestRep011LayerDag:
    def test_flags_upward_import(self, tmp_path):
        write_module(
            tmp_path, "repro.core.thing", "import repro.serve.daemon\n"
        )
        write_module(tmp_path, "repro.serve.daemon", "X = 1\n")
        findings = run([str(tmp_path)], select=["REP011"])
        assert rules_of(findings) == ["REP011"]
        assert "layer violation" in findings[0].message
        assert "repro.serve" in findings[0].message

    def test_downward_import_is_fine(self, tmp_path):
        write_module(
            tmp_path, "repro.core.thing", "import repro.netflow.record\n"
        )
        write_module(tmp_path, "repro.netflow.record", "X = 1\n")
        assert run([str(tmp_path)], select=["REP011"]) == []

    def test_names_the_offending_import_chain(self, tmp_path):
        write_module(
            tmp_path, "repro.core.thing", "import repro.fastpath.lru\n"
        )
        write_module(
            tmp_path, "repro.fastpath.lru", "import repro.serve.daemon\n"
        )
        write_module(tmp_path, "repro.serve.daemon", "X = 1\n")
        findings = run([str(tmp_path)], select=["REP011"])
        chains = [f for f in findings if "import chain" in f.message]
        assert len(chains) == 1
        assert (
            "repro.core.thing -> repro.fastpath.lru -> repro.serve.daemon"
            in chains[0].message
        )

    def test_flags_package_missing_from_layer_table(self, tmp_path):
        write_module(
            tmp_path, "repro.mystery.thing", "import repro.util.errors\n"
        )
        write_module(tmp_path, "repro.util.errors", "X = 1\n")
        findings = run([str(tmp_path)], select=["REP011"])
        assert rules_of(findings) == ["REP011"]
        assert "layer table" in findings[0].message

    def test_test_modules_are_exempt(self, tmp_path):
        write_module(
            tmp_path, "repro.core.test_thing", "import repro.serve.daemon\n"
        )
        write_module(tmp_path, "repro.serve.daemon", "X = 1\n")
        assert run([str(tmp_path)], select=["REP011"]) == []


class TestRep014CheckpointContainment:
    def test_flags_raw_os_replace_on_checkpoint_path(self, tmp_path):
        write_module(tmp_path, "repro.serve.snapshots", RAW_CHECKPOINT_WRITE)
        findings = run([str(tmp_path)], select=["REP014"])
        assert rules_of(findings) == ["REP014"]
        assert "atomic" in findings[0].message

    def test_flags_raw_open_for_write(self, tmp_path):
        write_module(
            tmp_path,
            "repro.serve.snapshots",
            "import json\n"
            "\n"
            "def save(state, checkpoint_path):\n"
            "    with open(checkpoint_path, 'w') as handle:\n"
            "        json.dump(state, handle)\n",
        )
        findings = run([str(tmp_path)], select=["REP014"])
        assert rules_of(findings) == ["REP014"]

    def test_atomic_helper_module_is_exempt(self, tmp_path):
        write_module(
            tmp_path,
            "repro.core.persistence",
            "import os\n"
            "\n"
            "def write_atomic(tmp_name, checkpoint_path):\n"
            "    os.replace(tmp_name, checkpoint_path)\n",
        )
        assert run([str(tmp_path)], select=["REP014"]) == []

    def test_non_checkpoint_write_is_fine(self, tmp_path):
        write_module(
            tmp_path,
            "repro.serve.snapshots",
            "def save(report_path, text):\n"
            "    with open(report_path, 'w') as handle:\n"
            "        handle.write(text)\n",
        )
        assert run([str(tmp_path)], select=["REP014"]) == []


class TestRep015MetricDrift:
    def test_flags_registered_metric_missing_from_doc(self, tmp_path):
        write_doc(tmp_path, "infilter_serve_batches_total")
        write_module(
            tmp_path,
            "repro.serve.metrics",
            "def setup(registry):\n"
            "    registry.counter('infilter_serve_drops_total', 'dropped')\n",
        )
        findings = run([str(tmp_path)], select=["REP015"])
        assert rules_of(findings) == ["REP015"]
        assert "infilter_serve_drops_total" in findings[0].message
        assert "missing" in findings[0].message

    def test_flags_documented_metric_never_registered(self, tmp_path):
        doc = write_doc(
            tmp_path, "infilter_serve_drops_total", "infilter_ghost_total"
        )
        write_module(
            tmp_path,
            "repro.obs.registry",
            "def setup(registry):\n"
            "    registry.counter('infilter_serve_drops_total', 'dropped')\n",
        )
        findings = run([str(tmp_path)], select=["REP015"])
        assert rules_of(findings) == ["REP015"]
        assert "infilter_ghost_total" in findings[0].message
        assert findings[0].path == str(doc)

    def test_matching_catalogue_is_clean(self, tmp_path):
        write_doc(tmp_path, "infilter_serve_drops_total")
        write_module(
            tmp_path,
            "repro.obs.registry",
            "def setup(registry):\n"
            "    registry.counter('infilter_serve_drops_total', 'dropped')\n",
        )
        assert run([str(tmp_path)], select=["REP015"]) == []

    def test_doc_to_code_direction_needs_whole_tree(self, tmp_path):
        # Without the registry module in the graph this is a partial
        # lint; the doc's extra names must not be reported.
        write_doc(tmp_path, "infilter_ghost_total")
        write_module(
            tmp_path,
            "repro.serve.metrics",
            "def setup(registry):\n"
            "    registry.counter('infilter_ghost_total', 'documented')\n",
        )
        assert run([str(tmp_path)], select=["REP015"]) == []

    def test_doc_catalogue_ignores_prose_mentions(self, tmp_path):
        doc = tmp_path / "observability.md"
        doc.write_text(
            "Run grep '^infilter_prose_only_total' on the export.\n"
            "\n"
            "| `infilter_table_entry_total` | counter | meaning |\n"
        )
        catalogue = load_doc_catalogue(doc)
        assert catalogue is not None
        assert set(catalogue.names) == {"infilter_table_entry_total"}


class TestDiscoveryFixes:
    def test_overlapping_roots_lint_once(self, tmp_path):
        write_module(tmp_path, "repro.serve.snapshots", RAW_CHECKPOINT_WRITE)
        once = run([str(tmp_path)], select=["REP014"])
        twice = run(
            [str(tmp_path), str(tmp_path / "repro")], select=["REP014"]
        )
        assert len(once) == 1
        assert rules_of(twice) == rules_of(once)

    def test_iter_python_files_deduplicates(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("X = 1\n")
        files = list(iter_python_files([str(path), str(path), str(tmp_path)]))
        assert files.count(path) <= 1
        assert len([f for f in files if f.resolve() == path.resolve()]) == 1

    def test_checkout_prefix_named_test_is_not_test_code(self, tmp_path):
        # A checkout under .../test/... must not exempt library modules
        # from library-only rules; only parts relative to the lint root
        # (including the root's own basename) count.
        checkout = tmp_path / "test" / "checkout"
        checkout.mkdir(parents=True)
        module = checkout / "mod.py"
        module.write_text("def helper():\n    return 1\n")
        findings = run([str(checkout)], select=["REP007"])
        assert rules_of(findings) == ["REP007"]

    def test_root_named_tests_is_test_code(self, tmp_path):
        root = tmp_path / "tests"
        root.mkdir()
        module = root / "helpers.py"
        module.write_text("def helper():\n    return 1\n")
        assert run([str(root)], select=["REP007"]) == []

    def test_file_and_its_directory_lint_alike(self, tmp_path):
        # A helper under a ``tests`` package is test code whether it is
        # reached through the directory or named directly.
        root = tmp_path / "tests"
        root.mkdir()
        (root / "__init__.py").write_text("")
        helper = root / "reference_helper.py"
        helper.write_text("def helper():\n    raise ValueError('x')\n")
        by_directory = run([str(root)], select=["REP003", "REP007"])
        by_name = run([str(helper)], select=["REP003", "REP007"])
        assert by_name == by_directory == []

    def test_bare_name_inside_a_package_is_linted(self, tmp_path, monkeypatch):
        path = write_module(tmp_path, "pkg.mod", "def helper():\n    return 1\n")
        monkeypatch.chdir(path.parent)
        assert rules_of(run(["mod.py"], select=["REP007"])) == ["REP007"]

    def test_reference_helpers_are_clean_by_name(self):
        tests_dir = Path(__file__).resolve().parent
        helpers = [
            str(tests_dir / "reference_chain.py"),
            str(tests_dir / "reference_nns.py"),
        ]
        assert main(["lint", *helpers]) == 0


class TestPragmaEdgeCases:
    def test_allow_file_after_first_statement_applies(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(
            "import time\n"
            "\n"
            "STARTED = time.time()\n"
            "\n"
            "# repro: allow-file[REP001] -- fixture exercising wall-clock\n"
        )
        assert run([str(module)], select=["REP001"]) == []

    def test_pragma_on_continuation_line_does_not_suppress(self, tmp_path):
        # Findings anchor to the statement's first line; a pragma buried
        # on a continuation line is deliberately not honoured — it must
        # sit on the first line or stand alone above the statement.
        module = tmp_path / "mod.py"
        module.write_text(
            "import time\n"
            "\n"
            "STARTED = time.time(\n"
            ")  # repro: allow[REP001] -- wrong line\n"
        )
        findings = run([str(module)], select=["REP001"])
        assert rules_of(findings) == ["REP001"]

    def test_standalone_pragma_above_statement_suppresses(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(
            "import time\n"
            "\n"
            "# repro: allow[REP001] -- stamp for humans only\n"
            "STARTED = time.time()\n"
        )
        assert run([str(module)], select=["REP001"]) == []

    def test_select_excludes_rep000_pragma_errors(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(f"X = 1  {PRAGMA_BAD_RULE}\n")
        assert run([str(module)], select=["REP001"]) == []
        with_rep000 = run([str(module)], select=["REP000"])
        assert rules_of(with_rep000) == ["REP000"]

    def test_ignore_rep000_drops_pragma_errors(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(f"__all__: list = []  {PRAGMA_BAD_RULE}\n")
        assert run([str(module)], ignore=["REP000"]) == []

    def test_select_normalises_case_and_whitespace(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("import time\n\nSTARTED = time.time()\n")
        findings = run([str(module)], select=["  rep001 "])
        assert rules_of(findings) == ["REP001"]

    def test_select_unknown_rule_raises_with_catalogue(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("X = 1\n")
        with pytest.raises(ConfigError) as excinfo:
            run([str(module)], select=[" rep999 , REP001"])
        assert "REP999" in str(excinfo.value)

    def test_select_accepts_project_rule_ids(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("X = 1\n")
        assert run([str(module)], select=["REP014"]) == []


class TestSarifOutput:
    def test_render_sarif_shape(self, tmp_path):
        findings = [
            Finding("REP001", str(tmp_path / "mod.py"), 3, "wall clock"),
        ]
        document = render_sarif(
            findings, [("REP001", "No wall-clock reads.")], base_dir=tmp_path
        )
        assert document["version"] == "2.1.0"
        assert document["$schema"].endswith("sarif-2.1.0.json")
        (sarif_run,) = document["runs"]
        (rule,) = sarif_run["tool"]["driver"]["rules"]
        assert rule["id"] == "REP001"
        (result,) = sarif_run["results"]
        assert result["ruleId"] == "REP001"
        assert result["ruleIndex"] == 0
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "mod.py"
        assert location["region"]["startLine"] == 3

    def test_cli_sarif_output_is_valid_json(self, tmp_path, capsys):
        module = tmp_path / "mod.py"
        module.write_text("import time\n\nSTARTED = time.time()\n")
        code = main(["lint", str(module), "--format", "sarif"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        results = document["runs"][0]["results"]
        assert any(result["ruleId"] == "REP001" for result in results)
        rule_ids = {
            rule["id"] for rule in document["runs"][0]["tool"]["driver"]["rules"]
        }
        assert KNOWN_RULE_IDS | {"REP000"} <= rule_ids

    def test_clean_tree_yields_empty_results(self, tmp_path, capsys):
        module = tmp_path / "mod.py"
        module.write_text("__all__: list = []\n")
        code = main(["lint", str(module), "--format", "sarif"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["results"] == []


def _must_not_run(*args, **kwargs):
    raise AssertionError("unselected work was run")


class TestOnePass:
    SOURCE = "import random\nimport time\n\nSTARTED = time.time()\n"

    def test_select_skips_unselected_rules(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            runner,
            "ALL_RULES",
            tuple(
                rule if rule.id == "REP002" else replace(rule, check=_must_not_run)
                for rule in ALL_RULES
            ),
        )
        monkeypatch.setattr(
            runner,
            "PROJECT_RULES",
            tuple(replace(rule, check=_must_not_run) for rule in PROJECT_RULES),
        )
        monkeypatch.setattr(runner, "build_symbols", _must_not_run)
        write_module(tmp_path, "repro.serve.pump", self.SOURCE)
        assert rules_of(run([str(tmp_path)], select=["REP002"])) == ["REP002"]
        with pytest.raises(AssertionError):
            run([str(tmp_path)], select=["REP002", "REP014"])

    def test_ignore_runs_then_drops(self, tmp_path, monkeypatch):
        called = []
        wall_clock = next(rule for rule in ALL_RULES if rule.id == "REP001")

        def recording(info):
            called.append(info.path)
            return wall_clock.check(info)

        monkeypatch.setattr(
            runner,
            "ALL_RULES",
            tuple(
                replace(rule, check=recording) if rule is wall_clock else rule
                for rule in ALL_RULES
            ),
        )
        module = tmp_path / "mod.py"
        module.write_text(self.SOURCE)
        findings = run([str(module)], ignore=["REP001", "REP007"])
        assert called == [str(module)]
        assert rules_of(findings) == ["REP002"]

    @pytest.mark.parametrize(
        "flag", [["--jobs", "2"], ["--cache"], ["--cache-dir", "x"]]
    )
    def test_retired_mode_flags_are_usage_errors(self, tmp_path, flag, capsys):
        module = tmp_path / "mod.py"
        module.write_text("X = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(module), *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_takes_paths_select_and_ignore_only(self, tmp_path):
        assert list(inspect.signature(run).parameters) == [
            "paths",
            "select",
            "ignore",
        ]
        with pytest.raises(TypeError):
            run([str(tmp_path)], jobs=2)
