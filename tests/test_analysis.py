"""Tests for the repro.analysis invariant linter.

Each rule gets three fixtures: a positive (seeded violation the rule must
catch), a negative (conforming code it must pass), and a pragma
suppression.  The self-clean test at the bottom is the gate the CI lint
job enforces: the linter must find nothing in the repository itself.

Fixture strings that would trip the *line-based* checks (REP008, pragma
parsing) when this file is linted are assembled by concatenation so they
only exist inside the fixtures, never in this file's own source.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, RULE_IDS, Finding, run
from repro.cli import main
from repro.util.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parents[1]

#: assembled so this test file's own lines never contain the markers.
BARE_IGNORE = "# type" + ": ignore"
PRAGMA_BAD_RULE = "# repro" + ": allow[REP999]"
PRAGMA_EMPTY = "# repro" + ": allow[]"
PRAGMA_MALFORMED = "# repro" + ": allow REP001"


def lint_source(tmp_path: Path, source: str, *, name: str = "mod.py", **kwargs):
    path = tmp_path / name
    path.write_text(source)
    return run([str(path)], **kwargs)


def rules_of(findings) -> list:
    return [finding.rule for finding in findings]


class TestRep001WallClock:
    def test_flags_time_time(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import time\n\nSTARTED = time.time()\n",
            select=["REP001"],
        )
        assert rules_of(findings) == ["REP001"]
        assert "SimClock" in findings[0].message

    def test_flags_datetime_now(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from datetime import datetime\n\nNOW = datetime.now()\n",
            select=["REP001"],
        )
        assert rules_of(findings) == ["REP001"]

    def test_perf_counter_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import time\n\nELAPSED = time.perf_counter()\n",
            select=["REP001"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import time\n\n"
            "STARTED = time.time()  # repro: allow[REP001] -- log stamp\n",
            select=["REP001"],
        )
        assert findings == []


class TestRep002DirectRandom:
    def test_flags_import_and_use(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\n\nrng = random.Random(7)\n",
            select=["REP002"],
        )
        assert rules_of(findings) == ["REP002", "REP002"]
        assert "SeededRng" in findings[0].message

    def test_flags_from_import(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from random import shuffle\n",
            select=["REP002"],
        )
        assert rules_of(findings) == ["REP002"]

    def test_seeded_rng_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from repro.util.rng import SeededRng\n\nrng = SeededRng(7)\n",
            select=["REP002"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random  # repro: allow[REP002] -- paper-verbatim stream\n"
            "rng = random.Random(7)  # repro: allow[REP002]\n",
            select=["REP002"],
        )
        assert findings == []

    def test_allowed_in_rng_module(self):
        findings = run(
            [str(REPO_ROOT / "src" / "repro" / "util" / "rng.py")],
            select=["REP002"],
        )
        assert findings == []


class TestRep003RaiseTaxonomy:
    def test_flags_builtin_raise(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def check(x):\n"
            "    if x < 0:\n"
            "        raise ValueError('negative')\n",
            select=["REP003"],
        )
        assert rules_of(findings) == ["REP003"]
        assert "ReproError" in findings[0].message

    def test_taxonomy_and_reraise_are_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from repro.util.errors import ConfigError\n\n"
            "def check(x):\n"
            "    if x < 0:\n"
            "        raise ConfigError('negative')\n"
            "    if x == 1:\n"
            "        raise NotImplementedError\n"
            "    try:\n"
            "        return 1 // x\n"
            "    except ZeroDivisionError:\n"
            "        raise\n",
            select=["REP003"],
        )
        assert findings == []

    def test_test_files_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def test_boom():\n    raise RuntimeError('boom')\n",
            name="test_fixture.py",
            select=["REP003"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def check(x):\n"
            "    raise ValueError(x)  # repro: allow[REP003] -- dunder contract\n",
            select=["REP003"],
        )
        assert findings == []


class TestRep004MutableDefaults:
    def test_flags_list_literal_default(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def add(item, bucket=[]):\n    bucket.append(item)\n",
            select=["REP004"],
        )
        assert rules_of(findings) == ["REP004"]

    def test_flags_dict_call_keyword_only(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def add(item, *, index=dict()):\n    index[item] = True\n",
            select=["REP004"],
        )
        assert rules_of(findings) == ["REP004"]

    def test_none_default_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def add(item, bucket=None):\n"
            "    bucket = [] if bucket is None else bucket\n",
            select=["REP004"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def add(item, bucket=[]):  # repro: allow[REP004] -- memo cache\n"
            "    bucket.append(item)\n",
            select=["REP004"],
        )
        assert findings == []


class TestRep005GuardedUnpack:
    def test_flags_unguarded_unpack(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import struct\n\n"
            "def decode(data):\n"
            "    return struct.unpack('!HH', data)\n",
            select=["REP005"],
        )
        assert rules_of(findings) == ["REP005"]

    def test_length_guard_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import struct\n\n"
            "def decode(data):\n"
            "    if len(data) < 4:\n"
            "        raise ValueError('short')\n"
            "    return struct.unpack('!HH', data[:4])\n",
            select=["REP005"],
        )
        assert findings == []

    def test_struct_size_guard_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import struct\n\n"
            "HEADER = struct.Struct('!HH')\n\n"
            "def decode(data):\n"
            "    if len(data) < HEADER.size:\n"
            "        raise ValueError('short')\n"
            "    return HEADER.unpack_from(data, 0)\n",
            select=["REP005"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import struct\n\n"
            "def decode(data):\n"
            "    # repro: allow[REP005] -- caller validated the buffer\n"
            "    return struct.unpack('!HH', data)\n",
            select=["REP005"],
        )
        assert findings == []


class TestRep006MetricNames:
    def test_flags_bad_prefix(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def register(registry):\n"
            "    return registry.counter('flows_total', 'Flows.')\n",
            select=["REP006"],
        )
        assert rules_of(findings) == ["REP006"]
        assert "convention" in findings[0].message

    def test_flags_counter_without_total(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def register(registry):\n"
            "    return registry.counter('infilter_pipeline_flows', 'Flows.')\n",
            select=["REP006"],
        )
        assert rules_of(findings) == ["REP006"]

    def test_flags_histogram_without_unit(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def register(registry):\n"
            "    return registry.histogram('infilter_batch_latency', 'L.')\n",
            select=["REP006"],
        )
        assert rules_of(findings) == ["REP006"]

    def test_flags_gauge_ending_total(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def register(registry):\n"
            "    return registry.gauge('infilter_queue_total', 'Q.')\n",
            select=["REP006"],
        )
        assert rules_of(findings) == ["REP006"]

    def test_conforming_names_are_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def register(registry):\n"
            "    registry.counter('infilter_serve_batches_total', 'B.')\n"
            "    registry.gauge('infilter_serve_queue_depth', 'Q.')\n"
            "    registry.histogram('infilter_serve_wait_seconds', 'W.')\n",
            select=["REP006"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def register(registry):\n"
            "    return registry.counter('legacy_name', 'L.')"
            "  # repro: allow[REP006]\n",
            select=["REP006"],
        )
        assert findings == []


class TestRep007DunderAll:
    def test_flags_missing_all(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def helper():\n    return 1\n",
            select=["REP007"],
        )
        assert "no __all__" in findings[0].message

    def test_flags_undefined_export(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "__all__ = ['missing']\n",
            select=["REP007"],
        )
        assert rules_of(findings) == ["REP007"]
        assert "missing" in findings[0].message

    def test_flags_unexported_public_def(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "__all__ = ['exported']\n\n"
            "def exported():\n    return 1\n\n"
            "def stray():\n    return 2\n",
            select=["REP007"],
        )
        assert rules_of(findings) == ["REP007"]
        assert "stray" in findings[0].message

    def test_consistent_module_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "__all__ = ['CONSTANT', 'exported']\n\n"
            "CONSTANT = 3\n\n"
            "def exported():\n    return CONSTANT\n\n"
            "def _private():\n    return 0\n",
            select=["REP007"],
        )
        assert findings == []

    def test_file_pragma_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "# repro: allow-file[REP007] -- internal scratch module\n"
            "def helper():\n    return 1\n",
            select=["REP007"],
        )
        assert findings == []


class TestRep008ScopedIgnores:
    def test_flags_bare_ignore(self, tmp_path):
        findings = lint_source(
            tmp_path,
            f"x = undefined()  {BARE_IGNORE}\n",
            select=["REP008"],
        )
        assert rules_of(findings) == ["REP008"]

    def test_scoped_ignore_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            f"x = undefined()  {BARE_IGNORE}[name-defined]\n",
            select=["REP008"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            f"x = undefined()  {BARE_IGNORE}  # repro: allow[REP008]\n",
            select=["REP008"],
        )
        assert findings == []


class TestRep009StateProtocol:
    GOOD_PAIR = (
        "class Component:\n"
        "    def state_dict(self):\n"
        "        return {}\n\n"
        "    def load_state(self, state):\n"
        "        return None\n"
    )

    def test_flags_missing_load_state(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "class Component:\n"
            "    def state_dict(self):\n"
            "        return {}\n",
            select=["REP009"],
        )
        assert rules_of(findings) == ["REP009"]
        assert "load_state" in findings[0].message

    def test_flags_missing_state_dict(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "class Component:\n"
            "    def load_state(self, state):\n"
            "        return None\n",
            select=["REP009"],
        )
        assert rules_of(findings) == ["REP009"]
        assert "state_dict" in findings[0].message

    def test_flags_decorated_class_without_methods(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from repro.core.state import stateful\n\n\n"
            "@stateful('widget')\n"
            "class Widget:\n"
            "    pass\n",
            select=["REP009"],
        )
        assert rules_of(findings) == ["REP009", "REP009"]

    def test_flags_wrong_signature(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "class Component:\n"
            "    def state_dict(self, verbose=False):\n"
            "        return {}\n\n"
            "    def load_state(self, state):\n"
            "        return None\n",
            select=["REP009"],
        )
        assert rules_of(findings) == ["REP009"]
        assert "(self)" in findings[0].message

    def test_complete_pair_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, self.GOOD_PAIR, select=["REP009"])
        assert findings == []

    def test_persistence_module_may_not_touch_underscores(self, tmp_path):
        (tmp_path / "repro" / "core").mkdir(parents=True)
        findings = lint_source(
            tmp_path,
            "def peek(detector):\n"
            "    return detector._alert_counter\n",
            name="repro/core/persistence.py",
            select=["REP009"],
        )
        assert rules_of(findings) == ["REP009"]
        assert "_alert_counter" in findings[0].message

    def test_persistence_objects_may_keep_private_state(self, tmp_path):
        (tmp_path / "repro" / "core").mkdir(parents=True)
        findings = lint_source(
            tmp_path,
            "class Writer:\n"
            "    def save(self, detector):\n"
            "        self._sink = detector.alert_sink\n"
            "        return self._sink\n",
            name="repro/core/persistence.py",
            select=["REP009"],
        )
        assert findings == []

    def test_underscore_access_elsewhere_is_not_rep009(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def peek(detector):\n"
            "    return detector._alert_counter\n",
            select=["REP009"],
        )
        assert findings == []

    def test_dunder_access_in_persistence_is_fine(self, tmp_path):
        (tmp_path / "repro" / "core").mkdir(parents=True)
        findings = lint_source(
            tmp_path,
            "def name_of(obj):\n"
            "    return obj.__class__\n",
            name="repro/core/persistence.py",
            select=["REP009"],
        )
        assert findings == []

    def test_file_pragma_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "# repro: allow-file[REP009] -- scratch\n"
            "class Component:\n"
            "    def state_dict(self):\n"
            "        return {}\n",
            select=["REP009"],
        )
        assert findings == []


class TestRep010AsyncBlocking:
    def test_flags_time_sleep_in_async_def(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import time\n\n"
            "async def worker():\n"
            "    time.sleep(1)  # repro: allow[REP001]\n",
            select=["REP010"],
        )
        assert rules_of(findings) == ["REP010"]
        assert "asyncio.sleep" in findings[0].message

    def test_flags_aliased_import(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import subprocess as sp\n\n"
            "async def runner():\n"
            "    sp.run(['ls'])\n",
            select=["REP010"],
        )
        assert rules_of(findings) == ["REP010"]

    def test_flags_socket_recv_method(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "async def reader(sock):\n"
            "    return sock.recv(1024)\n",
            select=["REP010"],
        )
        assert rules_of(findings) == ["REP010"]
        assert ".recv()" in findings[0].message

    def test_flags_console_input(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "async def prompt():\n"
            "    return input()\n",
            select=["REP010"],
        )
        assert rules_of(findings) == ["REP010"]

    def test_sync_def_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import time\n\n"
            "def worker():\n"
            "    time.sleep(1)  # repro: allow[REP001]\n",
            select=["REP010"],
        )
        assert findings == []

    def test_awaited_loop_api_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import asyncio\n\n"
            "async def reader(loop, sock):\n"
            "    await asyncio.sleep(0)\n"
            "    return await loop.sock_recv(sock, 1024)\n",
            select=["REP010"],
        )
        assert findings == []

    def test_datagram_sendto_is_fine(self, tmp_path):
        # transport.sendto is asyncio's canonical non-blocking UDP send;
        # it must never be flagged.
        findings = lint_source(
            tmp_path,
            "async def pump(transport, data):\n"
            "    transport.sendto(data)\n",
            select=["REP010"],
        )
        assert findings == []

    def test_sync_helper_nested_in_async_is_fine(self, tmp_path):
        # The blocking call's innermost scope is the *sync* helper; only
        # the coroutine body itself must stay non-blocking.
        findings = lint_source(
            tmp_path,
            "import time\n\n"
            "async def outer():\n"
            "    def helper():\n"
            "        time.sleep(1)  # repro: allow[REP001]\n"
            "    return helper\n",
            select=["REP010"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import time\n\n"
            "async def worker():\n"
            "    time.sleep(1)  "
            "# repro: allow[REP001,REP010] -- startup settle\n",
            select=["REP010"],
        )
        assert findings == []


class TestPragmas:
    def test_standalone_pragma_covers_next_line(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "# repro: allow[REP004]\n"
            "def add(item, bucket=[]):\n"
            "    bucket.append(item)\n",
            select=["REP004"],
        )
        assert findings == []

    def test_unknown_rule_reports_rep000(self, tmp_path):
        findings = lint_source(
            tmp_path, f"x = 1  {PRAGMA_BAD_RULE}\n", select=["REP000"]
        )
        assert rules_of(findings) == ["REP000"]
        assert "REP999" in findings[0].message

    def test_empty_rule_list_reports_rep000(self, tmp_path):
        findings = lint_source(
            tmp_path, f"x = 1  {PRAGMA_EMPTY}\n", select=["REP000"]
        )
        assert rules_of(findings) == ["REP000"]

    def test_malformed_pragma_reports_rep000(self, tmp_path):
        findings = lint_source(
            tmp_path, f"x = 1  {PRAGMA_MALFORMED}\n", select=["REP000"]
        )
        assert rules_of(findings) == ["REP000"]
        assert "malformed" in findings[0].message

    def test_pragma_does_not_blanket_other_rules(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random  # repro: allow[REP001]\n",
            select=["REP002"],
        )
        assert rules_of(findings) == ["REP002"]


class TestRunner:
    def test_syntax_error_reports_rep000(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n", select=["REP000"])
        assert rules_of(findings) == ["REP000"]
        assert "syntax error" in findings[0].message

    def test_missing_path_raises(self):
        with pytest.raises(ConfigError):
            run(["no/such/path"])

    def test_unknown_select_raises(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        with pytest.raises(ConfigError):
            run([str(tmp_path)], select=["REP042"])

    def test_select_accepts_comma_lists(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\nimport time\n\n"
            "A = random.random()\nB = time.time()\n",
            select=["rep001,rep002"],
        )
        assert set(rules_of(findings)) == {"REP001", "REP002"}

    def test_ignore_drops_rules(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\nimport time\n\n"
            "A = random.random()\nB = time.time()\n",
            ignore=["REP002"],
        )
        assert "REP002" not in rules_of(findings)
        assert "REP001" in rules_of(findings)

    def test_findings_are_sorted_and_serializable(self, tmp_path):
        (tmp_path / "b.py").write_text("import random\n")
        (tmp_path / "a.py").write_text("import random\n")
        findings = run([str(tmp_path)], select=["REP002"])
        assert [Path(f.path).name for f in findings] == ["a.py", "b.py"]
        payload = [finding.to_dict() for finding in findings]
        assert json.loads(json.dumps(payload)) == payload
        assert all(isinstance(f, Finding) for f in findings)


class TestLintCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("__all__ = ['X']\n\nX = 1\n")
        assert main(["lint", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one_with_text(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("import random\n")
        assert main(["lint", str(path), "--select", "REP002"]) == 1
        captured = capsys.readouterr()
        assert "REP002" in captured.out
        assert "finding(s)" in captured.err

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("import random\n")
        assert main(
            ["lint", str(path), "--select", "REP002", "--format", "json"]
        ) == 1
        document = json.loads(capsys.readouterr().out)
        assert document[0]["rule"] == "REP002"
        assert document[0]["line"] == 1

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_bad_select_is_cli_error(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("x = 1\n")
        assert main(["lint", str(path), "--select", "REP042"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestRuleCatalogue:
    def test_rule_ids_are_unique_and_well_formed(self):
        ids = [rule.id for rule in ALL_RULES]
        assert len(ids) == len(set(ids))
        assert all(rule_id.startswith("REP") for rule_id in ids)
        assert RULE_IDS == set(ids) | {"REP000"}

    def test_every_rule_has_a_summary(self):
        for rule in ALL_RULES:
            assert rule.summary


class TestSelfClean:
    def test_repository_is_lint_clean(self):
        findings = run([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
        assert findings == [], "\n" + "\n".join(f.render() for f in findings)
