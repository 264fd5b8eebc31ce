"""Tests for the ``infilter`` command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.flowgen import SubBlockSpace, eia_allocation


@pytest.fixture
def plan_file(tmp_path):
    space = SubBlockSpace()
    plan = eia_allocation(space)
    path = tmp_path / "plan.txt"
    lines = ["# peer prefix"]
    for peer, blocks in plan.items():
        lines.extend(f"{peer} {block}" for block in blocks)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def normal_file(tmp_path):
    path = tmp_path / "normal.bin"
    assert main(["synth", str(path), "--flows", "400"]) == 0
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_attack_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synth", "x.bin", "--attack", "nope"])


class TestSynth:
    def test_normal_traffic(self, tmp_path, capsys):
        path = tmp_path / "flows.bin"
        assert main(["synth", str(path), "--flows", "50"]) == 0
        assert "wrote 50 flow records" in capsys.readouterr().out
        assert path.exists()

    def test_attack_traffic_ascii(self, tmp_path):
        path = tmp_path / "atk.txt"
        assert main(["synth", str(path), "--attack", "slammer", "--ascii"]) == 0
        text = path.read_text()
        assert text.startswith("#src_addr")
        assert ",1434," in text

    def test_deterministic_given_seed(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        main(["--seed", "77", "synth", str(a), "--flows", "30"])
        main(["--seed", "77", "synth", str(b), "--flows", "30"])
        assert a.read_bytes() == b.read_bytes()


class TestReport:
    def test_grouping(self, normal_file, capsys):
        assert main(["report", normal_file, "--group-by", "protocol"]) == 0
        out = capsys.readouterr().out
        assert "protocol" in out
        assert "400 flows" in out

    def test_bad_group_field(self, normal_file, capsys):
        # An unknown grouping field is a ConfigError, which main() turns
        # into the CLI error exit code rather than a traceback.
        assert main(["report", normal_file, "--group-by", "bogus"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_flow_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing.bin")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read flow file:")
        assert err.count("\n") == 1

    def test_csv_format(self, normal_file, capsys):
        assert main(["report", normal_file, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("dst_port,flows,")

    def test_json_format(self, normal_file, capsys):
        import json

        assert main(["report", normal_file, "--format", "json", "--top", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 3


class TestDetect:
    def test_spoofed_attack_flagged(self, tmp_path, plan_file, normal_file, capsys):
        attack = tmp_path / "atk.bin"
        main(["synth", str(attack), "--attack", "tfn2k", "--spoof"])
        assert (
            main(
                [
                    "detect",
                    str(attack),
                    plan_file,
                    "--training-file",
                    normal_file,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "flagged as attacks" in out
        assert "0 legal" in out
        assert "trace-back" in out

    def test_legal_traffic_passes(self, plan_file, normal_file, capsys):
        assert (
            main(["detect", normal_file, plan_file, "--training-file", normal_file])
            == 0
        )
        out = capsys.readouterr().out
        assert "0 suspect" in out.replace("400 legal, 0 suspect", "400 legal, 0 suspect")
        assert "400 legal" in out

    def test_basic_mode_needs_no_training(self, tmp_path, plan_file, capsys):
        attack = tmp_path / "atk.bin"
        main(["synth", str(attack), "--attack", "slammer", "--spoof"])
        assert main(["detect", str(attack), plan_file, "--basic"]) == 0
        out = capsys.readouterr().out
        assert "flagged as attacks" in out

    def test_idmef_output(self, tmp_path, plan_file, capsys):
        attack = tmp_path / "atk.bin"
        main(["synth", str(attack), "--attack", "slammer", "--spoof"])
        assert main(["detect", str(attack), plan_file, "--basic", "--idmef"]) == 0
        out = capsys.readouterr().out
        assert "<IDMEF-Message" in out

    def test_idmef_stdout_is_the_serial_alert_stream(
        self, tmp_path, plan_file, normal_file, capsys
    ):
        """``--idmef`` prints, byte for byte, the XML of the alerts
        record-at-a-time ``process_all`` raises on the same input."""
        from repro.core import EnhancedInFilter, PipelineConfig
        from repro.netflow.files import read_flow_file
        from repro.util import SeededRng

        attack = tmp_path / "atk.bin"
        main(["synth", str(attack), "--attack", "slammer", "--spoof"])
        serial = EnhancedInFilter(
            PipelineConfig.enhanced_default(), rng=SeededRng(2005, "cli-detect")
        )
        # The plan_file fixture's plan, and the CLI's default seed.
        for peer, prefixes in eia_allocation(SubBlockSpace()).items():
            serial.preload_eia(peer, prefixes)
        serial.train(read_flow_file(normal_file))
        serial.process_all(read_flow_file(str(attack)))
        assert serial.alert_sink.alerts
        capsys.readouterr()
        assert (
            main(
                ["detect", str(attack), plan_file,
                 "--training-file", normal_file, "--idmef"]
            )
            == 0
        )
        assert capsys.readouterr().out == "".join(
            alert.to_xml() + "\n" for alert in serial.alert_sink.alerts
        )

    def test_bad_plan_file(self, tmp_path, normal_file, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a plan\n")
        assert main(["detect", normal_file, str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_flow_file(self, tmp_path, plan_file, capsys):
        missing = str(tmp_path / "missing.bin")
        assert main(["detect", missing, plan_file, "--basic"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read flow file:")
        assert err.count("\n") == 1

    def test_unwritable_metrics_out(self, tmp_path, plan_file, normal_file, capsys):
        out = tmp_path / "no-such-dir" / "m.prom"
        assert (
            main(["detect", normal_file, plan_file, "--basic",
                  "--metrics-out", str(out)])
            == 2
        )
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write metrics file:")
        assert err.count("\n") == 1

    def test_non_integer_plan_peer(self, tmp_path, normal_file, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("# peer prefix\nx 10.0.0.0/8\n")
        assert main(["detect", normal_file, str(bad), "--basic"]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}:2: expected '<peer> <prefix>', got 'x 10.0.0.0/8'\n"
        )

    def test_plan_required_without_state(self, normal_file, capsys):
        assert main(["detect", normal_file]) == 2
        assert "EIA plan" in capsys.readouterr().err

    def test_save_and_load_state(self, tmp_path, plan_file, normal_file, capsys):
        state = tmp_path / "state.json"
        attack = tmp_path / "atk.bin"
        main(["synth", str(attack), "--attack", "slammer", "--spoof"])
        assert (
            main(
                [
                    "detect", str(attack), plan_file,
                    "--training-file", normal_file,
                    "--save-state", str(state),
                ]
            )
            == 0
        )
        first_out = capsys.readouterr().out
        assert "state saved" in first_out
        assert (
            main(["detect", str(attack), "--load-state", str(state)]) == 0
        )
        second_out = capsys.readouterr().out
        assert "flagged as attacks" in second_out


class TestCheckpointResume:
    def test_checkpoint_every_needs_save_state(self, plan_file, normal_file, capsys):
        assert (
            main(
                ["detect", normal_file, plan_file, "--basic",
                 "--checkpoint-every", "10"]
            )
            == 2
        )
        assert "--save-state" in capsys.readouterr().err

    def test_checkpoint_every_must_be_positive(
        self, tmp_path, plan_file, normal_file, capsys
    ):
        state = tmp_path / "state.json"
        assert (
            main(
                ["detect", normal_file, plan_file, "--basic",
                 "--save-state", str(state), "--checkpoint-every", "0"]
            )
            == 2
        )
        assert "--checkpoint-every" in capsys.readouterr().err

    def test_resume_needs_load_state(self, plan_file, normal_file, capsys):
        assert (
            main(["detect", normal_file, plan_file, "--basic", "--resume"])
            == 2
        )
        assert "--load-state" in capsys.readouterr().err

    def test_resume_needs_a_cursor(
        self, tmp_path, plan_file, normal_file, capsys
    ):
        state = tmp_path / "state.json"
        # A plain save (no --checkpoint-every) carries no cursor.
        assert (
            main(
                ["detect", normal_file, plan_file, "--basic",
                 "--save-state", str(state)]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                ["detect", normal_file, "--load-state", str(state), "--resume"]
            )
            == 2
        )
        assert "no cursor" in capsys.readouterr().err

    def test_checkpointed_run_resumes_to_completion(
        self, tmp_path, plan_file, normal_file, capsys
    ):
        state = tmp_path / "state.json"
        assert (
            main(
                ["detect", normal_file, plan_file, "--basic",
                 "--save-state", str(state), "--checkpoint-every", "64"]
            )
            == 0
        )
        capsys.readouterr()
        # The run completed, so its final checkpoint covers the whole
        # file and a --resume restart has nothing left to process.
        assert (
            main(
                ["detect", normal_file, "--load-state", str(state), "--resume"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "resuming at record 400 of 400" in out
        assert "processed 0 flows" in out

    def test_engine_checkpoint_run_reports_checkpoints(
        self, tmp_path, plan_file, normal_file, capsys
    ):
        state = tmp_path / "state.json"
        assert (
            main(
                ["detect", normal_file, plan_file, "--basic",
                 "--batch-size", "50",
                 "--save-state", str(state), "--checkpoint-every", "2"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "checkpoints:" in out
        from repro.core.persistence import load_checkpoint

        _detector, cursor = load_checkpoint(state)
        assert cursor == 400

    def test_checkpoint_every_counts_batches_at_any_batch_size(
        self, tmp_path, plan_file, normal_file, capsys
    ):
        """``--checkpoint-every 2`` is two committed batches whether or
        not ``--batch-size`` is given, and the size changes nothing in
        the files: head (less its wall-clock stats), base and journal."""
        import json

        from repro.netflow.files import read_flow_file, write_flow_file
        from tests.test_fastpath import _scrub_wall_clock

        attack = tmp_path / "atk.bin"
        main(["synth", str(attack), "--attack", "slammer", "--spoof"])
        mixed = tmp_path / "mixed.bin"
        flows = write_flow_file(
            str(mixed), read_flow_file(normal_file) + read_flow_file(str(attack))
        )
        assert flows > 256
        capsys.readouterr()
        files = {}
        for name, extra, batch_size in (
            ("default", [], 256), ("fifty", ["--batch-size", "50"], 50)
        ):
            state = tmp_path / name / "state.json"
            state.parent.mkdir()
            assert (
                main(
                    ["detect", str(mixed), plan_file,
                     "--training-file", normal_file,
                     "--save-state", str(state), "--checkpoint-every", "2"]
                    + extra
                )
                == 0
            )
            batches = -(-flows // batch_size)
            out = capsys.readouterr().out
            assert f"batches: {batches} committed" in out
            # One per two batches, and the final one.
            assert f"checkpoints: {batches // 2 + 1} written" in out
            files[name] = {
                path.name: (
                    _scrub_wall_clock(json.loads(path.read_text()))
                    if path == state
                    else path.read_bytes()
                )
                for path in state.parent.iterdir()
            }
            assert len(files[name]) == 3
        assert files["default"] == files["fifty"]

    def test_second_run_reports_per_run_counts(
        self, tmp_path, plan_file, normal_file, capsys
    ):
        """A restored detector's cumulative stats must not leak into the
        next run's summary — at either batch size."""
        state = tmp_path / "state.json"
        attack = tmp_path / "atk.bin"
        main(["synth", str(attack), "--attack", "slammer", "--spoof"])
        assert (
            main(
                ["detect", str(attack), plan_file,
                 "--training-file", normal_file,
                 "--save-state", str(state)]
            )
            == 0
        )
        first_out = capsys.readouterr().out
        assert "flagged as attacks" in first_out
        # Second run sees only legal traffic; with per-run counting it
        # reports zero attacks at the default and an explicit batch size.
        for extra in ([], ["--batch-size", "256"]):
            assert (
                main(
                    ["detect", normal_file, "--load-state", str(state)] + extra
                )
                == 0
            )
            out = capsys.readouterr().out
            assert "processed 400 flows" in out
            assert "0 flagged as attacks" in out


class TestStateInspect:
    def test_inspect_text_output(self, tmp_path, plan_file, normal_file, capsys):
        state = tmp_path / "state.json"
        assert (
            main(
                ["detect", normal_file, plan_file,
                 "--training-file", normal_file,
                 "--save-state", str(state), "--checkpoint-every", "100"]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["state", "inspect", str(state)]) == 0
        out = capsys.readouterr().out
        assert "format: v4" in out
        assert "cursor: 400" in out
        assert "trained: yes" in out
        assert "peers: 10 (1000 expected blocks)" in out
        assert "moved blocks: 0" in out
        assert "stats: processed=400" in out
        assert "alerts stored: 0" in out
        files = next(line for line in out.splitlines() if line.startswith("files:"))
        assert f"head {state.stat().st_size} bytes" in files
        assert files.count("(verifies)") == 2  # base and journal
        # A damaged base is reported, not raised.
        base = next(tmp_path.glob("state.json.base-*"))
        base.write_bytes(base.read_bytes()[:-1])
        assert main(["state", "inspect", str(state)]) == 0
        assert (
            f"base {base.stat().st_size} bytes (DOES NOT VERIFY)"
            in capsys.readouterr().out
        )

    def test_inspect_json_output(self, tmp_path, plan_file, normal_file, capsys):
        import json

        state = tmp_path / "state.json"
        assert (
            main(
                ["detect", normal_file, plan_file, "--basic",
                 "--save-state", str(state)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["state", "inspect", str(state), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == 4
        assert payload["cursor"] is None
        assert payload["trained"] is False
        # A basic detector has no model, but its plan makes a base.
        base = next(tmp_path.glob("state.json.base-*"))
        assert payload["parts"]["base"] == base.stat().st_size
        assert payload["parts"]["head"] == state.stat().st_size
        assert payload["verified"] == {"base": True, "journal": True}
        assert sum(payload["peers"].values()) == 1000
        assert payload["moved_blocks"] == 0

    def test_inspect_missing_file_errors(self, tmp_path, capsys):
        assert main(["state", "inspect", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestConvert:
    def test_binary_to_ascii_round_trip(self, tmp_path, normal_file, capsys):
        ascii_path = tmp_path / "flows.txt"
        binary_path = tmp_path / "back.bin"
        assert main(["convert", normal_file, str(ascii_path), "--ascii"]) == 0
        assert main(["convert", str(ascii_path), str(binary_path)]) == 0
        from repro.netflow.files import read_flow_file

        assert read_flow_file(normal_file) == read_flow_file(str(binary_path))

    def test_unwritable_output(self, tmp_path, normal_file, capsys):
        out = tmp_path / "no-such-dir" / "out.bin"
        assert main(["convert", normal_file, str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write flow file:")
        assert err.count("\n") == 1


class TestSampleExpandAggregate:
    def test_sampling_drops_records(self, tmp_path, normal_file, capsys):
        out = tmp_path / "sampled.bin"
        assert (
            main(["sample", normal_file, str(out), "--interval", "10"]) == 0
        )
        from repro.netflow.files import read_flow_file

        assert len(read_flow_file(str(out))) < len(read_flow_file(normal_file))

    def test_expand_aggregate_conserves_totals(self, tmp_path, normal_file):
        dag = tmp_path / "trace.dag"
        back = tmp_path / "back.bin"
        assert main(["expand", normal_file, str(dag)]) == 0
        assert main(["aggregate", str(dag), str(back), "--peer", "4"]) == 0
        from repro.netflow.files import read_flow_file

        original = read_flow_file(normal_file)
        restored = read_flow_file(str(back))
        assert sum(r.packets for r in restored) == sum(r.packets for r in original)
        assert sum(r.octets for r in restored) == sum(r.octets for r in original)
        assert all(r.key.input_if == 4 for r in restored)


class TestFilter:
    def test_filter_keeps_matching_records(self, tmp_path, normal_file, capsys):
        out = tmp_path / "web.bin"
        assert (
            main(["filter", normal_file, str(out), "proto=6 dport=80"]) == 0
        )
        from repro.netflow.files import read_flow_file

        kept = read_flow_file(str(out))
        assert kept
        assert all(r.key.protocol == 6 and r.key.dst_port == 80 for r in kept)
        assert "kept" in capsys.readouterr().out

    def test_negated_term(self, tmp_path, normal_file):
        out = tmp_path / "notweb.bin"
        assert main(["filter", normal_file, str(out), "!dport=80"]) == 0
        from repro.netflow.files import read_flow_file

        assert all(r.key.dst_port != 80 for r in read_flow_file(str(out)))

    def test_bad_expression(self, tmp_path, normal_file, capsys):
        out = tmp_path / "x.bin"
        assert main(["filter", normal_file, str(out), "wat=1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestAnonymize:
    def test_prefix_preserving_rewrite(self, tmp_path, normal_file):
        out = tmp_path / "anon.bin"
        assert (
            main(["anonymize", normal_file, str(out), "--key", "sixteen-byte-key"])
            == 0
        )
        from repro.netflow.files import read_flow_file

        original = read_flow_file(normal_file)
        mapped = read_flow_file(str(out))
        assert len(mapped) == len(original)
        assert all(
            m.key.src_addr != o.key.src_addr for m, o in zip(mapped, original)
        )
        # Non-address fields untouched.
        assert all(m.octets == o.octets for m, o in zip(mapped, original))

    def test_deterministic_per_key(self, tmp_path, normal_file):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        main(["anonymize", normal_file, str(a), "--key", "sixteen-byte-key"])
        main(["anonymize", normal_file, str(b), "--key", "sixteen-byte-key"])
        assert a.read_bytes() == b.read_bytes()

    def test_short_key_rejected(self, tmp_path, normal_file, capsys):
        out = tmp_path / "anon.bin"
        assert main(["anonymize", normal_file, str(out), "--key", "short"]) == 2
        assert "error:" in capsys.readouterr().err


class TestValidate:
    def test_traceroute_study_smoke(self, capsys):
        assert (
            main(
                [
                    "--seed",
                    "5",
                    "validate",
                    "traceroute",
                    "--sites",
                    "3",
                    "--targets",
                    "3",
                    "--duration-hours",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "raw=" in out and "fqdn=" in out

    def test_stability_study_smoke(self, capsys):
        assert (
            main(["--seed", "5", "validate", "stability", "--duration-hours", "6"])
            == 0
        )
        assert "%" in capsys.readouterr().out


class TestExperiment:
    def test_small_point(self, capsys):
        assert (
            main(
                [
                    "experiment",
                    "--flows",
                    "200",
                    "--training-flows",
                    "800",
                    "--runs",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "detection=" in out
        assert "false_positives=" in out

    def test_metrics_out_publishes_experiment_gauges(self, tmp_path, capsys):
        metrics = tmp_path / "exp.prom"
        assert (
            main(
                [
                    "experiment",
                    "--flows", "200",
                    "--training-flows", "800",
                    "--runs", "1",
                    "--metrics-out", str(metrics),
                ]
            )
            == 0
        )
        text = metrics.read_text()
        assert "infilter_experiment_detection_rate" in text
        assert "infilter_experiment_false_positive_rate" in text
        assert "infilter_pipeline_flows_total" in text


    def test_unwritable_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "m.prom"
        assert (
            main(
                [
                    "experiment",
                    "--flows", "200",
                    "--training-flows", "300",
                    "--runs", "1",
                    "--metrics-out", str(out),
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write metrics file:")
        assert err.count("\n") == 1


class TestStatsAndMetricsOut:
    def test_detect_writes_prometheus_metrics(
        self, tmp_path, plan_file, normal_file, capsys
    ):
        attack = tmp_path / "atk.bin"
        metrics = tmp_path / "metrics.prom"
        main(["synth", str(attack), "--attack", "slammer", "--spoof"])
        assert (
            main(
                [
                    "detect", str(attack), plan_file, "--basic",
                    "--metrics-out", str(metrics),
                ]
            )
            == 0
        )
        text = metrics.read_text()
        assert "# TYPE infilter_pipeline_flows_total counter" in text
        assert 'verdict="attack"' in text
        assert "infilter_pipeline_flow_latency_seconds_bucket" in text

    def test_detect_writes_json_metrics(self, tmp_path, plan_file, capsys):
        import json

        attack = tmp_path / "atk.bin"
        metrics = tmp_path / "metrics.json"
        main(["synth", str(attack), "--attack", "slammer", "--spoof"])
        assert (
            main(
                [
                    "detect", str(attack), plan_file, "--basic",
                    "--metrics-out", str(metrics),
                ]
            )
            == 0
        )
        document = json.loads(metrics.read_text())
        assert document["version"] == 1
        names = {entry["name"] for entry in document["metrics"]}
        assert "infilter_pipeline_flows_total" in names

    def test_stats_rerenders_saved_snapshot(self, tmp_path, plan_file, capsys):
        attack = tmp_path / "atk.bin"
        metrics = tmp_path / "metrics.json"
        main(["synth", str(attack), "--attack", "slammer", "--spoof"])
        main(
            [
                "detect", str(attack), plan_file, "--basic",
                "--metrics-out", str(metrics),
            ]
        )
        capsys.readouterr()
        assert main(["stats", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE infilter_pipeline_flows_total counter" in out
        assert main(["stats", str(metrics), "--format", "json"]) == 0
        import json

        document = json.loads(capsys.readouterr().out)
        assert document == json.loads(metrics.read_text())

    def test_stats_missing_snapshot_errors(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_without_snapshot_uses_process_registry(self, capsys):
        from repro.obs import get_registry

        get_registry().counter(
            "infilter_cli_test_total", "test counter"
        ).inc()
        try:
            assert main(["stats"]) == 0
            assert "infilter_cli_test_total 1" in capsys.readouterr().out
        finally:
            get_registry().unregister_all()


class TestServeValidation:
    """The ``infilter serve`` argument-validation branches (all exit 2).

    The daemon's happy paths — loopback ingest, SIGTERM drain, warm
    restart through a real subprocess — live in
    ``tests/test_serve_daemon.py``; these tests only pin the CLI's
    refusal messages, which must fire before any socket is bound.
    """

    def test_checkpoint_every_must_be_positive(self, plan_file, capsys):
        assert main(["serve", plan_file, "--checkpoint-every", "0"]) == 2
        assert "--checkpoint-every must be >= 1" in capsys.readouterr().err

    def test_checkpoint_every_needs_save_state(self, plan_file, capsys):
        assert main(["serve", plan_file, "--checkpoint-every", "5"]) == 2
        assert "needs --save-state" in capsys.readouterr().err

    def test_resume_needs_load_state(self, plan_file, capsys):
        assert main(["serve", plan_file, "--resume"]) == 2
        assert "--resume needs --load-state" in capsys.readouterr().err

    def test_plan_required_without_load_state(self, capsys):
        assert main(["serve"]) == 2
        assert "EIA plan file is required" in capsys.readouterr().err

    def test_enhanced_needs_training_file(self, plan_file, capsys):
        assert main(["serve", plan_file]) == 2
        assert "needs --training-file" in capsys.readouterr().err

    def test_resume_needs_checkpoint_cursor(self, tmp_path, capsys):
        from repro.core import EnhancedInFilter, PipelineConfig
        from repro.core.persistence import save_detector

        state = tmp_path / "state.json"
        save_detector(EnhancedInFilter(PipelineConfig.basic()), state)
        assert main(["serve", "--load-state", str(state), "--resume"]) == 2
        assert "no cursor to resume from" in capsys.readouterr().err

    def test_bad_listen_address_rejected(self, plan_file, capsys):
        code = main(
            ["serve", plan_file, "--basic", "--listen", "not-an-address"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize(
        "flag",
        [
            ["--workers", "2"],
            ["--state-dir", "state"],
            ["--drain-timeout-s", "10"],
        ],
    )
    def test_retired_cluster_flags_are_usage_errors(
        self, plan_file, flag, capsys
    ):
        """``serve`` is one daemon: the multi-process flags are gone."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", plan_file, *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestEnsembleFlags:
    """``--detectors``/``--ensemble-policy`` validation and behaviour.

    Malformed compositions are ConfigErrors from ``PipelineConfig``
    itself, so every refusal is one ``error:`` line with the available
    names — on ``detect`` and ``serve`` alike, before any work happens.
    """

    def test_unknown_detector_rejected(self, plan_file, normal_file, capsys):
        code = main(
            ["detect", normal_file, plan_file, "--basic",
             "--detectors", "infilter,zeta"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown detector 'zeta'" in err
        assert "available: infilter, ttl_profile, bogon" in err

    def test_empty_composition_rejected(self, plan_file, normal_file, capsys):
        code = main(
            ["detect", normal_file, plan_file, "--basic", "--detectors", ""]
        )
        assert code == 2
        assert "composition is empty" in capsys.readouterr().err

    def test_duplicate_detectors_rejected(self, plan_file, normal_file, capsys):
        code = main(
            ["detect", normal_file, plan_file, "--basic",
             "--detectors", "infilter,bogon,bogon"]
        )
        assert code == 2
        assert "duplicate detector name(s) bogon" in capsys.readouterr().err

    def test_missing_anchor_rejected(self, plan_file, normal_file, capsys):
        code = main(
            ["detect", normal_file, plan_file, "--basic",
             "--detectors", "ttl_profile,bogon"]
        )
        assert code == 2
        assert "must include 'infilter'" in capsys.readouterr().err

    def test_unknown_policy_rejected(self, plan_file, normal_file, capsys):
        code = main(
            ["detect", normal_file, plan_file, "--basic",
             "--ensemble-policy", "quorum"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown ensemble policy 'quorum'" in err
        assert "any, majority, weighted" in err

    def test_serve_rejects_unknown_detector(self, plan_file, capsys):
        code = main(
            ["serve", plan_file, "--basic", "--detectors", "infilter,nope"]
        )
        assert code == 2
        assert "unknown detector 'nope'" in capsys.readouterr().err

    def test_serve_rejects_unknown_policy(self, plan_file, capsys):
        code = main(
            ["serve", plan_file, "--basic", "--ensemble-policy", "most"]
        )
        assert code == 2
        assert "unknown ensemble policy 'most'" in capsys.readouterr().err

    def test_ensemble_detect_runs_clean(
        self, tmp_path, plan_file, normal_file, capsys
    ):
        attack = tmp_path / "atk.bin"
        main(["synth", str(attack), "--attack", "slammer", "--spoof"])
        code = main(
            ["detect", str(attack), plan_file,
             "--training-file", normal_file,
             "--detectors", "infilter,ttl_profile,bogon",
             "--ensemble-policy", "weighted"]
        )
        assert code == 0
        assert "flagged as attacks" in capsys.readouterr().out

    def test_load_state_notes_composition_comes_from_checkpoint(
        self, tmp_path, plan_file, normal_file, capsys
    ):
        state = tmp_path / "state.json"
        assert main(
            ["detect", normal_file, plan_file, "--basic",
             "--save-state", str(state)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["detect", normal_file, "--load-state", str(state),
             "--detectors", "infilter,bogon"]
        ) == 0
        assert "comes from the checkpoint" in capsys.readouterr().err
