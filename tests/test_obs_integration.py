"""Integration tests: components populate the documented metric names.

The metric catalogue asserted here is the contract documented in
``docs/observability.md`` — a rename there must show up here and vice
versa.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import EnhancedInFilter, PipelineConfig
from repro.flowgen import Dagflow, synthesize_trace
from repro.netflow import FlowCollector, datagrams_for
from repro.netflow.records import FlowKey, FlowRecord
from repro.netflow.sampling import sample_records
from repro.netflow.transport import ChannelConfig, UdpChannel
from repro.obs import MetricsRegistry, render_prometheus
from repro.util import Prefix, SeededRng, parse_ipv4

#: Every metric name the pipeline layer must export after a mixed run.
PIPELINE_METRICS = (
    "infilter_pipeline_flows_total",
    "infilter_pipeline_flow_latency_seconds",
    "infilter_pipeline_stage_latency_seconds",
    "infilter_pipeline_overload_total",
    "infilter_eia_blocks",
    "infilter_eia_absorptions_total",
    "infilter_scan_buffer_occupancy",
    "infilter_scan_completions_total",
    "infilter_alerts_total",
)


def _mixed_run(registry: MetricsRegistry):
    """A detector processing legal, benign-suspect and attack flows."""
    rng = SeededRng(909, "obs-integration")
    detector = EnhancedInFilter(
        PipelineConfig.enhanced_default(), rng=rng.fork("det"), registry=registry
    )
    detector.preload_eia(0, [Prefix.parse("24.0.0.0/11")])
    dagflow = Dagflow(
        "obs",
        target_prefix=Prefix.parse("198.18.0.0/16"),
        udp_port=9000,
        source_blocks=[Prefix.parse("24.0.0.0/11")],
        rng=rng.fork("df"),
    )
    trace = synthesize_trace(600, rng=rng.fork("trace"))
    records = [lr.record.with_key(input_if=0) for lr in dagflow.replay(trace)]
    detector.train(records)
    spoofed = parse_ipv4("203.0.113.50")
    suspects = [
        replace(r, key=replace(r.key, src_addr=spoofed)) for r in records[:30]
    ]
    probes = [
        replace(
            records[0],
            key=replace(
                records[0].key,
                src_addr=parse_ipv4("198.51.100.9"),
                dst_addr=parse_ipv4(f"198.18.2.{host}"),
                protocol=17,
                dst_port=1434,
            ),
            packets=1,
            octets=404,
            tcp_flags=0,
        )
        for host in range(1, 15)
    ]
    for record in records + suspects + probes:
        detector.process(record)
    return detector


class TestPipelineMetrics:
    @pytest.fixture(scope="class")
    def run(self):
        registry = MetricsRegistry()
        detector = _mixed_run(registry)
        return registry, detector

    def test_expected_metric_names_registered(self, run):
        registry, _ = run
        for name in PIPELINE_METRICS:
            assert name in registry, name

    def test_flow_counters_match_pipeline_stats(self, run):
        registry, detector = run
        flows = registry.get("infilter_pipeline_flows_total")
        stats = detector.stats

        def value(verdict, stage):
            return flows.labels(verdict=verdict, stage=stage).value

        assert value("legal", "eia") == stats.legal
        total_attacks = sum(
            value("attack", stage) for stage in ("eia", "scan", "nns", "overload")
        )
        assert total_attacks == stats.attacks
        for stage, count in stats.attacks_by_stage.items():
            assert value("attack", stage) == count
        benign = value("benign", "nns") + value("benign", "overload")
        assert benign == stats.benign

    def test_flow_latency_histogram_counts_every_flow(self, run):
        registry, detector = run
        hist = registry.get("infilter_pipeline_flow_latency_seconds")
        assert hist.count == detector.stats.processed
        assert hist.sum == pytest.approx(detector.stats.latency_total_s)

    def test_stage_latency_histograms_present_for_all_stages(self, run):
        registry, detector = run
        hist = registry.get("infilter_pipeline_stage_latency_seconds")
        eia = hist.labels(stage="eia")
        scan = hist.labels(stage="scan")
        nns = hist.labels(stage="nns")
        # Every flow passes EIA; only analysed suspects reach scan; only
        # non-scan suspects reach NNS.
        assert eia.count == detector.stats.processed
        assert scan.count == detector.stats.suspects
        assert 0 < nns.count <= scan.count

    def test_scan_and_alert_counters(self, run):
        registry, detector = run
        completions = registry.get("infilter_scan_completions_total")
        assert (
            completions.labels(kind="network_scan").value
            == detector.scan.network_scans_flagged
        )
        alerts = registry.get("infilter_alerts_total")
        total_alerts = sum(
            child.value for _, child in alerts.samples()
        )
        assert total_alerts == len(detector.alert_sink)

    def test_eia_gauges_track_absorption(self, run):
        registry, detector = run
        absorptions = registry.get("infilter_eia_absorptions_total")
        assert absorptions.value >= 1  # the suspect block got absorbed
        blocks = registry.get("infilter_eia_blocks")
        assert blocks.labels(peer=0).value == len(detector.infilter.eia_set(0))

    def test_snapshot_contains_acceptance_surface(self, run):
        registry, _ = run
        text = render_prometheus(registry)
        assert 'infilter_pipeline_flows_total{verdict="legal",stage="eia"}' in text
        assert 'infilter_pipeline_flows_total{verdict="attack",stage="scan"}' in text
        assert 'infilter_pipeline_stage_latency_seconds_bucket{stage="eia"' in text
        assert 'infilter_pipeline_stage_latency_seconds_bucket{stage="scan"' in text
        assert 'infilter_pipeline_stage_latency_seconds_bucket{stage="nns"' in text


class TestStateEntriesGauge:
    def test_set_once_per_batch_never_per_record(self):
        """``infilter_state_entries`` reports the size of every bounded
        structure at the end of ``process_batch`` — and only there."""
        registry = MetricsRegistry()
        detector = _mixed_run(registry)  # serial ``process`` calls only
        gauge = registry.get("infilter_state_entries")
        components = (
            "eia_owner_table", "eia_pending", "nns_memo", "nns_raw_memo",
            "scan_buffer",
        )
        assert not list(gauge.samples())  # ``process`` never moves it

        sets = []

        def counting(child):
            plain_set = child.set

            def counted(value):
                sets.append(value)
                plain_set(value)

            child.set = counted

        for component in components:
            counting(gauge.labels(component=component))
        spoofed = parse_ipv4("198.51.100.77")
        first = detector.alert_sink.alerts[0]
        batch = [
            FlowRecord(
                key=FlowKey(
                    src_addr=spoofed + i, dst_addr=first.target_address,
                    protocol=17, dst_port=9000, input_if=0,
                ),
                packets=3, octets=300, first=0, last=10,
            )
            for i in range(40)
        ]
        detector.process_batch(batch)
        assert len(sets) == 5  # one set per component for 40 records
        infilter = detector.infilter
        assert [gauge.labels(component=c).value for c in components] == [
            len(infilter.table.entries),
            infilter.pending_size(),
            len(detector._nns_memo),
            len(detector._nns_raw_memo),
            len(detector.scan),
        ]
        assert gauge.labels(component="eia_owner_table").value >= 2
        assert "infilter_state_entries" in render_prometheus(registry)


class TestOverloadMetrics:
    def test_overload_actions_counted(self):
        from repro.core import OverloadConfig

        registry = MetricsRegistry()
        config = PipelineConfig.enhanced_default()
        config = replace(
            config,
            overload=OverloadConfig(
                suspect_capacity_per_s=1.0,
                window_ms=1000,
                drop_fraction=0.5,
            ),
        )
        rng = SeededRng(11, "overload")
        detector = EnhancedInFilter(config, rng=rng, registry=registry)
        detector.preload_eia(0, [Prefix.parse("24.0.0.0/11")])
        dagflow = Dagflow(
            "ovl",
            target_prefix=Prefix.parse("198.18.0.0/16"),
            udp_port=9000,
            source_blocks=[Prefix.parse("24.0.0.0/11")],
            rng=rng.fork("df"),
        )
        trace = synthesize_trace(200, rng=rng.fork("trace"))
        records = [lr.record.with_key(input_if=0) for lr in dagflow.replay(trace)]
        detector.train(records)
        # All from the wrong peer: every flow is a suspect, rapidly
        # exceeding 1 suspect/s.
        for record in records:
            detector.process(replace(record, key=replace(record.key, input_if=3)))
        overload = registry.get("infilter_pipeline_overload_total")
        stats = detector.stats
        assert stats.overload_dropped + stats.overload_flagged > 0
        assert overload.labels(action="dropped").value == stats.overload_dropped
        assert overload.labels(action="flagged").value == stats.overload_flagged


class TestSubstrateMetrics:
    def test_collector_counters_match_stats(self, rng):
        registry = MetricsRegistry()
        collector = FlowCollector(registry=registry)
        dagflow = Dagflow(
            "col",
            target_prefix=Prefix.parse("198.18.0.0/16"),
            udp_port=9000,
            source_blocks=[Prefix.parse("24.0.0.0/11")],
            rng=rng.fork("df"),
        )
        trace = synthesize_trace(90, rng=rng.fork("trace"))
        records = [lr.record for lr in dagflow.replay(trace)]
        for datagram in datagrams_for(iter(records), sys_uptime=0, unix_secs=0):
            collector.receive(datagram, source=9001)
        collector.receive(b"garbage-datagram", source=9001)
        stats = collector.stats

        def value(name):
            return registry.get(name).value

        assert value("infilter_collector_datagrams_total") == stats.datagrams
        assert value("infilter_collector_records_total") == stats.records
        assert value("infilter_collector_decode_errors_total") == 1
        assert (
            value("infilter_collector_lost_flows_total") == stats.lost_flows
        )

    def test_transport_events_match_stats(self, rng):
        registry = MetricsRegistry()
        channel = UdpChannel(
            ChannelConfig(
                loss_probability=0.2,
                duplicate_probability=0.1,
                reorder_probability=0.1,
            ),
            rng=rng,
            registry=registry,
        )
        delivered = list(channel.transmit([bytes([i])] * 3 for i in range(50)))
        events = registry.get("infilter_transport_datagrams_total")
        stats = channel.stats
        assert events.labels(event="sent").value == stats.sent == 50
        assert events.labels(event="delivered").value == stats.delivered
        assert events.labels(event="lost").value == stats.lost
        assert events.labels(event="duplicated").value == stats.duplicated
        assert events.labels(event="reordered").value == stats.reordered
        assert len(delivered) == stats.delivered

    def test_sampling_outcomes(self, rng):
        registry = MetricsRegistry()
        dagflow = Dagflow(
            "smp",
            target_prefix=Prefix.parse("198.18.0.0/16"),
            udp_port=9000,
            source_blocks=[Prefix.parse("24.0.0.0/11")],
            rng=rng.fork("df"),
        )
        trace = synthesize_trace(120, rng=rng.fork("trace"))
        records = [lr.record for lr in dagflow.replay(trace)]
        kept = list(
            sample_records(records, 10, rng=rng.fork("s"), registry=registry)
        )
        outcomes = registry.get("infilter_sampling_records_total")
        assert outcomes.labels(outcome="kept").value == len(kept)
        assert outcomes.labels(outcome="dropped").value == len(records) - len(kept)

    def test_sampling_identity_counts_kept(self, rng):
        registry = MetricsRegistry()
        dagflow = Dagflow(
            "smp1",
            target_prefix=Prefix.parse("198.18.0.0/16"),
            udp_port=9000,
            source_blocks=[Prefix.parse("24.0.0.0/11")],
            rng=rng.fork("df"),
        )
        trace = synthesize_trace(30, rng=rng.fork("trace"))
        records = [lr.record for lr in dagflow.replay(trace)]
        kept = list(
            sample_records(records, 1, rng=rng.fork("s"), registry=registry)
        )
        assert kept == records
        outcomes = registry.get("infilter_sampling_records_total")
        assert outcomes.labels(outcome="kept").value == len(records)


class TestCliSmoke:
    """The tier-1-safe CLI smoke checks (stats --help, JSON round-trip)."""

    @staticmethod
    def _run_cli(*argv, check=True):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        if check:
            assert result.returncode == 0, result.stderr
        return result

    def test_stats_help(self):
        result = self._run_cli("stats", "--help")
        assert "snapshot" in result.stdout
        assert "--format" in result.stdout

    def test_stats_json_snapshot_round_trip(self, tmp_path):
        # Render a snapshot in-process, then confirm the subprocess CLI
        # re-renders it identically through load_snapshot_text.
        from repro.obs import render_json

        registry = MetricsRegistry()
        registry.counter("infilter_demo_total", "demo").inc(7)
        registry.histogram(
            "infilter_demo_seconds", "demo", buckets=(0.1, 1.0)
        ).observe(0.5)
        path = tmp_path / "snap.json"
        path.write_text(render_json(registry) + "\n")
        result = self._run_cli("stats", str(path), "--format", "json")
        assert json.loads(result.stdout) == json.loads(render_json(registry))
        prom = self._run_cli("stats", str(path))
        assert "infilter_demo_total 7" in prom.stdout
        assert 'infilter_demo_seconds_bucket{le="1"} 1' in prom.stdout
