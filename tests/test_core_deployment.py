"""Tests for the end-to-end Deployment wrapper."""

import pytest

from repro.core import Deployment, PipelineConfig, Verdict
from repro.netflow.exporter import ExporterConfig, Packet
from repro.netflow.records import PROTO_UDP, FlowKey
from repro.netflow.transport import ChannelConfig
from repro.util import Prefix, SeededRng
from repro.util.errors import ExperimentError

WEST = Prefix.parse("24.0.0.0/11")
EAST = Prefix.parse("144.0.0.0/11")
TARGET = Prefix.parse("198.18.0.0/16")


def make_deployment(channel=None, config=None):
    deployment = Deployment(
        config or PipelineConfig(),
        rng=SeededRng(42),
        exporter_config=ExporterConfig(idle_timeout_ms=1_000),
        channel_config=channel,
    )
    deployment.add_border_router("br-west", 0, [WEST])
    deployment.add_border_router("br-east", 1, [EAST])
    return deployment


def training_records(n=1200, seed=5):
    from repro.flowgen import Dagflow, synthesize_trace

    rng = SeededRng(seed)
    dagflow = Dagflow(
        "train", target_prefix=TARGET, udp_port=9000,
        source_blocks=[WEST], rng=rng,
    )
    return [
        lr.record.with_key(input_if=0)
        for lr in dagflow.replay(synthesize_trace(n, rng=rng.fork("t")))
    ]


def packet(src, ts, *, dport=53, sport=999):
    return Packet(
        key=FlowKey(
            src_addr=src,
            dst_addr=TARGET.nth_address(7),
            protocol=PROTO_UDP,
            src_port=sport,
            dst_port=dport,
        ),
        length=200,
        timestamp_ms=ts,
    )


class TestProvisioning:
    def test_duplicate_peer_rejected(self):
        deployment = make_deployment()
        with pytest.raises(ExperimentError):
            deployment.add_border_router("again", 0, [WEST])

    def test_unknown_peer_rejected(self):
        deployment = make_deployment()
        with pytest.raises(ExperimentError):
            deployment.ingest_records(7, training_records(10))

    def test_routers_listed(self):
        deployment = make_deployment()
        assert [r.name for r in deployment.routers()] == ["br-west", "br-east"]


class TestDataPath:
    def test_legal_packets_produce_no_alerts(self):
        deployment = make_deployment()
        deployment.train(training_records())
        for index in range(20):
            deployment.observe_packet(
                0, packet(WEST.nth_address(index), index * 10, sport=1000 + index)
            )
        deployment.flush()
        assert len(deployment.decisions) == 20
        assert all(d.verdict == Verdict.LEGAL for d in deployment.decisions)
        assert deployment.alerts() == []

    def test_spoofed_packets_raise_alerts_with_ingress(self):
        deployment = make_deployment()
        deployment.train(training_records())
        # East-owned sources entering via the west BR: spoofing.
        for index in range(30):
            deployment.observe_packet(
                0,
                packet(
                    EAST.nth_address(index * 7),
                    index * 10,
                    dport=1434,
                    sport=2000 + index,
                ),
            )
        deployment.flush()
        alerts = deployment.alerts()
        assert alerts
        assert all(alert.observed_peer == 0 for alert in alerts)
        report = deployment.ingress_report()
        assert report.attack_ingresses() == [0]

    def test_sweep_expires_idle_flows(self):
        deployment = make_deployment()
        deployment.train(training_records())
        deployment.observe_packet(0, packet(WEST.nth_address(1), 0))
        assert deployment.decisions == []
        deployment.sweep(10_000)
        assert len(deployment.decisions) == 1

    def test_ingest_records_path(self):
        deployment = make_deployment()
        deployment.train(training_records())
        deployment.ingest_records(0, training_records(50, seed=9))
        assert len(deployment.decisions) == 50

    def test_sequence_continuity_across_ships(self):
        deployment = make_deployment()
        deployment.train(training_records())
        deployment.ingest_records(0, training_records(40, seed=10))
        deployment.ingest_records(0, training_records(40, seed=11))
        router = deployment.routers()[0]
        assert router.flow_sequence == 80
        assert deployment.collector.stats.lost_flows == 0


class TestImpairedTransport:
    def test_lossy_channel_reduces_decisions(self):
        clean = make_deployment()
        clean.train(training_records())
        clean.ingest_records(0, training_records(300, seed=12))

        lossy = make_deployment(channel=ChannelConfig(loss_probability=0.4))
        lossy.train(training_records())
        lossy.ingest_records(0, training_records(300, seed=12))

        assert len(lossy.decisions) < len(clean.decisions)
        assert lossy.channel_stats().lost > 0
        assert lossy.collector.stats.lost_flows > 0

    def test_clean_deployment_reports_no_channel(self):
        assert make_deployment().channel_stats() is None


class TestRetraining:
    def test_retrain_uses_benign_reservoir(self):
        deployment = make_deployment()
        deployment.train(training_records())
        deployment.ingest_records(0, training_records(200, seed=13))
        used = deployment.retrain()
        assert used > 0
        # The detector still works after the refresh.
        deployment.ingest_records(0, training_records(10, seed=14))
        assert all(
            d.verdict == Verdict.LEGAL for d in deployment.decisions[-10:]
        )

    def test_retrain_without_data_rejected(self):
        deployment = Deployment(rng=SeededRng(1), retrain_reservoir=100)
        deployment.add_border_router("br", 0, [WEST])
        with pytest.raises(ExperimentError):
            deployment.retrain()

    def test_zero_reservoir_files_no_training_flow(self):
        deployment = Deployment(rng=SeededRng(1), retrain_reservoir=0)
        deployment.add_border_router("br", 0, [WEST])
        deployment.train(training_records(300))
        with pytest.raises(ExperimentError):
            deployment.retrain()

    def test_training_twice_keeps_the_reservoir_at_its_limit(self):
        deployment = Deployment(rng=SeededRng(1), retrain_reservoir=200)
        deployment.add_border_router("br", 0, [WEST])
        deployment.train(training_records(300))
        deployment.train(training_records(300, seed=6))
        assert deployment.retrain() == 200
