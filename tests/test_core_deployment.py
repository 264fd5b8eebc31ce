"""Tests for the end-to-end Deployment: border routers, an impaired UDP
path and the serve router → queue → commit loop."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EnhancedInFilter, PipelineConfig
from repro.flowgen import generate_attack
from repro.netflow.exporter import ExporterConfig, Packet
from repro.netflow.records import PROTO_UDP, FlowKey
from repro.netflow.transport import ChannelConfig
from repro.netflow.v5 import MAX_RECORDS_PER_DATAGRAM
from repro.serve import Deployment
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


def training_records(n=1200, seed=5, *, blocks=(WEST,), flows=None):
    from repro.flowgen import Dagflow, synthesize_trace

    rng = SeededRng(seed)
    dagflow = Dagflow(
        "train", target_prefix=TARGET, udp_port=9000,
        source_blocks=list(blocks), rng=rng,
    )
    if flows is None:
        flows = synthesize_trace(n, rng=rng.fork("t"))
    return [lr.record.with_key(input_if=0) for lr in dagflow.replay(flows)]


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

    def test_udp_port_conflict_rejected(self):
        """Two routers on one export port would share one collector
        source and corrupt each other's sequence accounting."""
        deployment = make_deployment()
        with pytest.raises(ExperimentError):
            deployment.add_border_router("br-north", 2, [TARGET], udp_port=9_001)
        assert [r.peer for r in deployment.routers()] == [0, 1]


class TestDataPath:
    def test_legal_packets_produce_no_alerts(self):
        deployment = make_deployment()
        deployment.train(training_records())
        for index in range(20):
            deployment.observe_packet(
                0, packet(WEST.nth_address(index), index * 10, sport=1000 + index)
            )
        deployment.flush()
        stats = deployment.detector.stats
        assert stats.processed == stats.legal == 20
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
        assert deployment.detector.stats.processed == 0
        deployment.sweep(10_000)
        assert deployment.detector.stats.processed == 1

    def test_ingest_records_path(self):
        deployment = make_deployment()
        deployment.train(training_records())
        deployment.ingest_records(0, training_records(50, seed=9))
        assert deployment.detector.stats.processed == 50

    def test_empty_ship_is_a_no_op(self):
        deployment = make_deployment()
        deployment.train(training_records())
        deployment.ingest_records(0, [])
        deployment.ingest_records(0, training_records(10, seed=9))
        assert deployment.detector.stats.processed == 10
        assert deployment.routers()[0].flow_sequence == 10

    def test_ship_stamps_the_routers_peer(self):
        """A BR exports its peer-facing ifIndex: whatever ``input_if`` a
        shipped record carried, it is assessed as entering at that BR."""
        deployment = make_deployment()
        deployment.train(training_records())
        elsewhere = [
            r.with_key(input_if=5) for r in training_records(30, seed=9)
        ]
        deployment.ingest_records(0, elsewhere)
        stats = deployment.detector.stats
        assert stats.processed == stats.legal == 30

    def test_sequence_continuity_across_ships(self):
        deployment = make_deployment()
        deployment.train(training_records())
        deployment.ingest_records(0, training_records(40, seed=10))
        deployment.ingest_records(0, training_records(40, seed=11))
        router = deployment.routers()[0]
        assert router.flow_sequence == 80
        assert deployment.daemon.report().lost_flows == 0


class TestImpairedTransport:
    def test_lossy_channel_reduces_decisions(self):
        clean = make_deployment()
        clean.train(training_records())
        clean.ingest_records(0, training_records(300, seed=12))

        lossy = make_deployment(channel=ChannelConfig(loss_probability=0.4))
        lossy.train(training_records())
        lossy.ingest_records(0, training_records(300, seed=12))

        assert lossy.detector.stats.processed < clean.detector.stats.processed
        assert lossy.channel_stats().lost > 0
        assert lossy.daemon.report().lost_flows > 0

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
        legal = deployment.detector.stats.legal
        deployment.ingest_records(0, training_records(10, seed=14))
        assert deployment.detector.stats.legal == legal + 10

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


class TestOracle:
    def test_alert_stream_equals_process_all(self):
        """Over a clean channel the batched serve path alerts exactly as
        the record-at-a-time detector does on the same peer-stamped
        records, from an identically seeded detector."""
        config = PipelineConfig()
        deployment = make_deployment(config=config)
        oracle = EnhancedInFilter(config, rng=SeededRng(42).fork("detector"))
        oracle.preload_eia(0, [WEST])
        oracle.preload_eia(1, [EAST])
        training = training_records()
        deployment.train(training)
        oracle.train(training)
        scan = generate_attack("host_scan", rng=SeededRng(3))
        ships = [
            (0, training_records(300, seed=21)),
            (1, training_records(200, seed=22, blocks=(EAST,))),
            (0, training_records(seed=23, blocks=(EAST,), flows=scan)),
            (1, training_records(100, seed=24)),
        ]
        expected = []
        for peer, records in ships:
            deployment.ingest_records(peer, records)
            expected.extend(
                oracle.process_all(r.with_key(input_if=peer) for r in records)
            )
        alerts = deployment.alerts()
        assert len(alerts) > 10
        assert alerts == [d.alert for d in expected if d.alert is not None]
        assert deployment.detector.stats.processed == len(expected)


_FATES_TRAINING = training_records(400)


class TestRecordFates:
    @given(
        loss=st.sampled_from([0.0, 0.1, 0.4]),
        duplicate=st.sampled_from([0.0, 0.2, 0.5]),
        reorder=st.sampled_from([0.0, 0.2, 0.5]),
        ships=st.lists(
            st.tuples(st.sampled_from([0, 1]), st.integers(0, 90)),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_an_impaired_channel_reconciles(
        self, loss, duplicate, reorder, ships, seed
    ):
        channel = ChannelConfig(
            loss_probability=loss,
            duplicate_probability=duplicate,
            reorder_probability=reorder,
        )
        deployment = Deployment(
            PipelineConfig(), rng=SeededRng(seed), channel_config=channel
        )
        deployment.add_border_router("br-west", 0, [WEST])
        deployment.add_border_router("br-east", 1, [EAST])
        deployment.train(_FATES_TRAINING)
        shipped = 0
        for index, (peer, flows) in enumerate(ships):
            deployment.ingest_records(peer, training_records(flows, seed=index))
            shipped += flows
        report = deployment.daemon.report()
        collector = deployment.daemon.router.collector.stats
        sent = deployment.channel_stats()
        assert report.records_shed == 0
        assert (
            report.records_committed
            == report.records_collected
            == deployment.detector.stats.processed
        )
        assert report.duplicate_datagrams == sent.duplicated
        if loss == 0.0 or reorder == 0.0:
            assert collector.sequence_resets == 0
        if loss == 0.0:
            assert report.records_collected == shipped
            assert report.lost_flows == 0
        # With both loss and reordering, a router's first datagram seen
        # can be a later one that overtook a datagram whose predecessor
        # was lost.  The late one then looks exactly like an exporter
        # restarting at sequence 0: at most one misreading per router,
        # each counting the overtaking datagram's flows as lost.
        assert collector.sequence_resets <= len(deployment.routers())
        assert (
            report.records_collected + report.lost_flows
            <= shipped + MAX_RECORDS_PER_DATAGRAM * collector.sequence_resets
        )
