"""Tests for the stage-state protocol (:mod:`repro.core.state`).

Every registered component must round-trip through its own
``state_dict``/``load_state`` pair such that the restored instance is
behaviourally indistinguishable from the original — the property the
checkpoint format (:mod:`repro.core.persistence`) composes into its
whole-detector guarantee.
"""

import json

import pytest

from repro.core import (
    EnhancedInFilter,
    PipelineConfig,
    EIAConfig,
    STATEFUL_COMPONENTS,
    StatefulComponent,
    stateful,
)
from repro.core.alerts import AlertSink
from repro.core.clusters import ClusterModel
from repro.core.eia import BasicInFilter, EIASet
from repro.core.pipeline import PipelineStats
from repro.core.scan import ScanAnalyzer
from repro.flowgen import Dagflow, generate_attack, synthesize_trace
from repro.obs import MetricsRegistry
from repro.util import Prefix, SeededRng
from repro.util.errors import ConfigError

from tests.conftest import legal_decision, make_detector

WEST = Prefix.parse("24.0.0.0/11")
EAST = Prefix.parse("144.0.0.0/11")
TARGET = Prefix.parse("198.18.0.0/16")


def _records(n=60, seed=7, blocks=(EAST,), attack=None, input_if=0):
    rng = SeededRng(seed, "state-test")
    dagflow = Dagflow(
        "s", target_prefix=TARGET, udp_port=9000,
        source_blocks=list(blocks), rng=rng.fork("df"),
    )
    flows = synthesize_trace(n, rng=rng.fork("t"))
    if attack:
        flows += generate_attack(attack, rng=rng.fork("a"))
    return [
        lr.record.with_key(input_if=input_if) for lr in dagflow.replay(flows)
    ]


class TestRegistry:
    def test_every_registered_class_implements_the_protocol(self):
        for name, cls in STATEFUL_COMPONENTS.items():
            assert callable(getattr(cls, "state_dict", None)), name
            assert callable(getattr(cls, "load_state", None)), name

    def test_expected_components_are_registered(self):
        assert set(STATEFUL_COMPONENTS) == {
            "alerts", "bogon", "eia", "eia_set", "model", "nns",
            "pipeline", "rng", "scan", "stats", "ttl_profile",
        }

    def test_instances_satisfy_the_runtime_protocol(self):
        assert isinstance(SeededRng(1), StatefulComponent)
        assert isinstance(PipelineStats(), StatefulComponent)

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ConfigError):
            stateful("rng")(PipelineStats)

    def test_re_registration_of_same_class_is_idempotent(self):
        assert stateful("rng")(SeededRng) is SeededRng


class TestSeededRng:
    def test_cursor_round_trip_resumes_the_stream(self):
        rng = SeededRng(99, "cursor")
        for _ in range(25):
            rng.random()
        state = rng.state_dict()
        expected = [rng.random() for _ in range(10)]

        resumed = SeededRng(0, "placeholder")
        resumed.load_state(state)
        assert resumed.seed == 99
        assert resumed.name == "cursor"
        assert [resumed.random() for _ in range(10)] == expected

    def test_state_is_json_clean(self):
        import json

        state = SeededRng(3, "j").state_dict()
        assert json.loads(json.dumps(state)) == state


class TestEIA:
    def test_eia_set_round_trip(self):
        original = EIASet(peer=4)
        original.add(WEST)
        original.add(EAST)
        restored = EIASet(peer=0)
        restored.load_state(original.state_dict())
        assert restored.peer == 4
        assert restored.prefixes() == original.prefixes()
        assert restored.contains(WEST.nth_address(5))

    def test_basic_infilter_round_trip_with_pending(self):
        registry = MetricsRegistry()
        original = BasicInFilter(
            EIAConfig(learning_threshold=3), registry=registry
        )
        original.preload(0, [WEST])
        original.preload(1, [EAST])
        newcomer = _records(1)[0].with_key(
            src_addr=Prefix.parse("203.0.0.0/11").nth_address(1)
        )
        original.note_benign(newcomer)

        restored = BasicInFilter(
            EIAConfig(learning_threshold=3), registry=MetricsRegistry()
        )
        restored.load_state(original.state_dict())
        assert restored.peers() == original.peers()
        assert restored.expected_peer_for(WEST.nth_address(1)) == 0
        assert restored.pending_counts() == original.pending_counts()
        # One observation was pending; two more absorb at threshold 3.
        assert not restored.note_benign(newcomer)
        assert restored.note_benign(newcomer)


class TestScanAnalyzer:
    def test_round_trip_preserves_buffer_and_counters(self):
        original = ScanAnalyzer(registry=MetricsRegistry())
        for record in _records(40, attack="network_scan"):
            original.observe(record.key.dst_addr, record.key.dst_port)
        state = original.state_dict()

        restored = ScanAnalyzer(registry=MetricsRegistry())
        restored.load_state(state)
        assert len(restored) == len(original)
        assert restored.network_scans_flagged == original.network_scans_flagged
        assert restored.host_scans_flagged == original.host_scans_flagged
        # The restored buffer keeps producing the same verdict stream.
        for record in _records(20, seed=8, attack="network_scan"):
            got = restored.observe(record.key.dst_addr, record.key.dst_port)
            want = original.observe(record.key.dst_addr, record.key.dst_port)
            assert (got.is_scan, got.kind) == (want.is_scan, want.kind)


class TestPipelineStats:
    def test_round_trip_including_latency_histogram(self):
        original = PipelineStats()
        for index in range(64):
            original.note(legal_decision(index / 1000.0))
        original.attacks = 3
        original.attacks_by_stage = {"nns": 2, "scan": 1}
        state = original.state_dict()
        assert json.loads(json.dumps(state)) == state  # JSON-faithful

        restored = PipelineStats()
        restored.load_state(state)
        assert restored == original
        assert sum(restored.latency_buckets.values()) == 64
        assert restored.attacks_by_stage == original.attacks_by_stage
        # Noting on after the restore matches an uninterrupted run.
        for index in range(64, 128):
            original.note(legal_decision(index / 1000.0))
            restored.note(legal_decision(index / 1000.0))
        assert restored.state_dict() == original.state_dict()
        for quantile in (0.0, 0.5, 0.99, 1.0):
            assert restored.latency_percentile(
                quantile
            ) == original.latency_percentile(quantile)


class TestAlertSink:
    def test_round_trip_preserves_alert_history(self):
        detector = EnhancedInFilter(
            PipelineConfig(
                eia=EIAConfig(learning_threshold=50), enhanced=False
            ),
            rng=SeededRng(11, "sink"),
        )
        detector.preload_eia(0, [WEST])
        for record in _records(0, attack="http_exploit", input_if=1):
            detector.process(record)
        original = detector.alert_sink
        assert len(original) > 0

        restored = AlertSink(registry=MetricsRegistry())
        restored.load_state(original.state_dict())
        assert [a.ident for a in restored.alerts] == [
            a.ident for a in original.alerts
        ]
        assert restored.alerts[0] == original.alerts[0]


class TestClusterModel:
    def test_from_state_reproduces_assessments(self):
        training = _records(400, seed=21, blocks=(WEST,))
        from repro.core.config import NNSConfig

        model = ClusterModel.train(training, NNSConfig())
        restored = ClusterModel.from_state(NNSConfig(), model.state_dict())
        assert restored.thresholds() == model.thresholds()
        for record in _records(30, seed=22, attack="slammer"):
            if not model.has_model_for(record):
                continue
            want_normal, want_result, want_name = model.assess(record)
            got_normal, got_result, got_name = restored.assess(record)
            assert (got_normal, got_name) == (want_normal, want_name)
            if want_result is not None:
                assert got_result.distance == want_result.distance


class TestDetectorMidStream:
    def test_mid_stream_round_trip_matches_uninterrupted(
        self, eia_plan, target_prefix
    ):
        stream = _records(
            120, seed=31, blocks=(EAST,), attack="slammer"
        )
        uninterrupted = make_detector(eia_plan, target_prefix, seed=313)
        restarted = make_detector(eia_plan, target_prefix, seed=313)

        first, rest = stream[:60], stream[60:]
        for record in first:
            uninterrupted.process(record)
            restarted.process(record)
        # "Kill" the second detector and warm-restart a fresh one from
        # its captured state.
        state = restarted.state_dict()
        revived = make_detector(eia_plan, target_prefix, seed=313)
        revived.load_state(state)

        want = [uninterrupted.process(r) for r in rest]
        got = [revived.process(r) for r in rest]
        assert [(d.verdict, d.stage, d.absorbed) for d in got] == [
            (d.verdict, d.stage, d.absorbed) for d in want
        ]
        assert [a.ident for a in revived.alert_sink.alerts] == [
            a.ident for a in uninterrupted.alert_sink.alerts
        ]
        # Latency fields are wall-clock; every deterministic counter
        # must match exactly.
        want_stats = uninterrupted.stats.state_dict()
        got_stats = revived.stats.state_dict()
        for key in ("processed", "legal", "suspects", "benign", "attacks",
                    "absorbed", "attacks_by_stage", "overload_dropped",
                    "overload_flagged"):
            assert got_stats[key] == want_stats[key], key
        # Which buckets is wall-clock; how many flows they hold is not.
        assert sum(got_stats["latency_buckets"].values()) == sum(
            want_stats["latency_buckets"].values()
        )
