"""Tests for the pluggable detector ensemble (:mod:`repro.core.detector`).

Covers the protocol's composition rules, the two auxiliary detectors
(TTL profiles and the bogon check), the vote combiner's three policies,
the behaviour-preservation guarantee of the default InFilter-only
composition, per-detector checkpoint byte-identity, and the alert
attribution trail that every ensemble decision emits.
"""

import dataclasses
import io
import json

import pytest

from repro.core import (
    AUX_DETECTOR_NAMES,
    BogonDetector,
    EIAConfig,
    EnhancedInFilter,
    Ensemble,
    PipelineConfig,
    TTLProfileDetector,
    available_detectors,
    parse_idmef,
    validate_composition,
)
from repro.core.detector import DetectorVerdict
from repro.core.persistence import load_checkpoint, render_state
from repro.core.pipeline import Stage, Verdict
from repro.flowgen import Dagflow, generate_attack, synthesize_trace
from repro.netflow.records import FlowKey, FlowRecord
from repro.obs import MetricsRegistry
from repro.util import Prefix, SeededRng
from repro.util.errors import ConfigError

from tests.conftest import offline_worker

ENSEMBLE = ("infilter", "ttl_profile", "bogon")


def _make_ensemble_detector(
    eia_plan, target_prefix, *, detectors=ENSEMBLE, policy="any",
    seed=5150, n_train=1200, eia=None,
):
    """A trained detector whose training traffic carries plausible TTLs."""
    config = PipelineConfig(
        detectors=detectors,
        ensemble_policy=policy,
        eia=eia if eia is not None else EIAConfig(),
    )
    rng = SeededRng(seed, "ensemble-factory")
    detector = EnhancedInFilter(config, rng=rng.fork("det"))
    for peer, blocks in eia_plan.items():
        detector.preload_eia(peer, blocks)
    dagflow = Dagflow(
        "trainer", target_prefix=target_prefix, udp_port=9000,
        source_blocks=eia_plan[0], rng=rng.fork("df"), emit_ttl=True,
    )
    trace = synthesize_trace(n_train, rng=rng.fork("trace"))
    detector.train(
        [lr.record.with_key(input_if=0) for lr in dagflow.replay(trace)]
    )
    return detector


def _probe_records(eia_plan, target_prefix, *, seed=5151, n=120,
                   attack="slammer", **attack_knobs):
    """Legal traffic from peer 0 plus one spoofed attack at peer 2."""
    rng = SeededRng(seed, "ensemble-probe")
    legal = Dagflow(
        "legal", target_prefix=target_prefix, udp_port=9000,
        source_blocks=eia_plan[0], rng=rng.fork("legal"), emit_ttl=True,
    )
    records = [
        lr.record.with_key(input_if=0)
        for lr in legal.replay(synthesize_trace(n, rng=rng.fork("t")))
    ]
    foreign = [
        block for peer, blocks in eia_plan.items() if peer != 2
        for block in blocks
    ]
    spoofer = Dagflow(
        "spoof", target_prefix=target_prefix, udp_port=9001,
        source_blocks=foreign, rng=rng.fork("spoof"), emit_ttl=True,
    )
    records += [
        lr.record.with_key(input_if=2)
        for lr in spoofer.replay(
            generate_attack(attack, rng=rng.fork("a"), **attack_knobs)
        )
    ]
    return records


def _flow(src_addr, *, input_if=0, ttl=0):
    return FlowRecord(
        key=FlowKey(
            src_addr=src_addr, dst_addr=0xC6120001, protocol=17,
            src_port=4000, dst_port=9999, input_if=input_if,
        ),
        packets=1, octets=80, first=0, last=0, ttl=ttl,
    )


class TestComposition:
    def test_available_detectors_anchor_first(self):
        assert available_detectors() == ("infilter",) + AUX_DETECTOR_NAMES

    def test_empty_composition_rejected(self):
        with pytest.raises(ConfigError, match="composition is empty"):
            validate_composition((), "any")

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError, match="duplicate detector"):
            validate_composition(("infilter", "bogon", "bogon"), "any")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown detector 'zeta'"):
            validate_composition(("infilter", "zeta"), "any")

    def test_missing_anchor_rejected(self):
        with pytest.raises(ConfigError, match="must include 'infilter'"):
            validate_composition(("ttl_profile", "bogon"), "any")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown ensemble policy"):
            validate_composition(("infilter",), "quorum")

    def test_config_runs_the_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(detectors=("infilter", "nope"))
        with pytest.raises(ConfigError):
            PipelineConfig(ensemble_policy="quorum")


class TestTTLProfileDetector:
    def _trained(self):
        detector = TTLProfileDetector(registry=MetricsRegistry())
        detector.train([
            _flow(0x18000001, ttl=60), _flow(0x18000002, ttl=62),
            _flow(0x90000001, ttl=50),
        ])
        return detector

    def test_abstains_without_ttl_or_baseline(self):
        detector = self._trained()
        assert detector.observe(_flow(0x18000003, ttl=0)).outcome == "abstain"
        # 200.0.0.1: a prefix never seen in training.
        assert detector.observe(_flow(0xC8000001, ttl=60)).outcome == "abstain"

    def test_within_tolerance_is_clear(self):
        detector = self._trained()
        verdict = detector.observe(_flow(0x18000009, ttl=57))
        assert (verdict.outcome, verdict.score) == ("clear", 0.0)

    def test_distance_beyond_tolerance_is_a_hit(self):
        detector = self._trained()
        verdict = detector.observe(_flow(0x18000009, ttl=200))
        assert verdict.outcome == "hit"
        assert verdict.reason == "ttl-anomaly"
        assert verdict.score == 138.0  # 200 - 62

    def test_state_round_trip_is_byte_identical(self):
        detector = self._trained()
        state = detector.state_dict()
        restored = TTLProfileDetector(registry=MetricsRegistry())
        restored.load_state(state)
        assert json.dumps(restored.state_dict(), sort_keys=True) == json.dumps(
            state, sort_keys=True
        )
        assert restored.observe(_flow(0x18000009, ttl=200)).outcome == "hit"

    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigError):
            TTLProfileDetector(prefix_len=0, registry=MetricsRegistry())
        with pytest.raises(ConfigError):
            TTLProfileDetector(tolerance=-1, registry=MetricsRegistry())


class TestBogonDetector:
    CATEGORY_SOURCES = {
        "this-network": 0x00000021,   # 0.0.0.33
        "private": 0x0A000001,        # 10.0.0.1
        "shared-cgn": 0x6440000D,     # 100.64.0.13
        "loopback": 0x7F000001,       # 127.0.0.1
        "multicast": 0xE0000005,      # 224.0.0.5
        "reserved": 0xF0000009,       # 240.0.0.9
    }

    def test_every_builtin_category_is_flagged(self):
        detector = BogonDetector(registry=MetricsRegistry())
        for category, src in self.CATEGORY_SOURCES.items():
            verdict = detector.observe(_flow(src))
            assert verdict.outcome == "hit", category
            assert verdict.reason == "bogon-source"

    def test_universe_space_is_clear_and_never_abstains(self):
        detector = BogonDetector(registry=MetricsRegistry())
        verdict = detector.observe(_flow(0x18000001))  # 24.0.0.1
        assert (verdict.outcome, verdict.abstained) == ("clear", False)

    def test_extra_prefixes_extend_the_trie(self):
        detector = BogonDetector(
            extra_prefixes=[Prefix.parse("203.128.0.0/9")],
            registry=MetricsRegistry(),
        )
        assert detector.observe(_flow(0xCB800001)).outcome == "hit"

    def test_state_round_trip_is_byte_identical(self):
        detector = BogonDetector(
            extra_prefixes=[Prefix.parse("203.128.0.0/9")],
            registry=MetricsRegistry(),
        )
        state = detector.state_dict()
        restored = BogonDetector(registry=MetricsRegistry())
        restored.load_state(state)
        assert json.dumps(restored.state_dict(), sort_keys=True) == json.dumps(
            state, sort_keys=True
        )
        assert restored.observe(_flow(0xCB800001)).outcome == "hit"


class TestEnsemblePolicies:
    HIT = DetectorVerdict("bogon", True, reason="bogon-source")
    CLEAR = DetectorVerdict("bogon", False)
    TTL_HIT = DetectorVerdict("ttl_profile", True, reason="ttl-anomaly")
    TTL_ABSTAIN = DetectorVerdict("ttl_profile", False, abstained=True)

    def test_any_promotes_on_a_single_aux_hit(self):
        ensemble = Ensemble("any", ENSEMBLE)
        decision = ensemble.combine(False, [self.TTL_ABSTAIN, self.HIT])
        assert decision.attack
        assert decision.trigger is self.HIT

    def test_majority_counts_only_voters(self):
        ensemble = Ensemble("majority", ENSEMBLE)
        # Chain hit, TTL abstains, bogon clear: 1 of 2 voters is no majority.
        assert not ensemble.combine(True, [self.TTL_ABSTAIN, self.CLEAR]).attack
        # Two aux hits outvote a clear chain.
        assert ensemble.combine(False, [self.TTL_HIT, self.HIT]).attack

    def test_weighted_needs_a_full_vote(self):
        ensemble = Ensemble("weighted", ENSEMBLE)
        # TTL alone carries weight 0.5: not enough.
        assert not ensemble.combine(False, [self.TTL_HIT, self.CLEAR]).attack
        # The bogon check alone carries weight 1.0.
        assert ensemble.combine(False, [self.TTL_ABSTAIN, self.HIT]).attack
        # So does the InFilter chain.
        assert ensemble.combine(True, [self.TTL_ABSTAIN, self.CLEAR]).attack

    def test_attribution_lists_every_detector_in_order(self):
        ensemble = Ensemble("any", ENSEMBLE)
        decision = ensemble.combine(True, [self.TTL_ABSTAIN, self.HIT])
        assert decision.attribution == (
            "infilter:hit", "ttl_profile:abstain", "bogon:hit"
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            Ensemble("quorum", ENSEMBLE)


class TestDefaultComposition:
    """The refactor's acceptance bar: InFilter-only behaves as before."""

    @pytest.mark.parametrize("policy", ["any", "majority", "weighted"])
    def test_explicit_single_detector_matches_default(
        self, eia_plan, target_prefix, policy
    ):
        records = _probe_records(eia_plan, target_prefix)
        default = _make_ensemble_detector(
            eia_plan, target_prefix, detectors=("infilter",), policy="any"
        )
        explicit = _make_ensemble_detector(
            eia_plan, target_prefix, detectors=("infilter",), policy=policy
        )
        want = [default.process(r) for r in records]
        got = [explicit.process(r) for r in records]
        assert [(d.verdict, d.stage, d.absorbed) for d in got] == [
            (d.verdict, d.stage, d.absorbed) for d in want
        ]
        assert [a.to_xml() for a in explicit.alert_sink.alerts] == [
            a.to_xml() for a in default.alert_sink.alerts
        ]

    def test_single_detector_emits_no_ensemble_artifacts(
        self, eia_plan, target_prefix
    ):
        detector = _make_ensemble_detector(
            eia_plan, target_prefix, detectors=("infilter",)
        )
        decisions = [
            detector.process(r)
            for r in _probe_records(eia_plan, target_prefix)
        ]
        assert detector.aux_detectors == []
        assert all(d.stage != Stage.ENSEMBLE for d in decisions)
        assert all(a.attribution == () for a in detector.alert_sink.alerts)
        assert len(detector.alert_sink.alerts) > 0

    def test_quiet_aux_detectors_change_no_verdict(
        self, eia_plan, target_prefix
    ):
        """With no TTLs measured and no bogon sources, a full ensemble
        reproduces the single-detector verdict stream exactly (the aux
        members abstain or stay clear; ``any`` never suppresses)."""
        legacy = _make_ensemble_detector(
            eia_plan, target_prefix, detectors=("infilter",)
        )
        composed = _make_ensemble_detector(eia_plan, target_prefix)
        rng = SeededRng(777, "quiet")
        quiet = Dagflow(
            "q", target_prefix=target_prefix, udp_port=9000,
            source_blocks=eia_plan[0], rng=rng.fork("df"),  # no emit_ttl
        )
        flows = synthesize_trace(80, rng=rng.fork("t")) + generate_attack(
            "slammer", rng=rng.fork("a")
        )
        records = [
            lr.record.with_key(input_if=1) for lr in quiet.replay(flows)
        ]
        want = [legacy.process(r) for r in records]
        got = [composed.process(r) for r in records]
        assert [(d.verdict, d.stage) for d in got] == [
            (d.verdict, d.stage) for d in want
        ]
        assert [a.ident for a in composed.alert_sink.alerts] == [
            a.ident for a in legacy.alert_sink.alerts
        ]


class TestEnsembleAlerts:
    def test_ttl_anomaly_promotes_a_legal_flow(self, eia_plan, target_prefix):
        detector = _make_ensemble_detector(
            eia_plan, target_prefix, detectors=("infilter", "ttl_profile")
        )
        source = eia_plan[0][0].nth_address(7)
        baseline = detector.process(_flow(source, input_if=0, ttl=0))
        assert baseline.verdict == Verdict.LEGAL
        decision = detector.process(_flow(source, input_if=0, ttl=200))
        assert decision.verdict == Verdict.ATTACK
        assert decision.stage == Stage.ENSEMBLE
        alert = detector.alert_sink.alerts[-1]
        assert alert.classification == "ttl-anomaly"
        assert alert.attribution == ("infilter:clear", "ttl_profile:hit")

    def test_bogon_source_promotes_a_legal_flow(self):
        # Peer 0 "expects" 10/8, so the chain calls the flow legal; the
        # bogon member still knows that space originates nowhere.
        detector = EnhancedInFilter(
            PipelineConfig(
                enhanced=False, detectors=("infilter", "bogon")
            ),
            rng=SeededRng(3, "bogon-promote"),
        )
        detector.preload_eia(0, [Prefix.parse("10.0.0.0/8")])
        decision = detector.process(_flow(0x0A000001, input_if=0))
        assert decision.verdict == Verdict.ATTACK
        assert decision.stage == Stage.ENSEMBLE
        alert = detector.alert_sink.alerts[-1]
        assert alert.classification == "bogon-source"
        assert alert.attribution == ("infilter:clear", "bogon:hit")

    def test_majority_suppresses_an_uncorroborated_chain_hit(self):
        detector = EnhancedInFilter(
            PipelineConfig(
                enhanced=False, detectors=ENSEMBLE,
                ensemble_policy="majority",
            ),
            rng=SeededRng(4, "suppress"),
        )
        detector.preload_eia(0, [Prefix.parse("24.0.0.0/11")])
        # Unexpected ingress, but no TTL evidence and a clean source:
        # the chain's hit is 1 of 2 voters — no majority, no alert.
        decision = detector.process(_flow(0x90000001, input_if=0))
        assert decision.verdict == Verdict.BENIGN
        assert decision.stage == Stage.ENSEMBLE
        assert detector.alert_sink.alerts == []

    def test_confirmed_chain_attack_carries_attribution(
        self, eia_plan, target_prefix
    ):
        detector = _make_ensemble_detector(eia_plan, target_prefix)
        records = _probe_records(
            eia_plan, target_prefix, martian_fraction=1.0
        )
        for record in records:
            detector.process(record)
        assert detector.alert_sink.alerts
        for alert in detector.alert_sink.alerts:
            assert alert.attribution
            assert alert.attribution[0].startswith("infilter:")
            assert any(
                token == "bogon:hit" for token in alert.attribution
            ) or alert.stage != Stage.ENSEMBLE

    def test_attribution_survives_idmef_round_trip(self):
        detector = EnhancedInFilter(
            PipelineConfig(enhanced=False, detectors=("infilter", "bogon")),
            rng=SeededRng(5, "idmef"),
        )
        detector.preload_eia(0, [Prefix.parse("10.0.0.0/8")])
        detector.process(_flow(0x0A000001, input_if=0))
        alert = detector.alert_sink.alerts[-1]
        parsed = parse_idmef(alert.to_xml())
        assert parsed.attribution == alert.attribution


class TestCheckpointRoundTrip:
    def test_ensemble_save_load_save_is_byte_identical(
        self, eia_plan, target_prefix
    ):
        detector = _make_ensemble_detector(eia_plan, target_prefix)
        records = _probe_records(
            eia_plan, target_prefix,
            attack="slammer", implausible_ttl=True, martian_fraction=0.25,
        )
        for record in records:
            detector.process(record)
        first = render_state(detector, cursor=len(records))
        restored, cursor = load_checkpoint(io.StringIO(first))
        assert cursor == len(records)
        assert render_state(restored, cursor=cursor) == first

    def test_checkpoint_carries_the_composition(
        self, eia_plan, target_prefix
    ):
        detector = _make_ensemble_detector(
            eia_plan, target_prefix, policy="weighted"
        )
        restored, _ = load_checkpoint(io.StringIO(render_state(detector)))
        assert restored.config.detectors == ENSEMBLE
        assert restored.config.ensemble_policy == "weighted"
        assert [aux.name for aux in restored.aux_detectors] == [
            "ttl_profile", "bogon"
        ]

    def test_restored_aux_state_matches(self, eia_plan, target_prefix):
        detector = _make_ensemble_detector(eia_plan, target_prefix)
        restored, _ = load_checkpoint(io.StringIO(render_state(detector)))
        for original, revived in zip(
            detector.aux_detectors, restored.aux_detectors
        ):
            assert json.dumps(
                revived.state_dict(), sort_keys=True
            ) == json.dumps(original.state_dict(), sort_keys=True)

    def test_detector_sections_in_the_document(self, eia_plan, target_prefix):
        detector = _make_ensemble_detector(eia_plan, target_prefix)
        document = json.loads(render_state(detector))
        assert sorted(document["components"]["detectors"]) == [
            "bogon", "ttl_profile"
        ]

    def test_mid_stream_round_trip_matches_uninterrupted(
        self, eia_plan, target_prefix
    ):
        records = _probe_records(
            eia_plan, target_prefix, n=160,
            implausible_ttl=True, martian_fraction=0.5,
        )
        uninterrupted = _make_ensemble_detector(
            eia_plan, target_prefix, policy="weighted"
        )
        victim = _make_ensemble_detector(
            eia_plan, target_prefix, policy="weighted"
        )
        first, rest = records[:80], records[80:]
        for record in first:
            uninterrupted.process(record)
            victim.process(record)
        revived = _make_ensemble_detector(
            eia_plan, target_prefix, policy="weighted"
        )
        revived.load_state(victim.state_dict())
        want = [uninterrupted.process(r) for r in rest]
        got = [revived.process(r) for r in rest]
        assert [(d.verdict, d.stage, d.absorbed) for d in got] == [
            (d.verdict, d.stage, d.absorbed) for d in want
        ]
        assert [a.ident for a in revived.alert_sink.alerts] == [
            a.ident for a in uninterrupted.alert_sink.alerts
        ]


class TestEngineWithEnsemble:
    """The commit worker's offline serial-equivalence contract holds
    for multi-detector compositions: batching and a kill-and-resume
    cycle change no verdict, alert, or stat."""

    _worker = staticmethod(offline_worker)

    def _trace(self, eia_plan, target_prefix):
        return _probe_records(
            eia_plan, target_prefix, n=300,
            implausible_ttl=True, martian_fraction=0.25,
        )

    def _stats_tuple(self, detector):
        s = detector.stats
        return (s.processed, s.legal, s.suspects, s.benign, s.attacks,
                s.absorbed, s.attacks_by_stage)

    def test_batched_run_matches_serial(self, eia_plan, target_prefix):
        records = self._trace(eia_plan, target_prefix)
        serial = _make_ensemble_detector(eia_plan, target_prefix)
        serial.process_all(records)
        batched = _make_ensemble_detector(eia_plan, target_prefix)
        worker = self._worker(batched, batch_size=64)
        worker.run_offline(records)
        assert worker.committed == len(records)
        assert self._stats_tuple(batched) == self._stats_tuple(serial)
        assert [
            (a.ident, a.classification, a.attribution)
            for a in batched.alert_sink.alerts
        ] == [
            (a.ident, a.classification, a.attribution)
            for a in serial.alert_sink.alerts
        ]

    def test_killed_and_resumed_run_matches_uninterrupted(
        self, eia_plan, target_prefix, tmp_path
    ):
        records = self._trace(eia_plan, target_prefix)
        serial = _make_ensemble_detector(
            eia_plan, target_prefix, policy="weighted"
        )
        serial.process_all(records)

        path = tmp_path / "ensemble.ckpt"
        victim = _make_ensemble_detector(
            eia_plan, target_prefix, policy="weighted"
        )
        config = dict(
            batch_size=50, checkpoint_every=2, checkpoint_path=str(path)
        )
        self._worker(victim, **config).run_offline(records[:200])

        restored, cursor = load_checkpoint(path)
        assert cursor == 200
        assert restored.config.detectors == ENSEMBLE
        self._worker(restored, cursor_base=cursor, **config).run_offline(
            records[cursor:]
        )
        assert self._stats_tuple(restored) == self._stats_tuple(serial)
        assert [
            (a.ident, a.classification, a.attribution)
            for a in restored.alert_sink.alerts
        ] == [
            (a.ident, a.classification, a.attribution)
            for a in serial.alert_sink.alerts
        ]
        # The tail is not a whole number of checkpoint periods; the
        # driver's final checkpoint still covers the whole stream.
        _final, final_cursor = load_checkpoint(path)
        assert final_cursor == len(records)
