"""Tests for versioned, atomic detector checkpoints (state format 4).

The inline document and the one-shot three-file write; incremental
writes, crash recovery and journal verification are in
``test_checkpoint_files``.
"""

import io
import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.core import EnhancedInFilter, PipelineConfig, EIAConfig
from repro.core.clusters import ClusterModel
from repro.core.persistence import (
    STATE_FORMAT_VERSION,
    _canonical,
    describe_state,
    load_checkpoint,
    load_detector,
    render_state,
    save_detector,
)
from repro.flowgen import Dagflow, generate_attack, synthesize_trace
from repro.util import Prefix, SeededRng
from repro.util.errors import ReproError, StateError

WEST = Prefix.parse("24.0.0.0/11")
EAST = Prefix.parse("144.0.0.0/11")
TARGET = Prefix.parse("198.18.0.0/16")


def build_trained(seed=77, rng=None):
    rng = rng if rng is not None else SeededRng(seed, "persist")
    detector = EnhancedInFilter(
        PipelineConfig(eia=EIAConfig(learning_threshold=4)), rng=rng.fork("det")
    )
    detector.preload_eia(0, [WEST])
    detector.preload_eia(1, [EAST])
    dagflow = Dagflow(
        "t", target_prefix=TARGET, udp_port=9000,
        source_blocks=[WEST], rng=rng.fork("df"),
    )
    training = [
        lr.record.with_key(input_if=0)
        for lr in dagflow.replay(synthesize_trace(1200, rng=rng.fork("trace")))
    ]
    detector.train(training)
    return detector, training


def probe_records(seed=78, attack="http_exploit"):
    rng = SeededRng(seed, "probe")
    dagflow = Dagflow(
        "p", target_prefix=TARGET, udp_port=9000,
        source_blocks=[EAST], rng=rng,
    )
    flows = synthesize_trace(80, rng=rng.fork("n")) + generate_attack(
        attack, rng=rng.fork("a")
    )
    return [lr.record.with_key(input_if=0) for lr in dagflow.replay(flows)]


def attack_records(seed=80):
    """Attack-only probes: benign suspects would trigger absorption at
    the low learning threshold and legalise the source blocks."""
    rng = SeededRng(seed, "idents")
    dagflow = Dagflow(
        "a", target_prefix=TARGET, udp_port=9000,
        source_blocks=[EAST], rng=rng,
    )
    return [
        lr.record.with_key(input_if=0)
        for lr in dagflow.replay(
            generate_attack("http_exploit", rng=rng.fork("x"))
        )
    ]


class TestRoundTrip:
    def test_identical_decisions_after_restore(self):
        detector, _training = build_trained()
        buffer = io.StringIO()
        save_detector(detector, buffer)
        buffer.seek(0)
        restored = load_detector(buffer)

        probes = probe_records()
        original_verdicts = [detector.process(r).verdict for r in probes]
        restored_verdicts = [restored.process(r).verdict for r in probes]
        assert original_verdicts == restored_verdicts

    def test_thresholds_and_eia_restored(self):
        detector, _training = build_trained()
        buffer = io.StringIO()
        save_detector(detector, buffer)
        buffer.seek(0)
        restored = load_detector(buffer)
        assert restored.model.thresholds() == detector.model.thresholds()
        assert restored.infilter.peers() == [0, 1]
        assert restored.config.eia.learning_threshold == 4
        assert restored.infilter.expected_peer_for(EAST.nth_address(1)) == 1

    def test_pending_counters_restored(self):
        detector, _training = build_trained()
        # Accumulate two of the four benign observations for a new block.
        newcomer = probe_records()[0].with_key(
            src_addr=Prefix.parse("203.0.0.0/11").nth_address(1)
        )
        detector.infilter.note_benign(newcomer)
        detector.infilter.note_benign(newcomer)
        buffer = io.StringIO()
        save_detector(detector, buffer)
        buffer.seek(0)
        restored = load_detector(buffer)
        # Two more observations absorb on the restored detector (4 total).
        assert not restored.infilter.note_benign(newcomer)
        assert restored.infilter.note_benign(newcomer)

    def test_alert_idents_continue(self):
        detector, _training = build_trained()
        attack = attack_records()
        for record in attack:
            detector.process(record)
        n_alerts = len(detector.alert_sink)
        assert n_alerts > 0
        buffer = io.StringIO()
        save_detector(detector, buffer)
        buffer.seek(0)
        restored = load_detector(buffer)
        decision = restored.process(probe_records(seed=79, attack="jolt")[-1])
        assert decision.is_attack
        # Ident numbering continues where the saved detector stopped.
        assert int(decision.alert.ident.split("-")[1]) == n_alerts + 1

    def test_alert_history_survives_restore(self):
        detector, _training = build_trained()
        for record in probe_records():
            detector.process(record)
        buffer = io.StringIO()
        save_detector(detector, buffer)
        buffer.seek(0)
        restored = load_detector(buffer)
        assert [a.ident for a in restored.alert_sink.alerts] == [
            a.ident for a in detector.alert_sink.alerts
        ]

    def test_live_stats_and_scan_state_survive_restore(self):
        detector, _training = build_trained()
        for record in probe_records():
            detector.process(record)
        buffer = io.StringIO()
        save_detector(detector, buffer)
        buffer.seek(0)
        restored = load_detector(buffer)
        ref, got = detector.stats, restored.stats
        assert (got.processed, got.legal, got.suspects, got.benign,
                got.attacks, got.absorbed, got.attacks_by_stage) == (
            ref.processed, ref.legal, ref.suspects, ref.benign,
            ref.attacks, ref.absorbed, ref.attacks_by_stage,
        )
        assert got.latency_buckets == ref.latency_buckets
        assert got.latency_percentile(0.9) == ref.latency_percentile(0.9)
        assert restored.scan.state_dict() == detector.scan.state_dict()

    def test_file_path_round_trip(self, tmp_path):
        detector, _training = build_trained()
        path = tmp_path / "state.json"
        save_detector(detector, path)
        restored = load_detector(path)
        assert restored.model is not None

    def test_untrained_basic_detector(self):
        detector = EnhancedInFilter(PipelineConfig.basic(), rng=SeededRng(1))
        detector.preload_eia(0, [WEST])
        buffer = io.StringIO()
        save_detector(detector, buffer)
        buffer.seek(0)
        restored = load_detector(buffer)
        assert restored.model is None
        assert not restored.config.enhanced


class TestByteIdentity:
    def test_save_load_save_is_byte_identical(self):
        detector, _training = build_trained()
        for record in probe_records():
            detector.process(record)
        first = render_state(detector, cursor=80)
        restored, cursor = load_checkpoint(io.StringIO(first))
        assert cursor == 80
        assert render_state(restored, cursor=cursor) == first

    def test_untrained_byte_identity(self):
        detector = EnhancedInFilter(PipelineConfig.basic(), rng=SeededRng(1))
        detector.preload_eia(0, [WEST])
        first = render_state(detector)
        assert render_state(load_detector(io.StringIO(first))) == first

    def test_the_pipeline_rng_is_saved_as_its_seed(self):
        """The pipeline's stream is only forked, so its seed and name
        are its state: a restored detector trains the same model."""
        detector, training = build_trained()
        document = json.loads(render_state(detector))
        assert set(document["components"]["rng"]) == {"seed", "name"}
        restored = load_detector(io.StringIO(render_state(detector)))
        restored.train(training)
        assert restored.model.state_dict() == detector.model.state_dict()

    def test_rendered_state_is_canonical_json(self):
        detector, _training = build_trained()
        text = render_state(detector)
        document = json.loads(text)
        assert document["format"] == STATE_FORMAT_VERSION
        # Canonical form: re-dumping with the same options is a no-op.
        assert json.dumps(
            document, sort_keys=True, separators=(",", ":")
        ) == text


#: Nested JSON values: non-ASCII and escaped text, floats of every kind
#: (NaN and the infinities included), keys that sort differently as
#: text than as code points would.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=30,
)


@given(_json_values)
def test_the_shared_canonical_encoder_equals_json_dumps(value):
    assert _canonical(value) == json.dumps(
        value, sort_keys=True, separators=(",", ":")
    )


class TestCursor:
    def test_cursor_round_trips(self, tmp_path):
        detector, _training = build_trained()
        path = tmp_path / "ckpt.json"
        save_detector(detector, path, cursor=4321)
        _restored, cursor = load_checkpoint(path)
        assert cursor == 4321

    def test_plain_save_has_no_cursor(self):
        detector, _training = build_trained()
        buffer = io.StringIO()
        save_detector(detector, buffer)
        buffer.seek(0)
        _restored, cursor = load_checkpoint(buffer)
        assert cursor is None


class TestNoRetraining:
    def test_v2_load_never_replays_training(self, monkeypatch):
        detector, _training = build_trained()
        text = render_state(detector)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("v2 load must not retrain the model")

        monkeypatch.setattr(ClusterModel, "train", forbidden)
        restored = load_detector(io.StringIO(text))
        assert restored.model is not None
        assert restored.model.thresholds() == detector.model.thresholds()


class TestAtomicWrite:
    def test_crash_during_replace_preserves_old_checkpoint(
        self, tmp_path, monkeypatch
    ):
        detector, _training = build_trained()
        path = tmp_path / "state.json"
        save_detector(detector, path)
        original = path.read_text()

        detector.process(probe_records()[0])

        def crash(_src, _dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(StateError):
            save_detector(detector, path)
        # The previous complete checkpoint is untouched and the torn
        # temp file was cleaned up.
        assert path.read_text() == original
        assert not path.with_name("state.json.tmp").exists()

    def test_no_temp_file_left_after_success(self, tmp_path):
        detector, _training = build_trained()
        path = tmp_path / "state.json"
        for record in attack_records():
            detector.process(record)
        save_detector(detector, path)
        save_detector(detector, path)  # overwriting leaves nothing extra
        names = sorted(entry.name for entry in tmp_path.iterdir())
        assert len(names) == 3 and not any(
            name.endswith(".tmp") for name in names
        )
        head, journal, base = names
        assert head == "state.json" and journal == "state.json.alerts"
        assert base.startswith("state.json.base-")


class TestDescribeState:
    def test_v2_summary(self, tmp_path):
        detector, _training = build_trained()
        for record in attack_records() + probe_records():
            detector.process(record)
        path = tmp_path / "ckpt.json"
        save_detector(detector, path, cursor=80)
        summary = describe_state(path)
        assert summary["format"] == STATE_FORMAT_VERSION
        assert summary["cursor"] == 80
        assert summary["trained"]
        assert summary["peers"] == {
            str(peer): len(detector.infilter.eia_set(peer).prefixes())
            for peer in detector.infilter.peers()
        }
        assert summary["moved_blocks"] == len(detector.infilter.moves())
        assert summary["stats"]["processed"] == detector.stats.processed
        assert summary["alerts"] == len(detector.alert_sink) > 0
        assert set(summary["classes"]) == set(detector.model.thresholds())
        assert summary["verified"] == {"base": True, "journal": True}
        assert summary["parts"] == {
            "head": path.stat().st_size,
            "journal": (tmp_path / "ckpt.json.alerts").stat().st_size,
            "base": next(tmp_path.glob("ckpt.json.base-*")).stat().st_size,
        }
        # The inline document of the same state describes the same.
        inline = describe_state(io.StringIO(render_state(detector, cursor=80)))
        assert inline["parts"] is None and inline["verified"] is None
        for key in (
            "cursor", "trained", "classes", "peers", "moved_blocks", "alerts",
            "stats",
        ):
            assert inline[key] == summary[key], key

    def test_peers_count_the_plan_overlaid_with_the_moves(self, tmp_path):
        """A block the learning rule moved counts at its learned peer, in
        the base-and-head summary and in the inline one alike."""
        detector, _training = build_trained()
        detector.infilter.apply_absorption(1, WEST)
        detector.infilter.apply_absorption(2, Prefix.parse("203.0.0.0/11"))
        path = tmp_path / "ckpt.json"
        save_detector(detector, path)
        inline = io.StringIO(render_state(detector))
        for summary in (describe_state(path), describe_state(inline)):
            assert summary["peers"] == {"0": 0, "1": 2, "2": 1}
            assert summary["moved_blocks"] == 2


class TestErrors:
    def test_malformed_json(self):
        with pytest.raises(StateError):
            load_detector(io.StringIO("not json"))

    def test_non_object_document(self):
        with pytest.raises(StateError):
            load_detector(io.StringIO("[1, 2, 3]"))

    def test_unknown_format_version(self):
        with pytest.raises(ReproError):
            load_detector(io.StringIO('{"format": 99}'))

    def test_retired_format_1_is_rejected(self, tmp_path, capsys):
        """The v1 and v2 readers are gone: both the loader and
        ``infilter state inspect`` refuse such a document by name."""
        for version, body in (
            (1, '"trained": false, "training": []'),
            (2, '"config": {}, "cursor": null, "components": {}'),
        ):
            path = tmp_path / f"v{version}.json"
            path.write_text(f'{{"format": {version}, {body}}}')
            message = f"unsupported detector state format {version}"
            with pytest.raises(StateError, match=message + "$"):
                load_checkpoint(path)
            assert main(["state", "inspect", str(path)]) == 2
            assert message in capsys.readouterr().err

    def test_retired_format_3_head_is_rejected(self, tmp_path, capsys):
        """A format-3 head (every EIA set and the RNG cursor in the head,
        the model alone in the base) has no reader."""
        path = tmp_path / "v3.json"
        path.write_text(
            '{"base":null,"components":{"eia":{"peers":{"0":{"peer":0,'
            '"prefixes":["24.0.0.0/11"]}},"pending":[]},"rng":{"cursor":'
            '{"gauss_next":null,"internal":[],"version":3},"name":"p",'
            '"seed":1}},"config":{},"cursor":null,"format":3,"journal":'
            '{"alerts":0,"bytes":0,"sha256":""}}'
        )
        message = "unsupported detector state format 3"
        with pytest.raises(StateError, match=message + "$"):
            load_checkpoint(path)
        assert main(["state", "inspect", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_corrupt_v2_document(self):
        with pytest.raises(StateError, match="corrupt detector state"):
            load_detector(
                io.StringIO(f'{{"format": {STATE_FORMAT_VERSION}, "cursor": null}}')
            )

    def test_head_from_a_stream_is_refused(self, tmp_path):
        detector, _training = build_trained()
        path = tmp_path / "state.json"
        save_detector(detector, path)
        with pytest.raises(StateError, match="from the path"):
            load_detector(io.StringIO(path.read_text()))

    def test_missing_checkpoint_file(self, tmp_path):
        with pytest.raises(StateError):
            load_detector(tmp_path / "nope.json")

    def test_state_error_is_a_repro_error(self):
        assert issubclass(StateError, ReproError)
        assert issubclass(StateError, RuntimeError)
