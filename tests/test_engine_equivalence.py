"""Serial-equivalence properties of the commit worker, driven offline.

``CommitWorker.run_offline`` is what ``infilter detect`` commits a flow
file through, and its contract is that batching is *invisible* in the
output: for any batch size the decision-derived stats, absorption set,
EIA state, alert stream and checkpoint equal what serial ``process_all``
produces on an identically built detector.  These tests run one mixed
trace — legal traffic, a route-changed block that must be absorbed by
online learning, and a Slammer flood — through a serial reference and
through workers at several batch sizes, and compare every observable.
"""

import hashlib
import json
from typing import List

import pytest

from repro.core import EIAConfig, NNSConfig, PipelineConfig
from repro.core.persistence import CheckpointWriter, load_checkpoint
from repro.flowgen import Dagflow, generate_attack, synthesize_trace
from repro.serve import ServeConfig
from repro.util import SeededRng
from repro.util.errors import ServeError

from tests.conftest import make_detector, offline_worker as _worker
from tests.test_fastpath import _scrub_wall_clock

_SEED = 90210


def _build_detector(eia_plan, target_prefix, *, m1=1):
    config = PipelineConfig(
        eia=EIAConfig(learning_threshold=3), nns=NNSConfig(m1=m1)
    )
    return make_detector(
        eia_plan, target_prefix, seed=_SEED, config=config, n_train=900
    )


@pytest.fixture(scope="module")
def mixed_trace(eia_plan, target_prefix) -> List:
    """Legal + route-changed (absorbable) + attack traffic, interleaved."""
    rng = SeededRng(5150, "engine-equiv")
    records = []
    legal = Dagflow(
        "legal", target_prefix=target_prefix, udp_port=9000,
        source_blocks=eia_plan[0], rng=rng.fork("legal"),
    )
    records += [
        lr.record.with_key(input_if=0)
        for lr in legal.replay(synthesize_trace(500, rng=rng.fork("t-legal")))
    ]
    # Two blocks whose routes "changed": benign traffic now enters at
    # peer 0 although other peers expect them -> learning-rule food.
    moved = Dagflow(
        "moved", target_prefix=target_prefix, udp_port=9001,
        source_blocks=[eia_plan[1][0], eia_plan[2][0]], rng=rng.fork("moved"),
    )
    records += [
        lr.record.with_key(input_if=0)
        for lr in moved.replay(synthesize_trace(250, rng=rng.fork("t-moved")))
    ]
    foreign = [
        block
        for peer, blocks in eia_plan.items()
        if peer != 2
        for block in blocks
    ]
    attack = Dagflow(
        "attack", target_prefix=target_prefix, udp_port=9002,
        source_blocks=foreign, rng=rng.fork("attack"),
    )
    records += [
        lr.record.with_key(input_if=2)
        for lr in attack.replay(generate_attack("slammer", rng=rng.fork("a")))
    ]
    records.sort(key=lambda r: (r.first, r.key.src_addr, r.key.dst_addr))
    return records


@pytest.fixture(scope="module")
def serial_reference(eia_plan, target_prefix, mixed_trace):
    detector = _build_detector(eia_plan, target_prefix)
    decisions = detector.process_all(mixed_trace)
    return detector, decisions


def _signature(decision):
    return (
        decision.verdict,
        decision.stage,
        decision.eia,
        decision.absorbed,
        decision.protocol_class,
    )


def _eia_state(detector):
    return {
        peer: sorted(map(str, detector.infilter.eia_set(peer).prefixes()))
        for peer in detector.infilter.peers()
    }


def _assert_equivalent(detector, worker, serial_reference, n_records):
    serial_detector, serial_decisions = serial_reference
    assert worker.committed == worker.cursor == n_records
    ref, got = serial_detector.stats, detector.stats
    assert (got.processed, got.legal, got.suspects, got.benign, got.attacks,
            got.absorbed, got.attacks_by_stage) == (
        ref.processed, ref.legal, ref.suspects, ref.benign, ref.attacks,
        ref.absorbed, ref.attacks_by_stage,
    )
    assert _eia_state(detector) == _eia_state(serial_detector)
    assert [a.ident for a in detector.alert_sink.alerts] == [
        a.ident for a in serial_detector.alert_sink.alerts
    ]


def test_inline_engine_matches_serial(
    eia_plan, target_prefix, mixed_trace, serial_reference
):
    detector = _build_detector(eia_plan, target_prefix)
    worker = _worker(detector, batch_size=111)
    worker.run_offline(mixed_trace)
    _assert_equivalent(detector, worker, serial_reference, len(mixed_trace))


def _alert_digest(detector) -> str:
    digest = hashlib.sha256()
    for alert in detector.alert_sink.alerts:
        digest.update(alert.to_xml().encode())
    return digest.hexdigest()


def _checkpoint_text(detector) -> str:
    """The whole ``state_dict`` as canonical JSON, minus the three stats
    keys that hold wall-clock measurements."""
    return json.dumps(_scrub_wall_clock(detector.state_dict()), sort_keys=True)


@pytest.mark.parametrize("m1", [1, 2])
def test_engine_alerts_and_checkpoint_equal_serial(
    eia_plan, target_prefix, mixed_trace, m1
):
    """At ``m1 = 2`` every NNS probe draws from the structure's pick
    RNG, so the alert stream *and* the RNG cursors in the checkpoint's
    model section only match if the worker makes exactly serial's
    searches, in serial's order."""
    serial = _build_detector(eia_plan, target_prefix, m1=m1)
    serial.process_all(mixed_trace)
    assert serial.stats.attacks_by_stage.get("nns", 0) > 0
    detector = _build_detector(eia_plan, target_prefix, m1=m1)
    _worker(detector, batch_size=111).run_offline(mixed_trace)
    assert _alert_digest(detector) == _alert_digest(serial)
    assert _checkpoint_text(detector) == _checkpoint_text(serial)


def test_inline_decision_stream_is_identical(
    eia_plan, target_prefix, mixed_trace, serial_reference
):
    """Per-decision equality, not just aggregate counts."""
    _, serial_decisions = serial_reference
    detector = _build_detector(eia_plan, target_prefix)
    batched = []
    for start in range(0, len(mixed_trace), 97):
        result = detector.process_batch(mixed_trace[start:start + 97])
        batched.extend(result.decisions)
    assert list(map(_signature, batched)) == list(
        map(_signature, serial_decisions)
    )


def test_batch_size_does_not_matter(
    eia_plan, target_prefix, mixed_trace, serial_reference
):
    serial_detector, _ = serial_reference
    for batch_size in (1, 256, len(mixed_trace) + 1):
        detector = _build_detector(eia_plan, target_prefix)
        worker = _worker(detector, batch_size=batch_size)
        worker.run_offline(mixed_trace)
        _assert_equivalent(
            detector, worker, serial_reference, len(mixed_trace)
        )
        assert worker.batches == -(-len(mixed_trace) // batch_size)
        assert _alert_digest(detector) == _alert_digest(serial_detector)
        assert _checkpoint_text(detector) == _checkpoint_text(serial_detector)


def test_absorptions_happen_and_are_routed(
    eia_plan, target_prefix, mixed_trace, serial_reference
):
    """The trace genuinely exercises online learning (guards the suite
    against a quiet regression where nothing absorbs and the equivalence
    checks trivially pass)."""
    serial_detector, _ = serial_reference
    assert serial_detector.stats.absorbed >= 2


# -- warm restart: kill an offline run mid-stream and resume -----------------


def _assert_warm_restart_equivalent(detector, serial_reference):
    """Cumulative observables equal the uninterrupted serial run's."""
    serial_detector, _ = serial_reference
    ref, got = serial_detector.stats, detector.stats
    assert (got.processed, got.legal, got.suspects, got.benign, got.attacks,
            got.absorbed, got.attacks_by_stage) == (
        ref.processed, ref.legal, ref.suspects, ref.benign, ref.attacks,
        ref.absorbed, ref.attacks_by_stage,
    )
    assert _eia_state(detector) == _eia_state(serial_detector)
    assert [a.ident for a in detector.alert_sink.alerts] == [
        a.ident for a in serial_detector.alert_sink.alerts
    ]


def test_killed_and_resumed_run_matches_uninterrupted(
    eia_plan, target_prefix, mixed_trace, serial_reference, tmp_path
):
    """Kill after a checkpoint boundary, resume from the checkpoint file:
    the stitched run's decisions, stats, EIA state, and alert stream are
    identical to an uninterrupted run (and hence to serial)."""
    path = tmp_path / "worker.ckpt"
    config = dict(batch_size=111, checkpoint_every=2, checkpoint_path=str(path))
    detector = _build_detector(eia_plan, target_prefix)
    worker = _worker(detector, **config)
    # The "killed" first run: 4 full batches; checkpoints land after
    # batches 2 and 4 and once more when the driver returns, all three
    # at or before cursor 444.
    worker.run_offline(mixed_trace[:444])
    assert worker.checkpoints == 3

    writer = CheckpointWriter(path)
    restored, cursor = writer.load()
    assert cursor == 444
    resumed = _worker(restored, cursor_base=cursor, writer=writer, **config)
    resumed.run_offline(mixed_trace[cursor:])
    assert resumed.committed == len(mixed_trace) - cursor
    _assert_warm_restart_equivalent(restored, serial_reference)

    # The resumed tail is 337 records = 4 batches: two periodic
    # checkpoints and the final one, which covers the whole stream.
    assert resumed.checkpoints == 3
    _final, final_cursor = load_checkpoint(path)
    assert final_cursor == len(mixed_trace)


def test_resume_from_mid_stream_checkpoint(
    eia_plan, target_prefix, mixed_trace, serial_reference, tmp_path
):
    """A resumed worker that takes no checkpoints of its own continues
    the stream all the same."""
    path = tmp_path / "worker.ckpt"
    detector = _build_detector(eia_plan, target_prefix)
    _worker(
        detector, batch_size=74, checkpoint_every=3, checkpoint_path=str(path)
    ).run_offline(mixed_trace[:444])
    restored, cursor = load_checkpoint(path)
    # 444 records = 6 batches of 74: checkpoints after batches 3 and 6.
    assert cursor == 444
    resumed = _worker(restored, batch_size=74, cursor_base=cursor)
    resumed.run_offline(mixed_trace[cursor:])
    assert resumed.checkpoints == 0
    assert resumed.cursor == len(mixed_trace)
    _assert_warm_restart_equivalent(restored, serial_reference)


def test_negative_cursor_base_rejected(eia_plan, target_prefix):
    detector = _build_detector(eia_plan, target_prefix)
    with pytest.raises(ServeError):
        _worker(detector, cursor_base=-1)


def test_explicit_checkpoint_call(eia_plan, target_prefix, mixed_trace, tmp_path):
    """With a path and no period the driver writes the final checkpoint
    and only that; ``checkpoint()`` on demand rewrites it at the cursor."""
    path = tmp_path / "manual.ckpt"
    detector = _build_detector(eia_plan, target_prefix)
    worker = _worker(detector, batch_size=100, checkpoint_path=str(path))
    worker.run_offline(mixed_trace[:250])
    assert worker.checkpoints == 1
    _restored, read_cursor = load_checkpoint(path)
    assert read_cursor == 250
    assert worker.checkpoint() == 250
    assert worker.checkpoints == 2


def test_checkpoint_without_path_rejected(eia_plan, target_prefix):
    detector = _build_detector(eia_plan, target_prefix)
    with pytest.raises(ServeError):
        _worker(detector).checkpoint()


# -- a file can wait: the driver never sheds ----------------------------------


@pytest.mark.parametrize("batch_size", [70_000, 256])
def test_offline_driver_never_sheds(
    eia_plan, target_prefix, mixed_trace, batch_size
):
    """70,000 records under the default ``ServeConfig``, whose ingest
    queue holds 65,536: routed through that queue, one 70,000-row batch
    would lose 4,464 rows to the shed policy, silently.  The driver
    builds its batches itself, so every record commits."""
    background = [r for r in mixed_trace if r.key.input_if == 0][:500]
    stream = (background * 140)[: 70_000 - len(mixed_trace)] + mixed_trace
    assert len(stream) == 70_000 > ServeConfig().queue_capacity
    serial = _build_detector(eia_plan, target_prefix)
    serial.process_all(stream)
    detector = _build_detector(eia_plan, target_prefix)
    worker = _worker(detector, batch_size=batch_size)
    worker.run_offline(stream)
    assert worker.committed == detector.stats.processed == 70_000
    assert serial.alert_sink.alerts
    assert _alert_digest(detector) == _alert_digest(serial)
