"""The three-file checkpoint: what each save writes, and what survives.

``test_core_persistence`` covers the inline document and the one-shot
write.  Here: a :class:`CheckpointWriter` saving at every batch boundary
(base once, journal appended, head replaced), a head spliced from kept
section texts and a base that follows the plan, both equal to a cold
render after any mutation, a head that returns to its bytes when a
route changes back, a base that follows the pick cursors at ``M1`` > 1,
a crash injected at each of its write points, every way
``load_checkpoint`` refuses a damaged set of files, and the growth of
each file over a long flood.
"""

import json
import os
import tempfile
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EnhancedInFilter,
    FeatureSpec,
    NNSConfig,
    PipelineConfig,
    persistence,
)
from repro.core.alerts import alert_state
from repro.core.persistence import (
    CheckpointWriter,
    load_checkpoint,
    render_state,
    save_detector,
)
from repro.netflow.records import PROTO_UDP, FlowKey, FlowRecord
from repro.netflow.v5 import datagrams_for
from repro.obs import MetricsRegistry
from repro.serve import ServeConfig, ServeDaemon
from repro.util import Prefix, SeededRng
from repro.util.errors import StateError

from tests.conftest import make_detector

_SEED = 1818
_BATCH = 64


_SHAPES = [(1, 40 + 24 * i, 1 + 7 * (i % 5)) for i in range(8)] + [
    (2 + i, 90 * (2 + i), 40 + 11 * i) for i in range(8)
]


def _flood16(eia_plan, target_prefix, count: int) -> List[FlowRecord]:
    """The benchmark's ``flood16`` shape: 16 repeated flow shapes from a
    small pool of planned blocks, ingress rotating over the peers.  About
    one flow in nine alerts, the benign rest keep moving blocks between
    peers (absorptions), so every section of the head has work."""
    rnd = SeededRng(_SEED, "flood16")
    blocks = _pool(eia_plan)
    victim = target_prefix.nth_address(77)
    records = []
    for index in range(count):
        ingress = index % len(eia_plan)
        peer, block = blocks[rnd.randrange(len(blocks))]
        while peer == ingress:
            peer, block = blocks[rnd.randrange(len(blocks))]
        packets, octets, duration = _SHAPES[index % len(_SHAPES)]
        records.append(
            FlowRecord(
                key=FlowKey(
                    src_addr=block.nth_address(rnd.randrange(1 << 16)),
                    dst_addr=victim,
                    protocol=PROTO_UDP,
                    src_port=1024 + index % 32_000,
                    dst_port=9_999,
                    input_if=ingress,
                ),
                packets=packets,
                octets=octets,
                first=2 * index,
                last=2 * index + duration,
            )
        )
    return records


def _pool(eia_plan) -> List[Tuple[int, Prefix]]:
    """The planned blocks ``_flood16`` draws its sources from: 40 of the
    Table 3 plan's 1,000."""
    return [
        (peer, block) for peer in sorted(eia_plan) for block in eia_plan[peer]
    ][::25]


@pytest.fixture(scope="module")
def trace(eia_plan, target_prefix) -> List[FlowRecord]:
    return _flood16(eia_plan, target_prefix, 25 * _BATCH)


def _detector(eia_plan, target_prefix, seed=_SEED):
    return make_detector(eia_plan, target_prefix, seed=seed, n_train=600)


def _batches(
    records: List[FlowRecord], start: int = 0
) -> Iterator[Tuple[int, List[FlowRecord]]]:
    """``(cursor after the batch, batch)`` from ``records[start:]``."""
    for offset in range(start, len(records), _BATCH):
        batch = records[offset:offset + _BATCH]
        yield offset + len(batch), batch


def _files(path) -> List[str]:
    return sorted(entry.name for entry in path.parent.iterdir())


def _extent(path) -> dict:
    return json.loads(path.read_text())["journal"]


def _lines(alerts) -> bytes:
    """The canonical journal lines of ``alerts``."""
    return b"".join(
        json.dumps(
            alert_state(alert), sort_keys=True, separators=(",", ":")
        ).encode() + b"\n"
        for alert in alerts
    )


def _trie_walk_eia(infilter) -> dict:
    """The head's ``eia`` section rendered the long way, from the tries:
    every block a set holds against its plan, every pending counter's
    block built and formatted — none of the moves or text the filter
    keeps is read."""
    plan = infilter.plan()
    return {
        "moves": {
            str(prefix): peer
            for peer in infilter.peers()
            for prefix in infilter.eia_set(peer).prefixes()
            if plan.get(prefix) != peer
        },
        "pending": [
            [peer, prefix, count]
            for peer, prefix, count in sorted(
                (peer, str(block), count)
                for (peer, block), count in infilter.pending_counts().items()
            )
        ],
    }


def _counters(detector) -> dict:
    stats = detector.stats.state_dict()
    for wall_clock in ("latency_total_s", "latency_max_s", "latency_buckets"):
        del stats[wall_clock]
    return stats


@pytest.fixture(scope="module")
def reference(eia_plan, target_prefix, trace):
    """The uninterrupted run: its alert stream and counters."""
    detector = _detector(eia_plan, target_prefix)
    for _cursor, batch in _batches(trace):
        detector.process_batch(batch)
    alerts = [alert.to_xml() for alert in detector.alert_sink.alerts]
    assert len(alerts) > 50
    return alerts, _counters(detector)


# -- what a save writes -------------------------------------------------------


class TestIncrementalWrites:
    def test_base_once_journal_appended_head_replaced(
        self, eia_plan, target_prefix, trace, tmp_path
    ):
        detector = _detector(eia_plan, target_prefix)
        path = tmp_path / "live" / "ckpt.json"
        path.parent.mkdir()
        writer = CheckpointWriter(path, registry=MetricsRegistry())
        base_stat = None
        journal = path.with_name("ckpt.json.alerts")
        written = 0
        for cursor, batch in _batches(trace):
            before = len(detector.alert_sink.alerts)
            detector.process_batch(batch)
            writer.save(detector, cursor=cursor)
            # Exactly three files, nothing temporary.
            names = _files(path)
            assert len(names) == 3 and not any(".tmp" in n for n in names)
            (base,) = path.parent.glob("ckpt.json.base-*")
            stat = (base.stat().st_ino, base.stat().st_mtime_ns)
            base_stat = base_stat or stat
            assert stat == base_stat  # never rewritten
            # The journal grew by the canonical lines of exactly the
            # alerts this batch consumed.
            data = journal.read_bytes()
            assert data[written:] == _lines(detector.alert_sink.alerts[before:])
            written = len(data)
            extent = _extent(path)
            assert (extent["alerts"], extent["bytes"]) == (
                len(detector.alert_sink.alerts), written,
            )
            # The head's EIA text is what the tries hold now, not what
            # they held at some earlier save.
            head = json.loads(path.read_text())
            assert head["components"]["eia"] == _trie_walk_eia(detector.infilter)
        # What the incremental writer left is what a one-shot write of
        # the same detector leaves, file for file.
        one_shot = tmp_path / "full" / "ckpt.json"
        one_shot.parent.mkdir()
        save_detector(detector, one_shot, cursor=len(trace))
        assert _files(one_shot) == _files(path)
        for name in _files(path):
            assert (path.parent / name).read_bytes() == (
                one_shot.parent / name
            ).read_bytes(), name

    def test_save_load_save_is_byte_identical_file_by_file(
        self, eia_plan, target_prefix, trace, tmp_path
    ):
        detector = _detector(eia_plan, target_prefix)
        detector.process_batch(trace[:300])
        first = tmp_path / "a" / "ckpt.json"
        second = tmp_path / "b" / "ckpt.json"
        first.parent.mkdir()
        second.parent.mkdir()
        save_detector(detector, first, cursor=300)
        restored, cursor = load_checkpoint(first)
        save_detector(restored, second, cursor=cursor)
        assert _files(first) == _files(second)
        for name in _files(first):
            assert (first.parent / name).read_bytes() == (
                second.parent / name
            ).read_bytes(), name
        assert render_state(restored, cursor=cursor) == render_state(
            detector, cursor=300
        )

    def test_save_load_save_is_byte_identical_at_m1_two(
        self, eia_plan, target_prefix, trace, tmp_path
    ):
        """At ``M1`` = 2 the base also holds the pick cursors the
        searches moved: they round-trip with the plan and the model."""
        config = PipelineConfig(nns=NNSConfig(m1=2))
        detector = make_detector(
            eia_plan, target_prefix, seed=_SEED, config=config, n_train=600
        )
        detector.process_batch(trace[:300])
        assert detector.model.pick_draws > 0
        first = tmp_path / "a" / "ckpt.json"
        second = tmp_path / "b" / "ckpt.json"
        first.parent.mkdir()
        second.parent.mkdir()
        save_detector(detector, first, cursor=300)
        restored, cursor = load_checkpoint(first)
        save_detector(restored, second, cursor=cursor)
        assert _files(first) == _files(second)
        for name in _files(first):
            assert (first.parent / name).read_bytes() == (
                second.parent / name
            ).read_bytes(), name

    def test_resumed_writer_appends_instead_of_rewriting(
        self, eia_plan, target_prefix, trace, tmp_path, monkeypatch
    ):
        detector = _detector(eia_plan, target_prefix)
        detector.process_batch(trace[:300])
        path = tmp_path / "ckpt.json"
        save_detector(detector, path, cursor=300)
        writer = CheckpointWriter(path, registry=MetricsRegistry())
        restored, cursor = writer.load()
        restored.process_batch(trace[300:400])
        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: (replaced.append(str(dst)), real_replace(src, dst)),
        )
        writer.save(restored, cursor=400)
        assert replaced == [str(path)]  # neither base nor journal rewritten
        again, cursor = load_checkpoint(path)
        assert render_state(again, cursor=cursor) == render_state(
            restored, cursor=400
        )

    def test_retrain_between_saves_leaves_exactly_one_base(
        self, eia_plan, target_prefix, trace, tmp_path
    ):
        detector = _detector(eia_plan, target_prefix)
        path = tmp_path / "ckpt.json"
        writer = CheckpointWriter(path, registry=MetricsRegistry())
        writer.save(detector, cursor=0)
        (old_base,) = tmp_path.glob("ckpt.json.base-*")
        detector.train(trace[:200])
        detector.process_batch(trace[:100])
        writer.save(detector, cursor=100)
        (new_base,) = tmp_path.glob("ckpt.json.base-*")
        assert new_base != old_base
        restored, cursor = load_checkpoint(path)
        assert render_state(restored, cursor=cursor) == render_state(
            detector, cursor=100
        )

    def test_no_base_without_a_model_or_a_plan(
        self, eia_plan, tmp_path
    ):
        detector = EnhancedInFilter(PipelineConfig.basic(), rng=SeededRng(1))
        path = tmp_path / "basic.json"
        save_detector(detector, path)
        assert _files(path) == ["basic.json", "basic.json.alerts"]
        assert load_checkpoint(path)[0].model is None
        # A plan alone makes a base, with no model in it.
        detector.preload_eia(3, eia_plan[3])
        save_detector(detector, path)
        (base,) = tmp_path.glob("basic.json.base-*")
        document = json.loads(base.read_bytes())
        assert document["model"] is None
        assert document["plan"] == detector.infilter.plan_state()
        restored = load_checkpoint(path)[0]
        assert restored.model is None
        assert restored.infilter.plan() == detector.infilter.plan()

    def test_writer_reports_time_parts_and_alerts(
        self, eia_plan, target_prefix, trace, tmp_path
    ):
        registry = MetricsRegistry()
        detector = _detector(eia_plan, target_prefix)
        detector.process_batch(trace[:300])
        path = tmp_path / "ckpt.json"
        writer = CheckpointWriter(path, registry=registry)
        writer.save(detector, cursor=300)
        writer.save(detector, cursor=300)
        assert registry.get("infilter_checkpoint_seconds").count == 2
        sizes = {
            labels[0]: child.value
            for labels, child in registry.get(
                "infilter_checkpoint_bytes"
            ).samples()
        }
        (base,) = tmp_path.glob("ckpt.json.base-*")
        assert sizes == {
            "head": path.stat().st_size,
            "base": base.stat().st_size,
            "journal": (tmp_path / "ckpt.json.alerts").stat().st_size,
        }
        assert registry.get("infilter_checkpoint_journal_alerts").value == len(
            detector.alert_sink.alerts
        )


# -- the spliced head --------------------------------------------------------

#: One step of the spliced-head walk: what it does and its arguments.
_steps = st.one_of(
    st.tuples(st.just("save")),
    # Committed rows: a slice of the flood16 trace (legal, suspect,
    # absorbing and alerting rows alike).
    st.tuples(st.just("rows"), st.integers(0, 1_500), st.integers(1, 120)),
    # The learning rule, called directly: count, or absorb at the 10th.
    st.tuples(
        st.just("learn"), st.integers(0, 9), st.integers(0, 999),
        st.integers(1, 10),
    ),
    # A block of the plan, preloaded at some peer (it moves there).
    st.tuples(st.just("preload"), st.integers(0, 9), st.integers(0, 999)),
    # load_state of a detector that committed other rows.
    st.tuples(st.just("load"), st.integers(0, 2)),
    # A hot reload: the writer is handed a new detector restored from
    # the state of the one it had.
    st.tuples(st.just("swap")),
    # A block absorbed back at the peer its plan names.
    st.tuples(st.just("back"), st.integers(0, 999)),
)


def _from_state(config, state) -> EnhancedInFilter:
    detector = EnhancedInFilter(config, registry=MetricsRegistry())
    detector.load_state(state)
    return detector


@pytest.fixture(scope="module")
def small(eia_plan, target_prefix, trace):
    """A small trained detector (a tenth of the plan, 80-bit codes) to
    start walks from: its config, its state, and the states of three
    detectors that committed other rows."""
    config = PipelineConfig(
        nns=NNSConfig(
            features=tuple(
                FeatureSpec(spec.name, spec.low, spec.high, 16)
                for spec in NNSConfig().features
            )
        )
    )
    plan = {peer: blocks[::10] for peer, blocks in eia_plan.items()}
    detector = make_detector(
        plan, target_prefix, seed=_SEED, config=config, n_train=120
    )
    others = []
    for start in (0, 500, 1_000):
        other = _from_state(config, detector.state_dict())
        other.process_batch(trace[start:start + 100])
        others.append(other.state_dict())
    return config, detector.state_dict(), others


@settings(max_examples=50, deadline=None)
@given(steps=st.lists(_steps, max_size=10))
def test_spliced_head_equals_a_cold_render(small, eia_plan, trace, steps):
    """Whatever changed between saves, the head a writer splices from
    the texts it kept is the head a writer with nothing kept renders,
    and is canonical JSON; and the base it kept or rewrote (the plan
    stamp is its signal) is the base that writer writes."""
    config, state, others = small
    blocks = [block for peer in sorted(eia_plan) for block in eia_plan[peer]]
    detector = _from_state(config, state)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        writer = CheckpointWriter(root / "warm.json", registry=MetricsRegistry())
        cursor = 0
        for index, step in enumerate([*steps, ("save",)]):
            action, *args = step
            if action == "rows":
                rows = trace[args[0]:args[0] + args[1]]
                detector.process_batch(rows)
                cursor += len(rows)
            elif action == "learn":
                peer, block, times = args
                for _ in range(times):
                    detector.infilter.learn(peer, blocks[block].network)
            elif action == "preload":
                detector.preload_eia(args[0], [blocks[args[1]]])
            elif action == "load":
                detector.load_state(others[args[0]])
            elif action == "swap":
                detector = _from_state(config, detector.state_dict())
            elif action == "back":
                block = blocks[args[0]]
                planned = detector.infilter.plan().get(block)
                if planned is not None:
                    detector.infilter.apply_absorption(planned, block)
            else:
                writer.save(detector, cursor=cursor)
                cold = root / f"cold-{index}" / "ckpt.json"
                cold.parent.mkdir()
                CheckpointWriter(cold, registry=MetricsRegistry()).save(
                    detector, cursor=cursor
                )
                head = writer.path.read_bytes()
                assert head == cold.read_bytes()
                (base,) = root.glob("warm.json.base-*")
                (cold_base,) = cold.parent.glob("ckpt.json.base-*")
                assert base.read_bytes() == cold_base.read_bytes()
                assert head == json.dumps(
                    json.loads(head), sort_keys=True, separators=(",", ":")
                ).encode()


def test_head_bytes_are_reported_per_section(
    eia_plan, target_prefix, trace, tmp_path
):
    registry = MetricsRegistry()
    detector = _detector(eia_plan, target_prefix)
    detector.process_batch(trace[:300])
    path = tmp_path / "ckpt.json"
    CheckpointWriter(path, registry=registry).save(detector, cursor=300)
    head = json.loads(path.read_text())
    components = head["components"]

    def size(value) -> int:
        return len(json.dumps(value, sort_keys=True, separators=(",", ":")))

    assert set(components["eia"]) == {"moves", "pending"}
    expected = {
        "config": size(head["config"]),
        "eia.moves": size(components["eia"]["moves"]),
        "eia.pending": size(components["eia"]["pending"]),
    }
    for name in (
        "scan", "stats", "alert_counter", "rng", "overload", "detectors",
    ):
        expected[name] = size(components[name])
    assert {
        labels[0]: child.value
        for labels, child in registry.get(
            "infilter_checkpoint_head_bytes"
        ).samples()
    } == expected


# -- the base at M1 > 1 -------------------------------------------------------


def test_base_follows_the_pick_cursors_at_m1_above_one(
    eia_plan, target_prefix, trace, tmp_path
):
    """At ``M1`` = 2 every search draws on a pick RNG the base holds:
    save, commit, save, load must restore the live cursors, and the
    resumed run must emit what the uninterrupted one does."""
    config = PipelineConfig(nns=NNSConfig(m1=2))
    live = make_detector(
        eia_plan, target_prefix, seed=_SEED, config=config, n_train=600
    )
    path = tmp_path / "ckpt.json"
    writer = CheckpointWriter(path, registry=MetricsRegistry())
    third = len(trace) // 3
    live.process_batch(trace[:third])
    writer.save(live, cursor=third)
    live.process_batch(trace[third:2 * third])
    writer.save(live, cursor=2 * third)
    assert len(list(tmp_path.glob("ckpt.json.base-*"))) == 1
    restored, cursor = load_checkpoint(path)
    assert cursor == 2 * third
    assert render_state(restored, cursor=cursor) == render_state(
        live, cursor=cursor
    )
    live.process_batch(trace[cursor:])
    restored.process_batch(trace[cursor:])
    assert [alert.to_xml() for alert in restored.alert_sink.alerts] == [
        alert.to_xml() for alert in live.alert_sink.alerts
    ]


# -- crash anywhere -----------------------------------------------------------

_POINTS = ("base-replace", "journal-mid-line", "journal-complete", "head-replace")


def _inject(monkeypatch, point: str, path) -> None:
    """Make the next save fail with ``OSError`` at ``point``."""
    real_replace = os.replace
    real_append = persistence._append_at

    def replace(src, dst):
        is_base = ".base-" in os.path.basename(dst)
        if (point == "base-replace") == is_base:
            raise OSError(f"injected at {point}")
        return real_replace(src, dst)

    def append(journal, extent, data):
        assert data, "the crash batch must consume alerts"
        # Mid-line: the append dies partway through its last line.
        real_append(
            journal, extent,
            data[:-40] if point == "journal-mid-line" else data,
        )
        raise OSError(f"injected at {point}")

    if point.startswith("journal"):
        monkeypatch.setattr(persistence, "_append_at", append)
    else:
        monkeypatch.setattr(os, "replace", replace)


class TestCrashAnywhere:
    @pytest.mark.parametrize("point", _POINTS)
    def test_previous_state_loads_and_resumes_exactly(
        self, eia_plan, target_prefix, trace, reference, tmp_path,
        monkeypatch, point,
    ):
        """Die at ``point`` during a periodic checkpoint: the files load
        as the checkpoint before it, and a run resumed from them ends
        where the uninterrupted run does."""
        detector = _detector(eia_plan, target_prefix)
        path = tmp_path / "ckpt.json"
        writer = CheckpointWriter(path, registry=MetricsRegistry())
        previous = None
        crashed = False
        for cursor, batch in _batches(trace):
            before = len(detector.alert_sink.alerts)
            detector.process_batch(batch)
            if cursor > 3 * _BATCH and len(detector.alert_sink.alerts) > before:
                if point == "base-replace":
                    # Only a writer that has not written this model yet
                    # writes a base: a restarted process.
                    writer = CheckpointWriter(path, registry=MetricsRegistry())
                with monkeypatch.context() as patch:
                    _inject(patch, point, path)
                    with pytest.raises(StateError, match="injected"):
                        writer.save(detector, cursor=cursor)
                crashed = True
                break
            writer.save(detector, cursor=cursor)
            previous = render_state(detector, cursor=cursor)
        assert crashed and previous is not None
        assert not any(name.endswith(".tmp") for name in _files(path))
        if point.startswith("journal"):
            # The dead writer's tail sits beyond the head's extent.
            size = (tmp_path / "ckpt.json.alerts").stat().st_size
            assert size > _extent(path)["bytes"]

        loaded, cursor = load_checkpoint(path)
        assert render_state(loaded, cursor=cursor) == previous

        resumed_writer = CheckpointWriter(path, registry=MetricsRegistry())
        resumed, cursor = resumed_writer.load()
        for cursor, batch in _batches(trace, cursor):
            resumed.process_batch(batch)
            resumed_writer.save(resumed, cursor=cursor)
            # The first save cut the tail off again.
            size = (tmp_path / "ckpt.json.alerts").stat().st_size
            assert size == _extent(path)["bytes"]
        alerts, counters = reference
        assert [a.to_xml() for a in resumed.alert_sink.alerts] == alerts
        assert _counters(resumed) == counters
        final, cursor = load_checkpoint(path)
        assert cursor == len(trace)
        assert render_state(final, cursor=cursor) == render_state(
            resumed, cursor=cursor
        )

    @pytest.mark.parametrize("point", _POINTS[1:])
    def test_a_writer_that_survives_its_failed_save_recovers(
        self, eia_plan, target_prefix, trace, tmp_path, monkeypatch, point
    ):
        """The failure is an exception, not a death: the same writer's
        next save must still leave a loadable, exact checkpoint."""
        detector = _detector(eia_plan, target_prefix)
        path = tmp_path / "ckpt.json"
        writer = CheckpointWriter(path, registry=MetricsRegistry())
        detector.process_batch(trace[:300])
        writer.save(detector, cursor=300)
        detector.process_batch(trace[300:500])
        with monkeypatch.context() as patch:
            _inject(patch, point, path)
            with pytest.raises(StateError):
                writer.save(detector, cursor=500)
        detector.process_batch(trace[500:600])
        writer.save(detector, cursor=600)
        loaded, cursor = load_checkpoint(path)
        assert render_state(loaded, cursor=cursor) == render_state(
            detector, cursor=600
        )
        assert (tmp_path / "ckpt.json.alerts").stat().st_size == _extent(path)[
            "bytes"
        ]


# -- what load refuses --------------------------------------------------------


class TestVerification:
    @pytest.fixture
    def saved(self, eia_plan, target_prefix, trace, tmp_path):
        detector = _detector(eia_plan, target_prefix)
        detector.process_batch(trace[:400])
        path = tmp_path / "ckpt.json"
        save_detector(detector, path, cursor=400)
        assert _extent(path)["alerts"] > 10
        return detector, path

    def test_tail_beyond_the_extent_is_ignored(self, saved):
        detector, path = saved
        journal = path.with_name("ckpt.json.alerts")
        with open(journal, "ab") as handle:
            handle.write(b'{"half a line of a dead wri')
        loaded, cursor = load_checkpoint(path)
        assert render_state(loaded, cursor=cursor) == render_state(
            detector, cursor=400
        )

    def test_truncated_journal(self, saved):
        _detector_, path = saved
        journal = path.with_name("ckpt.json.alerts")
        journal.write_bytes(journal.read_bytes()[:-1])
        with pytest.raises(StateError, match="shorter than the extent"):
            load_checkpoint(path)

    def test_flipped_byte_inside_the_extent(self, saved):
        _detector_, path = saved
        journal = path.with_name("ckpt.json.alerts")
        data = bytearray(journal.read_bytes())
        data[len(data) // 2] ^= 0x01
        journal.write_bytes(bytes(data))
        with pytest.raises(StateError, match="does not match the extent digest"):
            load_checkpoint(path)

    def test_missing_journal(self, saved):
        _detector_, path = saved
        path.with_name("ckpt.json.alerts").unlink()
        with pytest.raises(StateError, match="needs its alert journal"):
            load_checkpoint(path)

    def test_extent_line_count_disagrees_with_the_head(self, saved):
        _detector_, path = saved
        head = json.loads(path.read_text())
        head["journal"]["alerts"] += 1
        path.write_text(json.dumps(head, sort_keys=True, separators=(",", ":")))
        with pytest.raises(StateError, match="the head ckpt.json says"):
            load_checkpoint(path)

    def test_missing_base(self, saved):
        _detector_, path = saved
        (base,) = path.parent.glob("ckpt.json.base-*")
        base.unlink()
        with pytest.raises(StateError, match="needs its base"):
            load_checkpoint(path)

    def test_base_of_another_model(self, saved, eia_plan, target_prefix):
        _detector_, path = saved
        other = path.parent / "other" / "ckpt.json"
        other.parent.mkdir()
        save_detector(_detector(eia_plan, target_prefix, seed=7), other)
        (base,) = path.parent.glob("ckpt.json.base-*")
        (other_base,) = other.parent.glob("ckpt.json.base-*")
        assert other_base.name != base.name
        base.write_bytes(other_base.read_bytes())
        with pytest.raises(StateError, match="base of another model"):
            load_checkpoint(path)


# -- growth, in bytes ---------------------------------------------------------

def test_checkpoint_cost_is_bounded_over_200_batches(
    eia_plan, target_prefix, tmp_path
):
    """A serve worker checkpointing after every one-datagram batch of a
    flood: the head stops growing, the journal grows by exactly the new
    alerts, the base is written once.

    The head holds what the run changed, and the learning rule fills
    its part in for a while (a move per pooled block that changed
    owner, a pending counter per pooled block and ingress peer): past
    the first half no save sets a new peak, and both stay under the
    ceiling the flood's block pool sets."""
    path = tmp_path / "flood.json"
    daemon = ServeDaemon(
        _detector(eia_plan, target_prefix),
        ServeConfig(
            port=0, batch_size=30, checkpoint_path=str(path), checkpoint_every=1
        ),
        registry=MetricsRegistry(),
    )
    detector = daemon.detector
    journal = tmp_path / "flood.json.alerts"
    head_sizes = []
    base_stat = None
    written = alerts = 0
    datagrams = datagrams_for(
        _flood16(eia_plan, target_prefix, 200 * 30), sys_uptime=0, unix_secs=0
    )
    for datagram in datagrams:
        assert daemon.router.route(datagram, 40_000) == 30
        daemon.worker.commit(daemon.queue.take_nowait(30))
        head_sizes.append(path.stat().st_size)
        (base,) = tmp_path.glob("flood.json.base-*")
        stat = (base.stat().st_ino, base.stat().st_mtime_ns)
        base_stat = base_stat or stat
        assert stat == base_stat
        new = detector.alert_sink.alerts[alerts:]
        alerts += len(new)
        grown = journal.stat().st_size - written
        written += grown
        assert grown == len(_lines(new))
    assert len(head_sizes) == daemon.worker.checkpoints == 200
    assert alerts > 500
    assert max(head_sizes[100:]) <= max(head_sizes[:100])
    pool = len(_pool(eia_plan))
    assert len(detector.infilter.moves()) <= pool
    assert detector.infilter.pending_size() <= pool * len(eia_plan)
    loaded, cursor = load_checkpoint(path)
    assert cursor == 6_000
    assert render_state(loaded, cursor=cursor) == render_state(
        detector, cursor=cursor
    )
