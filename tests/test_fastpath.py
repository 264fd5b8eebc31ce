"""Equivalence and invalidation properties of the fastpath data plane.

The fastpath's entire contract is *observable equivalence*: popcount
Hamming distances equal the per-bit reference, columnar datagram decode equals the record-at-a-time decoders byte for byte (including
error messages on malformed input), the cross-batch verdict memo
changes no decision even across learning-rule absorptions, and a
checkpoint is byte-identical whether the memo is hot or cold.
Every test here pins one of those equalities.
"""

import json
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EIAConfig, PipelineConfig
from repro.core.encoding import hamming
from repro.core.persistence import render_state
from repro.fastpath import MISSING, FastPath
from repro.flowgen import Dagflow, generate_attack, synthesize_trace
from repro.netflow.collector import FlowCollector
from repro.netflow.v1 import (
    NETFLOW_V1_VERSION,
    decode_v1_datagram,
    encode_v1_datagram,
)
from repro.netflow.v5 import NETFLOW_V5_VERSION, decode_datagram, encode_datagram
from repro.fastpath.columnar import decode_v1_columnar, decode_v5_columnar
from repro.obs import MetricsRegistry
from repro.serve.listener import DatagramRouter, RouterStats
from repro.serve.queue import IngestQueue
from repro.util import SeededRng
from repro.util.errors import ConfigError, NetFlowDecodeError

from tests.conftest import make_detector
from tests.test_netflow_fuzz import flow_records

_SEED = 60601

_DIMENSION = 720

codes = st.integers(min_value=0, max_value=2**_DIMENSION - 1)
small_codes = st.integers(min_value=0, max_value=2**48 - 1)


def hamming_per_bit(a, b, dimension):
    """The Hamming distance walked one bit position at a time: the naive
    per-bit loop over two unary vectors, independent of popcount."""
    return sum(
        ((a >> position) & 1) != ((b >> position) & 1)
        for position in range(dimension)
    )


# -- popcount distances over int-packed codes ---------------------------------


class TestPackedCodes:
    """Unary codes are bits packed into one int; every NNS distance is
    an XOR + popcount over them.  (The class keeps the name it had when
    a separate byte-buffer corpus packed them; the ints are the packing
    now.)"""

    @given(small_codes, small_codes)
    @settings(max_examples=150)
    def test_popcount_equals_per_bit_reference(self, a, b):
        """XOR + popcount == the naive per-bit distance, on a width
        where the bit walk is cheap enough for many examples."""
        assert hamming(a, b) == hamming_per_bit(a, b, 48)
        assert (a ^ b).bit_count() == hamming(a, b)

    @given(st.lists(codes, min_size=1, max_size=8), codes)
    @settings(max_examples=60)
    def test_full_dimension_sweep_matches_hamming(self, corpus, query):
        """A sweep over a corpus at d = 720 equals the per-bit reference
        code for code."""
        assert [hamming(c, query) for c in corpus] == [
            hamming_per_bit(c, query, _DIMENSION) for c in corpus
        ]


# -- the verdict memo ---------------------------------------------------------


class TestFastPathEpochs:
    """The owner table's surface.  (The class keeps the name it had when
    the table was an epoch-guarded memo; there is no epoch any more.)"""

    def test_write_through_corrects_an_entry_in_place(self):
        plane: FastPath[int, str] = FastPath(16, registry=MetricsRegistry())
        held = plane.entries
        assert held.get(1, MISSING) is MISSING
        plane.fill(1, "v0")
        assert held.get(1, MISSING) == "v0"
        # The authoritative state moved key 1: the entry is corrected,
        # not forgotten, and nothing else is touched.
        plane.fill(2, "w0")
        plane.put(1, "v1")
        assert held == {1: "v1", 2: "w0"} and held is plane.entries
        assert plane.stats()["invalidations"] == 0

    def test_fill_counts_a_miss_and_put_does_not(self):
        plane: FastPath[int, object] = FastPath(16, registry=MetricsRegistry())
        plane.put(1, None)  # None is an answer, not an absence
        assert plane.entries.get(1, MISSING) is None
        assert plane.stats()["misses"] == 0
        plane.fill(2, "walked")
        assert plane.stats()["misses"] == 1 and plane.stats()["size"] == 2

    def test_bounded_by_clearing_at_capacity(self):
        with pytest.raises(ConfigError):
            FastPath(0, registry=MetricsRegistry())
        plane: FastPath[int, str] = FastPath(2, registry=MetricsRegistry())
        held = plane.entries
        plane.fill(1, "a")
        plane.fill(2, "b")
        plane.put(2, "b2")  # an overwrite is not growth
        assert plane.stats()["size"] == 2 and held[2] == "b2"
        plane.put(3, "c")  # full: cleared, then written
        assert plane.stats()["size"] == 1 and 1 not in held
        # Cleared in place: a dict handed out earlier is still the table.
        assert held is plane.entries and held == {3: "c"}
        stats = plane.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (0, 2, 2)
        # A capacity clear is a wholesale clear, counted once.
        assert stats["invalidations"] == 1

    def test_invalidate_counts_only_real_drops(self):
        plane: FastPath[int, int] = FastPath(8, registry=MetricsRegistry())
        for i in range(5):
            plane.put(i, i)
        assert plane.invalidate() == 5
        assert plane.invalidate() == 0
        assert plane.stats()["size"] == 0 and not plane.entries
        assert plane.stats()["invalidations"] == 1

    def test_direct_probes_are_accounted_through_note_hits(self):
        plane: FastPath[int, str] = FastPath(8, registry=MetricsRegistry())
        entries = plane.entries
        plane.fill(1, "v")
        assert entries.get(1) == "v"
        plane.note_hits(1)
        assert plane.stats() == {
            "size": 1, "capacity": 8, "hits": 1, "misses": 1,
            "evictions": 0, "invalidations": 0,
        }
        # A wholesale clear empties the very dict the caller holds.
        plane.invalidate()
        assert plane.entries is entries and not entries


# -- columnar decode == record-at-a-time decode -------------------------------


class TestColumnarDecodeEquivalence:
    @given(st.lists(flow_records(), min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_v5_columnar_equals_serial(self, records):
        data = encode_datagram(
            records, sys_uptime=1, unix_secs=2, flow_sequence=3
        )
        serial_header, serial_records = decode_datagram(data)
        header, batch = decode_v5_columnar(data)
        assert header == serial_header
        assert batch.records() == serial_records
        assert len(batch) == len(serial_records)

    @given(st.lists(flow_records(), min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_v1_columnar_equals_serial(self, records):
        data = encode_v1_datagram(records, sys_uptime=1, unix_secs=2)
        serial_uptime, serial_records = decode_v1_datagram(data)
        uptime, batch = decode_v1_columnar(data)
        assert uptime == serial_uptime
        assert batch.records() == serial_records

    @given(st.lists(flow_records(), min_size=1, max_size=5), st.data())
    @settings(max_examples=60)
    def test_v5_truncation_errors_are_identical(self, records, data):
        encoded = encode_datagram(
            records, sys_uptime=1, unix_secs=2, flow_sequence=3
        )
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        with pytest.raises(NetFlowDecodeError) as serial:
            decode_datagram(encoded[:cut])
        with pytest.raises(NetFlowDecodeError) as columnar:
            decode_v5_columnar(encoded[:cut])
        assert str(columnar.value) == str(serial.value)

    @given(st.lists(flow_records(), min_size=1, max_size=5), st.data())
    @settings(max_examples=60)
    def test_v1_truncation_errors_are_identical(self, records, data):
        encoded = encode_v1_datagram(records, sys_uptime=1, unix_secs=2)
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        with pytest.raises(NetFlowDecodeError) as serial:
            decode_v1_datagram(encoded[:cut])
        with pytest.raises(NetFlowDecodeError) as columnar:
            decode_v1_columnar(encoded[:cut])
        assert str(columnar.value) == str(serial.value)

    @given(st.binary(max_size=24 + 4 * 48))
    @settings(max_examples=200)
    def test_v5_garbage_fate_is_identical(self, data):
        """Arbitrary bytes: both decoders agree on decode-vs-raise and on
        the exact outcome either way."""
        try:
            serial = decode_datagram(data)
        except NetFlowDecodeError as error:
            with pytest.raises(NetFlowDecodeError) as columnar:
                decode_v5_columnar(data)
            assert str(columnar.value) == str(error)
            return
        header, batch = decode_v5_columnar(data)
        assert (header, batch.records()) == serial

    @given(st.binary(max_size=16 + 4 * 48))
    @settings(max_examples=200)
    def test_v1_garbage_fate_is_identical(self, data):
        try:
            serial = decode_v1_datagram(data)
        except NetFlowDecodeError as error:
            with pytest.raises(NetFlowDecodeError) as columnar:
                decode_v1_columnar(data)
            assert str(columnar.value) == str(error)
            return
        uptime, batch = decode_v1_columnar(data)
        assert (uptime, batch.records()) == serial

    @given(st.lists(flow_records(), min_size=1, max_size=4), st.data())
    @settings(max_examples=100)
    def test_v5_corruption_fate_is_identical(self, records, data):
        encoded = bytearray(
            encode_datagram(records, sys_uptime=1, unix_secs=2, flow_sequence=3)
        )
        position = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 1)
        )
        encoded[position] ^= data.draw(st.integers(min_value=1, max_value=255))
        blob = bytes(encoded)
        try:
            serial = decode_datagram(blob)
        except NetFlowDecodeError as error:
            with pytest.raises(NetFlowDecodeError) as columnar:
                decode_v5_columnar(blob)
            assert str(columnar.value) == str(error)
            return
        header, batch = decode_v5_columnar(blob)
        assert (header, batch.records()) == serial

    @given(st.lists(flow_records(), min_size=1, max_size=4), st.data())
    @settings(max_examples=100)
    def test_v1_corruption_fate_is_identical(self, records, data):
        encoded = bytearray(encode_v1_datagram(records, sys_uptime=1, unix_secs=2))
        position = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 1)
        )
        encoded[position] ^= data.draw(st.integers(min_value=1, max_value=255))
        blob = bytes(encoded)
        try:
            serial = decode_v1_datagram(blob)
        except NetFlowDecodeError as error:
            with pytest.raises(NetFlowDecodeError) as columnar:
                decode_v1_columnar(blob)
            assert str(columnar.value) == str(error)
            return
        uptime, batch = decode_v1_columnar(blob)
        assert (uptime, batch.records()) == serial


# -- verdict equivalence and checkpoint identity ------------------------------

#: State keys holding real wall-clock measurements — legitimately
#: different between two runs even when every decision is identical.
_WALL_CLOCK_KEYS = {"latency_total_s", "latency_max_s", "latency_buckets"}


def _scrub_wall_clock(document):
    if isinstance(document, dict):
        return {
            key: _scrub_wall_clock(value)
            for key, value in document.items()
            if key not in _WALL_CLOCK_KEYS
        }
    if isinstance(document, list):
        return [_scrub_wall_clock(item) for item in document]
    return document


def _build_detector(eia_plan, target_prefix):
    config = PipelineConfig(eia=EIAConfig(learning_threshold=3))
    return make_detector(
        eia_plan, target_prefix, seed=_SEED, config=config, n_train=700
    )


@pytest.fixture(scope="module")
def fastpath_trace(eia_plan, target_prefix) -> List:
    """Legal + absorbable route-churn + attack traffic (small edition of
    the engine-equivalence mix: repeats within and across batches so the
    memo genuinely hits, absorptions force mid-stream invalidation)."""
    rng = SeededRng(4170, "fastpath-trace")
    records = []
    legal = Dagflow(
        "legal", target_prefix=target_prefix, udp_port=9000,
        source_blocks=eia_plan[0], rng=rng.fork("legal"),
    )
    records += [
        lr.record.with_key(input_if=0)
        for lr in legal.replay(synthesize_trace(300, rng=rng.fork("t-legal")))
    ]
    moved = Dagflow(
        "moved", target_prefix=target_prefix, udp_port=9001,
        source_blocks=[eia_plan[1][0], eia_plan[2][0]], rng=rng.fork("moved"),
    )
    records += [
        lr.record.with_key(input_if=0)
        for lr in moved.replay(synthesize_trace(150, rng=rng.fork("t-moved")))
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
def serial_run(eia_plan, target_prefix, fastpath_trace):
    detector = _build_detector(eia_plan, target_prefix)
    decisions = detector.process_all(fastpath_trace)
    return detector, decisions


def _signature(decision):
    return (
        decision.verdict,
        decision.stage,
        decision.eia,
        decision.absorbed,
        decision.protocol_class,
    )


class TestVerdictEquivalence:
    def test_fastpath_batches_equal_serial_decisions(
        self, eia_plan, target_prefix, fastpath_trace, serial_run
    ):
        serial_detector, serial_decisions = serial_run
        # The trace must genuinely absorb, or the write-through path
        # goes untested and equivalence is vacuous.
        assert serial_detector.stats.absorbed >= 2
        detector = _build_detector(eia_plan, target_prefix)
        decisions = []
        for start in range(0, len(fastpath_trace), 97):
            result = detector.process_batch(fastpath_trace[start:start + 97])
            decisions.extend(result.decisions)
        assert list(map(_signature, decisions)) == list(
            map(_signature, serial_decisions)
        )
        ref, got = serial_detector.stats, detector.stats
        assert (got.processed, got.legal, got.suspects, got.attacks,
                got.absorbed) == (
            ref.processed, ref.legal, ref.suspects, ref.attacks, ref.absorbed,
        )
        stats = detector.fastpath.stats()
        # The table must actually carry owners across batch boundaries,
        # and absorptions at the stored prefix length are written through
        # it, never a reason to drop it.
        assert stats["hits"] > 0
        assert stats["invalidations"] == 0

    def test_checkpoint_bytes_identical_hot_cold_and_absent(
        self, eia_plan, target_prefix, fastpath_trace, serial_run
    ):
        """The derived caches — the EIA owner table and both NNS memos —
        are never serialized: a checkpoint taken with all three hot and
        one taken right after clearing them must be the same bytes;
        modulo wall-clock latency measurements, both also equal the
        checkpoint of the serial ``process_all`` run."""
        serial_detector, _ = serial_run
        detector = _build_detector(eia_plan, target_prefix)
        for start in range(0, len(fastpath_trace), 97):
            detector.process_batch(fastpath_trace[start:start + 97])
        # genuinely hot, all three
        assert detector.fastpath.stats()["size"] > 0
        assert detector._nns_memo and detector._nns_raw_memo
        hot = render_state(detector)
        detector.fastpath.invalidate()
        detector._nns_memo.clear()
        detector._nns_raw_memo.clear()
        cold = render_state(detector)
        assert hot == cold
        never = render_state(serial_detector)
        assert _scrub_wall_clock(json.loads(hot)) == _scrub_wall_clock(
            json.loads(never)
        )

    def test_state_dict_has_no_fastpath_section(
        self, eia_plan, target_prefix, fastpath_trace
    ):
        detector = _build_detector(eia_plan, target_prefix)
        detector.process_batch(fastpath_trace[:100])
        assert not any(
            "fastpath" in key for key in detector.state_dict()
        )

    def test_load_state_invalidates_a_hot_memo(
        self, eia_plan, target_prefix, fastpath_trace
    ):
        detector = _build_detector(eia_plan, target_prefix)
        detector.process_batch(fastpath_trace[:200])
        assert detector.fastpath.stats()["size"] > 0
        detector.load_state(detector.state_dict())
        assert detector.fastpath.stats()["size"] == 0


# -- the exact NNS matches the min() formulation ------------------------------


class TestPackedNNS:
    def test_nearest_exact_matches_min_formulation(self, trained_detector):
        model = trained_detector.model
        assert model is not None
        probed = 0
        for subcluster in model.subclusters.values():
            structure = subcluster.structure
            for flow in structure.flows[:20]:
                query = flow.encoded ^ 0b1011  # near, not exactly on, a point
                result = structure.nearest_exact(query)
                expected = min(
                    structure.flows,
                    key=lambda f: (hamming(f.encoded, query), f.index),
                )
                assert result.flow == expected
                assert result.distance == hamming(expected.encoded, query)
                probed += 1
        assert probed > 0


# -- serve router parity ------------------------------------------------------


class TestRouterColumnarParity:
    @given(st.lists(flow_records(), min_size=1, max_size=6), st.binary(max_size=80))
    @settings(max_examples=40)
    def test_router_equals_record_at_a_time_reference(self, records, garbage):
        """The (columnar-only) router queues the same records and counts
        the same fates as the offline decoders driven directly:
        ``FlowCollector.receive`` for v5, ``decode_v1_datagram`` for v1."""
        v5 = encode_datagram(records, sys_uptime=1, unix_secs=2, flow_sequence=0)
        v1 = encode_v1_datagram(records, sys_uptime=1, unix_secs=2)
        datagrams = [v5, garbage, v1, v5[: len(v5) // 2]]

        queue = IngestQueue(100_000, registry=MetricsRegistry())
        router = DatagramRouter(queue, registry=MetricsRegistry())
        reference = FlowCollector(registry=MetricsRegistry())
        expected: List = []
        fates = RouterStats()
        for data in datagrams:
            router.route(data, source=7)
            version = int.from_bytes(data[:2], "big") if len(data) >= 2 else -1
            if version == NETFLOW_V5_VERSION:
                expected.extend(reference.receive(data, source=7))
                fates.v5_datagrams += 1
            elif version == NETFLOW_V1_VERSION:
                try:
                    rows = decode_v1_datagram(data)[1]
                    reference.note_records(len(rows))
                    expected.extend(rows)
                    fates.v1_datagrams += 1
                except NetFlowDecodeError:
                    fates.invalid_datagrams += 1
            else:
                fates.invalid_datagrams += 1

        queued = queue.take_nowait(len(queue))
        assert queued.records() == expected
        assert router.stats == fates
        got, want = router.collector.stats, reference.stats
        assert (got.datagrams, got.records, got.decode_errors,
                got.duplicates) == (
            want.datagrams, want.records, want.decode_errors, want.duplicates,
        )
