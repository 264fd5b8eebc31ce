"""Fuzz tests for the NetFlow wire codecs and the collector's input edge.

The decoders' contract is *raise cleanly or decode*: any malformed
datagram — truncated header, truncated records, a count field that
disagrees with the payload, or outright garbage — must raise
:class:`NetFlowDecodeError` (never ``struct.error``, ``IndexError`` or a
silent partial decode), because the collector classifies exactly that
exception to survive hostile input.  These tests drive both codecs with
generated garbage, systematic truncations and single-byte corruptions of
valid datagrams, and check the collector end of the same contract.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netflow.collector import FlowCollector
from repro.netflow.records import FlowKey, FlowRecord
from repro.netflow.v1 import (
    MAX_V1_RECORDS,
    V1_HEADER_LEN,
    V1_RECORD_LEN,
    decode_v1_datagram,
    encode_v1_datagram,
)
from repro.netflow.v5 import (
    HEADER_LEN,
    MAX_RECORDS_PER_DATAGRAM,
    RECORD_LEN,
    decode_datagram,
    encode_datagram,
)
from repro.obs import MetricsRegistry
from repro.util.errors import NetFlowDecodeError

u32 = st.integers(min_value=0, max_value=2**32 - 1)
u16 = st.integers(min_value=0, max_value=2**16 - 1)
u8 = st.integers(min_value=0, max_value=255)


@st.composite
def flow_records(draw):
    first = draw(st.integers(min_value=0, max_value=2**31))
    return FlowRecord(
        key=FlowKey(
            src_addr=draw(u32),
            dst_addr=draw(u32),
            protocol=draw(u8),
            src_port=draw(u16),
            dst_port=draw(u16),
            tos=draw(u8),
            input_if=draw(u16),
        ),
        packets=draw(st.integers(min_value=1, max_value=2**32 - 1)),
        octets=draw(st.integers(min_value=1, max_value=2**32 - 1)),
        first=first,
        last=draw(st.integers(min_value=first, max_value=2**32 - 1)),
        next_hop=draw(u32),
        tcp_flags=draw(u8),
        src_mask=draw(st.integers(min_value=0, max_value=32)),
        dst_mask=draw(st.integers(min_value=0, max_value=32)),
        output_if=draw(u16),
    )


def _encode_v5(records):
    return encode_datagram(records, sys_uptime=1, unix_secs=2, flow_sequence=3)


def _encode_v1(records):
    return encode_v1_datagram(records, sys_uptime=1, unix_secs=2)


class TestV5Fuzz:
    @given(st.binary(max_size=HEADER_LEN + 4 * RECORD_LEN))
    @settings(max_examples=200)
    def test_garbage_raises_cleanly_or_decodes(self, data):
        try:
            header, records = decode_datagram(data)
        except NetFlowDecodeError:
            return
        assert header.count == len(records)

    @given(st.lists(flow_records(), min_size=1, max_size=5), st.data())
    @settings(max_examples=60)
    def test_any_truncation_raises(self, records, data):
        encoded = _encode_v5(records)
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        with pytest.raises(NetFlowDecodeError):
            decode_datagram(encoded[:cut])

    @given(
        st.lists(flow_records(), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=2**16 - 1),
    )
    @settings(max_examples=60)
    def test_wrong_count_field_raises(self, records, claimed):
        encoded = bytearray(_encode_v5(records))
        if claimed == len(records):
            claimed = (claimed + 1) % (MAX_RECORDS_PER_DATAGRAM + 1)
            if claimed == len(records):
                claimed += 1
        encoded[2:4] = claimed.to_bytes(2, "big")
        with pytest.raises(NetFlowDecodeError):
            decode_datagram(bytes(encoded))

    @given(st.lists(flow_records(), min_size=1, max_size=4), st.data())
    @settings(max_examples=100)
    def test_single_byte_corruption_never_escapes(self, records, data):
        encoded = bytearray(_encode_v5(records))
        position = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 1)
        )
        flip = data.draw(st.integers(min_value=1, max_value=255))
        encoded[position] ^= flip
        try:
            header, decoded = decode_datagram(bytes(encoded))
        except NetFlowDecodeError:
            return
        # Payload corruption that keeps the envelope valid must still
        # produce a structurally consistent decode.
        assert header.count == len(decoded) == len(records)


class TestV1Fuzz:
    @given(st.binary(max_size=V1_HEADER_LEN + 4 * V1_RECORD_LEN))
    @settings(max_examples=200)
    def test_garbage_raises_cleanly_or_decodes(self, data):
        try:
            _uptime, records = decode_v1_datagram(data)
        except NetFlowDecodeError:
            return
        assert (
            len(data) == V1_HEADER_LEN + len(records) * V1_RECORD_LEN
        )

    @given(st.lists(flow_records(), min_size=1, max_size=5), st.data())
    @settings(max_examples=60)
    def test_any_truncation_raises(self, records, data):
        encoded = _encode_v1(records)
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        with pytest.raises(NetFlowDecodeError):
            decode_v1_datagram(encoded[:cut])

    @given(
        st.lists(flow_records(), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=2**16 - 1),
    )
    @settings(max_examples=60)
    def test_wrong_count_field_raises(self, records, claimed):
        encoded = bytearray(_encode_v1(records))
        if claimed == len(records):
            claimed = (claimed + 1) % (MAX_V1_RECORDS + 1)
            if claimed == len(records):
                claimed += 1
        encoded[2:4] = claimed.to_bytes(2, "big")
        with pytest.raises(NetFlowDecodeError):
            decode_v1_datagram(bytes(encoded))

    @given(st.lists(flow_records(), min_size=1, max_size=6))
    @settings(max_examples=40)
    def test_round_trip_preserves_v1_fields(self, records):
        _uptime, decoded = decode_v1_datagram(_encode_v1(records))
        assert len(decoded) == len(records)
        for original, copy in zip(records, decoded):
            assert copy.key.src_addr == original.key.src_addr
            assert copy.key.dst_addr == original.key.dst_addr
            assert copy.key.protocol == original.key.protocol
            assert copy.packets == original.packets
            assert copy.octets == original.octets
            assert copy.first == original.first
            assert copy.last == original.last


class TestCollectorUnderFuzz:
    @given(st.lists(st.binary(max_size=200), max_size=20))
    @settings(max_examples=50)
    def test_collector_survives_garbage(self, datagrams):
        collector = FlowCollector(registry=MetricsRegistry())
        delivered = []
        for data in datagrams:
            delivered.extend(collector.receive(data))
        assert (
            collector.stats.datagrams + collector.stats.decode_errors
            + collector.stats.duplicates
            == len(datagrams)
        )
        assert len(delivered) == collector.stats.records

    @given(st.lists(flow_records(), min_size=1, max_size=8), st.binary(max_size=64))
    @settings(max_examples=40)
    def test_garbage_between_valid_datagrams_drops_nothing_valid(
        self, records, garbage
    ):
        collector = FlowCollector(registry=MetricsRegistry())
        first = encode_datagram(
            records, sys_uptime=1, unix_secs=2, flow_sequence=0
        )
        second = encode_datagram(
            records, sys_uptime=1, unix_secs=2, flow_sequence=len(records)
        )
        delivered = [
            record
            for data in (first, garbage, second)
            for record in collector.receive(data)
        ]
        assert len(delivered) == 2 * len(records)
        assert collector.stats.datagrams == 2
