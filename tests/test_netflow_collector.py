"""Tests for the collector (flow-capture role) and the port demux."""

import pytest

from repro.netflow.collector import FlowCollector, PortMux
from repro.netflow.records import FlowKey, FlowRecord
from repro.netflow.v5 import decode_datagram, encode_datagram
from repro.util.errors import NetFlowError


def record(index=0):
    return FlowRecord(
        key=FlowKey(src_addr=index + 1, dst_addr=9, protocol=6, dst_port=80),
        packets=2,
        octets=120,
        first=0,
        last=10,
    )


def datagram(records, sequence=0):
    return encode_datagram(
        records, sys_uptime=0, unix_secs=0, flow_sequence=sequence
    )


class TestFlowCollector:
    def test_receive_decodes_and_counts(self):
        collector = FlowCollector()
        got = collector.receive(datagram([record(), record(1)]))
        assert len(got) == 2
        assert collector.stats.datagrams == 1
        assert collector.stats.records == 2

    def test_sinks_invoked_per_record(self):
        collector = FlowCollector()
        seen = []
        collector.add_sink(seen.append)
        collector.receive(datagram([record(), record(1)]))
        assert [r.key.src_addr for r in seen] == [1, 2]

    def test_retained_records(self):
        collector = FlowCollector()
        collector.retain_records()
        collector.receive(datagram([record()]))
        assert len(collector.records) == 1

    def test_malformed_datagram_counted_not_raised(self):
        collector = FlowCollector()
        assert collector.receive(b"garbage") == []
        assert collector.stats.decode_errors == 1
        assert collector.stats.datagrams == 0

    def test_loss_detection_per_source(self):
        collector = FlowCollector()
        collector.receive(datagram([record()], sequence=0), source=1)
        # Sequence jumps by 5: 4 flows were lost in transit.
        collector.receive(datagram([record()], sequence=5), source=1)
        assert collector.stats.lost_flows == 4

    def test_sources_tracked_independently(self):
        collector = FlowCollector()
        collector.receive(datagram([record()], sequence=0), source=1)
        collector.receive(datagram([record()], sequence=0), source=2)
        assert collector.stats.lost_flows == 0

    def test_sequence_regression_counts_reset(self):
        collector = FlowCollector()
        collector.receive(datagram([record()], sequence=100), source=1)
        collector.receive(datagram([record()], sequence=0), source=1)
        assert collector.stats.sequence_resets == 1

    def test_duplicate_datagram_dropped(self):
        collector = FlowCollector()
        data = datagram([record()], sequence=10)
        assert len(collector.receive(data, source=1)) == 1
        assert collector.receive(data, source=1) == []
        assert collector.stats.duplicates == 1
        assert collector.stats.records == 1

    def test_duplicate_detection_is_per_source(self):
        collector = FlowCollector()
        data = datagram([record()], sequence=10)
        collector.receive(data, source=1)
        assert len(collector.receive(data, source=2)) == 1
        assert collector.stats.duplicates == 0

    def test_dedupe_window_is_bounded(self):
        collector = FlowCollector()
        first = datagram([record()], sequence=0)
        collector.receive(first, source=1)
        for sequence in range(1, FlowCollector.DEDUPE_WINDOW + 2):
            collector.receive(datagram([record()], sequence=sequence), source=1)
        # Sequence 0 has aged out of the window: replay is accepted again
        # (and shows up as a sequence reset instead).
        assert len(collector.receive(first, source=1)) == 1

    def test_restarted_exporter_reusing_a_sequence_is_admitted(self):
        """A UDP duplicate is a *verbatim* re-delivery.  A restarted
        exporter counts from zero again — a sequence number still in the
        window — but with a younger uptime and a later wall clock, and
        its flows must reach the detector (as a sequence reset)."""
        collector = FlowCollector()
        delivered = []
        collector.add_sink(delivered.append)
        batch = [record(i) for i in range(30)]

        def export(sequence, *, sys_uptime, unix_secs):
            return encode_datagram(
                batch, sys_uptime=sys_uptime, unix_secs=unix_secs,
                flow_sequence=sequence,
            )

        first = export(0, sys_uptime=90_000, unix_secs=1_000)
        assert len(collector.receive(first, source=1)) == 30
        assert len(collector.receive(
            export(30, sys_uptime=91_000, unix_secs=1_001), source=1
        )) == 30
        restart = export(0, sys_uptime=500, unix_secs=1_060)
        assert len(collector.receive(restart, source=1)) == 30
        stats = collector.stats
        assert (stats.duplicates, stats.sequence_resets) == (0, 1)
        # A verbatim re-delivery of either incarnation is still dropped.
        assert collector.receive(first, source=1) == []
        assert collector.receive(restart, source=1) == []
        assert stats.duplicates == 2
        # Record fates reconcile: everything counted was delivered, no
        # flow was declared lost, nothing was delivered twice.
        assert stats.datagrams == 3
        assert stats.records == len(delivered) == 90
        assert stats.lost_flows == 0

    def test_receive_decoded_accounts_and_delivers_nothing(self):
        """The header-only entry the serve router uses: same counters
        and duplicate verdicts as ``receive``, no sink traffic."""
        collector = FlowCollector()
        delivered = []
        collector.add_sink(delivered.append)
        header, records = decode_datagram(datagram([record(), record(1)]))
        assert collector.receive_decoded(header, records, source=1) is True
        assert collector.receive_decoded(header, records, source=1) is False
        stats = collector.stats
        assert (stats.datagrams, stats.records, stats.duplicates) == (1, 2, 1)
        assert delivered == []

    def test_ingest_records_bypasses_wire(self):
        collector = FlowCollector()
        collector.retain_records()
        collector.ingest_records([record(), record(1)])
        assert collector.stats.records == 2
        assert len(collector.records) == 2


class TestPortMux:
    def test_demux_stamps_peer(self):
        mux = PortMux()
        mux.bind(9003, 3)
        stamped = mux.demux(record(), 9003)
        assert stamped.key.input_if == 3

    def test_rebind_same_value_is_idempotent(self):
        mux = PortMux()
        mux.bind(9003, 3)
        mux.bind(9003, 3)
        assert mux.port_to_peer[9003] == 3

    def test_conflicting_bind_rejected(self):
        mux = PortMux()
        mux.bind(9003, 3)
        with pytest.raises(NetFlowError):
            mux.bind(9003, 4)

    def test_unknown_port_rejected(self):
        with pytest.raises(NetFlowError):
            PortMux().demux(record(), 12345)

    def test_peers_listing(self):
        mux = PortMux()
        mux.bind(9001, 1)
        mux.bind(9002, 2)
        mux.bind(9009, 2)
        assert mux.peers() == (1, 2)
