"""Tests for the collector (flow-capture role)."""

import pytest

from repro.netflow.collector import FlowCollector
from repro.netflow.records import FlowKey, FlowRecord
from repro.netflow.transport import ChannelConfig, UdpChannel
from repro.netflow.v5 import datagrams_for, decode_datagram, encode_datagram
from repro.obs import MetricsRegistry
from repro.util import SeededRng


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

    def test_receive_returns_records_in_order(self):
        collector = FlowCollector()
        seen = collector.receive(datagram([record(), record(1)]))
        assert [r.key.src_addr for r in seen] == [1, 2]

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
        batch = [record(i) for i in range(30)]

        def export(sequence, *, sys_uptime, unix_secs):
            return encode_datagram(
                batch, sys_uptime=sys_uptime, unix_secs=unix_secs,
                flow_sequence=sequence,
            )

        def receive(data):
            got = collector.receive(data, source=1)
            delivered.extend(got)
            return got

        first = export(0, sys_uptime=90_000, unix_secs=1_000)
        assert len(receive(first)) == 30
        assert len(receive(export(30, sys_uptime=91_000, unix_secs=1_001))) == 30
        restart = export(0, sys_uptime=500, unix_secs=1_060)
        assert len(receive(restart)) == 30
        stats = collector.stats
        assert (stats.duplicates, stats.sequence_resets) == (0, 1)
        # A verbatim re-delivery of either incarnation is still dropped.
        assert receive(first) == []
        assert receive(restart) == []
        assert stats.duplicates == 2
        # Record fates reconcile: everything counted was delivered, no
        # flow was declared lost, nothing was delivered twice.
        assert stats.datagrams == 3
        assert stats.records == len(delivered) == 90
        assert stats.lost_flows == 0

    def test_receive_decoded_accounts_and_delivers_nothing(self):
        """The header-only entry the serve router uses: same counters
        and duplicate verdicts as ``receive``; the caller moves the rows."""
        collector = FlowCollector()
        header, records = decode_datagram(datagram([record(), record(1)]))
        assert collector.receive_decoded(header, records, source=1) is True
        assert collector.receive_decoded(header, records, source=1) is False
        stats = collector.stats
        assert (stats.datagrams, stats.records, stats.duplicates) == (1, 2, 1)

    def test_note_records_counts_rows_without_a_header(self):
        """v1 carries no flow_sequence: its rows are only counted."""
        collector = FlowCollector()
        collector.note_records(2)
        assert collector.stats.records == 2
        assert collector.stats.datagrams == 0


def stream(flows=300):
    """One exporter's flows as 30-flow v5 datagrams, in sequence order."""
    return list(
        datagrams_for(iter([record(i) for i in range(flows)]),
                      sys_uptime=0, unix_secs=0)
    )


class TestLateDatagrams:
    """A datagram that overtakes its predecessor opens a gap; the late
    one fills it.  Nothing was lost, and the exporter never restarted."""

    @pytest.mark.parametrize(
        "first, late",
        [(3, 30), (0, 0)],  # the gap before the first datagram was never lost
        ids=["mid-stream", "first-datagram"],
    )
    def test_two_swapped_datagrams_lose_nothing(self, first, late):
        datagrams = stream()
        datagrams[first], datagrams[first + 1] = (
            datagrams[first + 1], datagrams[first],
        )
        collector = FlowCollector(registry=MetricsRegistry())
        received = [r for d in datagrams for r in collector.receive(d, source=1)]
        stats = collector.stats
        assert len(received) == stats.records == 300
        assert (stats.lost_flows, stats.late_flows, stats.sequence_resets) == (
            0, late, 0,
        )

    def test_a_reordering_channel_loses_nothing(self):
        registry = MetricsRegistry()
        channel = UdpChannel(
            ChannelConfig(reorder_probability=0.2),
            rng=SeededRng(11, "late"),
            registry=registry,
        )
        collector = FlowCollector(registry=registry)
        for data in channel.transmit(stream()):
            collector.receive(data, source=1)
        stats = collector.stats
        assert channel.stats.reordered > 0
        assert stats.records == 300
        assert (stats.lost_flows, stats.sequence_resets) == (0, 0)

    def test_a_late_datagram_fills_only_its_part_of_a_wider_gap(self):
        d0, d1, d2, d3 = stream(120)
        registry = MetricsRegistry()
        collector = FlowCollector(registry=registry)
        for data in (d0, d3, d2):  # d1 lost, d2 late
            collector.receive(data, source=1)
        stats = collector.stats
        assert (stats.lost_flows, stats.late_flows, stats.sequence_resets) == (
            30, 30, 0,
        )
        # The monotone counters keep both sides; their difference is
        # the net loss.
        assert registry.get("infilter_collector_lost_flows_total").value == 60
        assert registry.get("infilter_collector_late_flows_total").value == 30
        # The rest of the gap is still open: d1 turns up late too.
        collector.receive(d1, source=1)
        assert (stats.lost_flows, stats.late_flows) == (0, 60)

    def test_a_regression_outside_every_gap_is_a_restart(self):
        d0, _d1, d2 = stream(90)
        collector = FlowCollector(registry=MetricsRegistry())
        for data in (d0, d2):  # opens the gap [30, 60)
            collector.receive(data, source=1)
        restart = encode_datagram(
            [record()], sys_uptime=5, unix_secs=9, flow_sequence=0
        )
        collector.receive(restart, source=1)
        stats = collector.stats
        assert (stats.lost_flows, stats.late_flows, stats.sequence_resets) == (
            30, 0, 1,
        )
