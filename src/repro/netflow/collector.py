"""NetFlow collection (the flow-capture role of Flow-tools).

:class:`FlowCollector` receives encoded v5 datagrams, decodes them, tracks
per-source sequence numbers for loss detection, and hands the records to
registered sinks.  In the testbed each Dagflow instance sends to a distinct
UDP port; :class:`PortMux` reproduces that multiplexing by mapping a
destination port to a peer-AS identity and stamping it onto the records
(via ``input_if``) before collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sized, Tuple

from repro.netflow.records import FlowRecord
from repro.netflow.v5 import V5Header, decode_datagram
from repro.obs import MetricsRegistry, get_logger, get_registry
from repro.util.errors import NetFlowError

__all__ = ["CollectorStats", "FlowCollector", "PortMux"]

log = get_logger(__name__)

FlowSink = Callable[[FlowRecord], None]


@dataclass
class CollectorStats:
    """Counters a flow-capture operator watches."""

    datagrams: int = 0
    records: int = 0
    decode_errors: int = 0
    lost_flows: int = 0
    sequence_resets: int = 0
    duplicates: int = 0


class FlowCollector:
    """Decode v5 datagrams from multiple exporters and fan records out.

    ``source`` is an opaque exporter identity (the testbed uses the UDP
    port number).  Sequence tracking is per source: a gap between the
    expected and received ``flow_sequence`` counts as lost flows, and a
    regression counts as an exporter restart.
    """

    DEDUPE_WINDOW = 64

    def __init__(self, *, registry: Optional[MetricsRegistry] = None) -> None:
        self._sinks: List[FlowSink] = []
        self._expected_seq: Dict[int, int] = {}
        self.stats = CollectorStats()
        self._store: List[FlowRecord] = []
        self._retain = False
        # Recently seen (per source) datagram headers, oldest first: a
        # UDP duplicate re-delivers a datagram verbatim; replaying its
        # records would double-count flows, so it is dropped here.  The
        # whole header is the key — a restarted exporter reuses sequence
        # numbers but not (uptime, wall clock), and must be admitted.
        self._recent_headers: Dict[int, Dict[V5Header, None]] = {}
        registry = registry if registry is not None else get_registry()
        self._m_datagrams = registry.counter(
            "infilter_collector_datagrams_total",
            "NetFlow v5 datagrams decoded successfully.",
        )
        self._m_records = registry.counter(
            "infilter_collector_records_total",
            "Flow records delivered to sinks.",
        )
        self._m_decode_errors = registry.counter(
            "infilter_collector_decode_errors_total",
            "Datagrams dropped because they failed to decode.",
        )
        self._m_lost_flows = registry.counter(
            "infilter_collector_lost_flows_total",
            "Flows inferred lost from flow_sequence gaps.",
        )
        self._m_sequence_resets = registry.counter(
            "infilter_collector_sequence_resets_total",
            "flow_sequence regressions (exporter restarts).",
        )
        self._m_duplicates = registry.counter(
            "infilter_collector_duplicate_datagrams_total",
            "Datagrams dropped as UDP re-deliveries.",
        )

    def add_sink(self, sink: FlowSink) -> None:
        """Register a callback invoked once per collected record."""
        self._sinks.append(sink)

    def retain_records(self, retain: bool = True) -> None:
        """Keep collected records in memory (the flow-file role)."""
        self._retain = retain

    @property
    def records(self) -> List[FlowRecord]:
        """Records retained so far (requires :meth:`retain_records`)."""
        return self._store

    def receive(self, data: bytes, source: int = 0) -> List[FlowRecord]:
        """Ingest one datagram; returns the decoded records.

        Undecodable datagrams are counted and dropped rather than raised:
        a collector must survive malformed input from the network.
        """
        try:
            header, records = decode_datagram(data)
        except NetFlowError as error:
            self.note_decode_error(source, str(error))
            return []
        if not self.receive_decoded(header, records, source=source):
            return []
        for record in records:
            self._deliver(record)
        return records

    def note_decode_error(self, source: int, reason: str) -> None:
        """Account one dropped undecodable datagram.

        Exposed so front ends that decode before the collector (the
        fastpath columnar router) keep the decode-error accounting in one
        place — same counters, metric, and log line as :meth:`receive`.
        """
        self.stats.decode_errors += 1
        self._m_decode_errors.inc()
        log.warning(
            "dropped undecodable datagram",
            extra={"source": source, "reason": reason},
        )

    def receive_decoded(
        self, header: V5Header, rows: Sized, source: int = 0
    ) -> bool:
        """Account an already-decoded v5 datagram; False when it is a
        duplicate the caller must drop.

        The header-only half of :meth:`receive` — duplicate suppression,
        sequence tracking, the datagram and record counters — for front
        ends that decode elsewhere and move the rows themselves (the
        serve router hands :func:`repro.fastpath.columnar.
        decode_v5_columnar`'s batch straight to its queue).  Nothing is
        delivered to sinks here.
        """
        if self._is_duplicate(source, header):
            self.stats.duplicates += 1
            self._m_duplicates.inc()
            return False
        self._track_sequence(source, header)
        self.stats.datagrams += 1
        self._m_datagrams.inc()
        self.note_records(len(rows))
        return True

    def _is_duplicate(self, source: int, header: V5Header) -> bool:
        recent = self._recent_headers.get(source)
        if recent is None:
            self._recent_headers[source] = recent = {}
        seen = len(recent)
        recent[header] = None  # one hash: a known header adds nothing
        if len(recent) == seen:
            return True
        if seen >= self.DEDUPE_WINDOW:
            del recent[next(iter(recent))]
        return False

    def note_records(self, count: int) -> None:
        """Account ``count`` collected records (no sequence header: v1)."""
        self.stats.records += count
        self._m_records.inc(count)

    def ingest_records(self, records: List[FlowRecord]) -> None:
        """Bypass the wire format (already-decoded records)."""
        self.note_records(len(records))
        for record in records:
            self._deliver(record)

    def _deliver(self, record: FlowRecord) -> None:
        if self._retain:
            self._store.append(record)
        for sink in self._sinks:
            sink(record)

    def _track_sequence(self, source: int, header: V5Header) -> None:
        expected = self._expected_seq.get(source)
        if expected is not None:
            if header.flow_sequence > expected:
                lost = header.flow_sequence - expected
                self.stats.lost_flows += lost
                self._m_lost_flows.inc(lost)
                log.warning(
                    "sequence gap: flows lost in transport",
                    extra={"source": source, "lost": lost},
                )
            elif header.flow_sequence < expected:
                self.stats.sequence_resets += 1
                self._m_sequence_resets.inc()
                log.info(
                    "sequence regression: exporter restart",
                    extra={"source": source},
                )
        self._expected_seq[source] = header.flow_sequence + header.count


@dataclass
class PortMux:
    """Map exporter UDP ports to peer-AS identities (testbed Section 6.2).

    Each Dagflow instance sends NetFlow to a distinct destination port; the
    Enhanced InFilter software uses the port to attribute incoming records
    to the emulating peer AS.  ``demux`` rewrites ``input_if`` on the
    records to the mapped peer-AS index so downstream analysis is uniform
    whether records arrived via the mux or a real ifIndex.
    """

    port_to_peer: Dict[int, int] = field(default_factory=dict)

    def bind(self, port: int, peer_as_index: int) -> None:
        """Associate a UDP destination port with a peer-AS index."""
        existing = self.port_to_peer.get(port)
        if existing is not None and existing != peer_as_index:
            raise NetFlowError(
                f"port {port} already bound to peer AS {existing}"
            )
        self.port_to_peer[port] = peer_as_index

    def demux(self, record: FlowRecord, port: int) -> FlowRecord:
        """Stamp the record with the peer AS its arrival port maps to."""
        try:
            peer = self.port_to_peer[port]
        except KeyError:
            raise NetFlowError(f"no peer AS bound to port {port}") from None
        return replace(record, key=replace(record.key, input_if=peer))

    def peers(self) -> Tuple[int, ...]:
        """All bound peer-AS indices, sorted."""
        return tuple(sorted(set(self.port_to_peer.values())))
