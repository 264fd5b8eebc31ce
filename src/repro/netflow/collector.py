"""NetFlow collection (the flow-capture role of Flow-tools).

:class:`FlowCollector` receives encoded v5 datagrams, decodes them, and
tracks per-source sequence numbers for loss detection.  The serve
router decodes column-wise and puts only the header through
:meth:`FlowCollector.receive_decoded`; :meth:`FlowCollector.receive` is
the record-wise reference that returns the decoded records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sized, Tuple

from repro.netflow.records import FlowRecord
from repro.netflow.v5 import V5Header, decode_datagram
from repro.obs import MetricsRegistry, get_logger, get_registry
from repro.util.errors import NetFlowError

__all__ = ["CollectorStats", "FlowCollector"]

log = get_logger(__name__)


@dataclass
class CollectorStats:
    """Counters a flow-capture operator watches."""

    datagrams: int = 0
    records: int = 0
    decode_errors: int = 0
    #: Net: flows of a late datagram move from here to ``late_flows``.
    lost_flows: int = 0
    late_flows: int = 0
    sequence_resets: int = 0
    duplicates: int = 0


class FlowCollector:
    """Decode v5 datagrams from multiple exporters and account for them.

    ``source`` is an opaque exporter identity (the UDP source port).
    Sequence tracking is per source: a gap between the expected and
    received ``flow_sequence`` counts as lost flows and stays open; a
    regression that falls wholly inside an open gap is a late (reordered)
    datagram and takes its flows back out of the loss count; any other
    regression counts as an exporter restart.
    """

    DEDUPE_WINDOW = 64
    GAP_WINDOW = 64  # open gaps kept per source, oldest dropped first

    def __init__(self, *, registry: Optional[MetricsRegistry] = None) -> None:
        self._expected_seq: Dict[int, int] = {}
        # Per source: the [start, stop) sequence ranges counted lost and
        # not yet filled, and where the run seen since the first datagram
        # (or the last restart) begins.
        self._open_gaps: Dict[int, List[Tuple[int, int]]] = {}
        self._head: Dict[int, int] = {}
        self.stats = CollectorStats()
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
            "Flow records collected from accepted datagrams.",
        )
        self._m_decode_errors = registry.counter(
            "infilter_collector_decode_errors_total",
            "Datagrams dropped because they failed to decode.",
        )
        self._m_lost_flows = registry.counter(
            "infilter_collector_lost_flows_total",
            "Flows inferred lost from flow_sequence gaps.",
        )
        self._m_late_flows = registry.counter(
            "infilter_collector_late_flows_total",
            "Flows counted lost that arrived late, in a reordered datagram.",
        )
        self._m_sequence_resets = registry.counter(
            "infilter_collector_sequence_resets_total",
            "flow_sequence regressions other than late datagrams"
            " (exporter restarts).",
        )
        self._m_duplicates = registry.counter(
            "infilter_collector_duplicate_datagrams_total",
            "Datagrams dropped as UDP re-deliveries.",
        )

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
        decode_v5_columnar`'s batch straight to its queue).
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

    def _track_sequence(self, source: int, header: V5Header) -> None:
        expected = self._expected_seq.get(source)
        if expected is None:
            self._head[source] = header.flow_sequence
        elif header.flow_sequence > expected:
            lost = header.flow_sequence - expected
            self.stats.lost_flows += lost
            self._m_lost_flows.inc(lost)
            log.warning(
                "sequence gap: flows lost in transport",
                extra={"source": source, "lost": lost},
            )
            gaps = self._open_gaps.setdefault(source, [])
            gaps.append((expected, header.flow_sequence))
            if len(gaps) > self.GAP_WINDOW:
                del gaps[0]
        elif header.flow_sequence < expected:
            if self._is_late(source, header):
                return
            self.stats.sequence_resets += 1
            self._m_sequence_resets.inc()
            log.info(
                "sequence regression: exporter restart",
                extra={"source": source},
            )
            # A restarted exporter counts in a new sequence space.
            self._open_gaps.pop(source, None)
            self._head[source] = header.flow_sequence
        self._expected_seq[source] = header.flow_sequence + header.count

    def _is_late(self, source: int, header: V5Header) -> bool:
        """Account a regression as a late datagram; False when it is not
        one (an exporter restart).  Late is a range wholly inside an open
        gap (its flows leave the loss count), or one ending where the run
        seen from this source begins: the first datagram seen overtook
        it, and a gap before the first datagram is never counted."""
        start = header.flow_sequence
        stop = start + header.count
        if stop == self._head[source]:
            self._head[source] = start
            return True
        gaps = self._open_gaps.get(source, [])
        for position, (gap_start, gap_stop) in enumerate(gaps):
            if gap_start <= start and stop <= gap_stop:
                gaps[position:position + 1] = [
                    (low, high)
                    for low, high in ((gap_start, start), (stop, gap_stop))
                    if low < high
                ]
                break
        else:
            return False
        self.stats.lost_flows -= header.count
        self.stats.late_flows += header.count
        self._m_late_flows.inc(header.count)
        log.debug(
            "late datagram: flows no longer lost",
            extra={"source": source, "late": header.count},
        )
        return True
