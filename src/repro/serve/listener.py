"""The UDP ingress of the serving daemon.

:class:`NetFlowDatagramProtocol` is the asyncio ``DatagramProtocol``
bound to the export socket; it does nothing but hand raw datagrams to a
:class:`DatagramRouter`.  The router sniffs the NetFlow version word,
decodes the datagram column-wise, puts a v5 datagram's header through
the :class:`~repro.netflow.collector.FlowCollector` (sequence tracking,
duplicate suppression, loss accounting — the same accounting the
offline path uses; v1 has no sequence header to account), and hands the
column block to the bounded ingest queue in one call.  No
:class:`~repro.netflow.records.FlowRecord` is built here.

Keeping the router a plain synchronous object makes the whole ingress
testable without a socket: tests feed ``route()`` bytes and assert on
queue and collector state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, cast

import asyncio

from repro.fastpath.columnar import decode_v1_columnar, decode_v5_columnar
from repro.netflow.collector import FlowCollector
from repro.netflow.v1 import NETFLOW_V1_VERSION
from repro.netflow.v5 import NETFLOW_V5_VERSION
from repro.obs import MetricsRegistry, Stopwatch, get_logger, get_registry
from repro.serve.queue import IngestQueue
from repro.util.errors import NetFlowError

__all__ = ["RouterStats", "DatagramRouter", "NetFlowDatagramProtocol"]

log = get_logger(__name__)


@dataclass
class RouterStats:
    """Datagram fates at the ingress, by wire format."""

    v5_datagrams: int = 0
    v1_datagrams: int = 0
    invalid_datagrams: int = 0


class DatagramRouter:
    """Version-sniff NetFlow datagrams and feed their rows to the queue.

    ``on_activity`` (when given) is invoked once per datagram — the
    idle-exit watchdog's pulse.  Records shed by the queue are already
    counted there; the router only counts datagram-level fates.
    """

    def __init__(
        self,
        queue: IngestQueue,
        *,
        collector: Optional[FlowCollector] = None,
        registry: Optional[MetricsRegistry] = None,
        on_activity: Optional[Callable[[], None]] = None,
    ) -> None:
        registry = registry if registry is not None else get_registry()
        self.queue = queue
        self.collector = (
            collector if collector is not None else FlowCollector(registry=registry)
        )
        self.stats = RouterStats()
        self._on_activity = on_activity
        datagrams = registry.counter(
            "infilter_serve_datagrams_total",
            "NetFlow datagrams arriving at the serve UDP listener.",
            ("version",),
        )
        self._m_v5 = datagrams.labels(version="v5")
        self._m_v1 = datagrams.labels(version="v1")
        self._m_invalid = datagrams.labels(version="invalid")
        self._m_decode_s = registry.histogram(
            "infilter_fastpath_batch_decode_seconds",
            "Columnar datagram decode latency.",
        )
        self._m_decode_ns = registry.counter(
            "infilter_fastpath_batch_decode_ns_total",
            "Cumulative columnar decode time in nanoseconds.",
        )
        self._m_decoded_records = registry.counter(
            "infilter_fastpath_decoded_records_total",
            "Flow records decoded through the columnar fastpath.",
        )

    def route(self, data: bytes, source: int = 0) -> int:
        """Ingest one datagram; returns the number of records queued for
        assessment (before any shed accounting).

        Malformed input is counted and dropped, never raised: a daemon
        on an open UDP port must survive arbitrary bytes.
        """
        if self._on_activity is not None:
            self._on_activity()
        if len(data) >= 2:
            version = int.from_bytes(data[:2], "big")
        else:
            version = -1
        if version == NETFLOW_V5_VERSION:
            queued = self._receive_v5(data, source)
            self.stats.v5_datagrams += 1
            self._m_v5.inc()
            return queued
        if version == NETFLOW_V1_VERSION:
            watch = Stopwatch()
            try:
                _uptime, batch = decode_v1_columnar(data)
            except NetFlowError as error:
                self.stats.invalid_datagrams += 1
                self._m_invalid.inc()
                log.warning(
                    "dropped undecodable v1 datagram",
                    extra={"source": source, "reason": str(error)},
                )
                return 0
            self._observe_decode(watch.elapsed_s(), len(batch))
            self.stats.v1_datagrams += 1
            self._m_v1.inc()
            # v1 has no flow_sequence: nothing for the collector to track
            # but the record count.
            self.collector.note_records(len(batch))
            self.queue.put_batch(batch)
            return len(batch)
        self.stats.invalid_datagrams += 1
        self._m_invalid.inc()
        log.warning(
            "dropped datagram with unsupported version word",
            extra={"source": source, "version": version, "length": len(data)},
        )
        return 0

    def _receive_v5(self, data: bytes, source: int) -> int:
        """The zero-copy v5 ingest: columnar decode, the collector's
        header accounting (sequence tracking and duplicate suppression as
        in :meth:`FlowCollector.receive`), then the whole datagram into
        the queue.  Decode failures land in the collector's decode-error
        accounting exactly as they do there."""
        watch = Stopwatch()
        try:
            header, batch = decode_v5_columnar(data)
        except NetFlowError as error:
            self.collector.note_decode_error(source, str(error))
            return 0
        self._observe_decode(watch.elapsed_s(), len(batch))
        if not self.collector.receive_decoded(header, batch, source=source):
            return 0
        self.queue.put_batch(batch)
        return len(batch)

    def _observe_decode(self, elapsed_s: float, n_records: int) -> None:
        """Record one columnar datagram decode (latency + record count)."""
        self._m_decode_s.observe(elapsed_s)
        self._m_decode_ns.inc(elapsed_s * 1e9)
        self._m_decoded_records.inc(n_records)


class NetFlowDatagramProtocol(asyncio.DatagramProtocol):
    """The asyncio protocol bound to the NetFlow export socket.

    The UDP source port is forwarded as the collector's exporter
    identity, so per-exporter sequence tracking works exactly as it does
    for the simulated transport (where the testbed uses port numbers
    too).
    """

    def __init__(self, router: DatagramRouter) -> None:
        self.router = router
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        # The event loop hands the concrete selector/proactor transport;
        # it implements the DatagramTransport surface without always
        # inheriting the ABC, so an isinstance check would misfire.
        self.transport = cast(asyncio.DatagramTransport, transport)

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        self.router.route(data, source=addr[1])

    def error_received(self, exc: Exception) -> None:
        log.warning("UDP socket error", extra={"reason": str(exc)})
