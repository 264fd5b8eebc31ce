"""The complete Figure 9 deployment, driven through the serve data path.

:class:`Deployment` assembles the operational system the paper draws:
NetFlow-enabled border routers (one :class:`FlowExporter` each) export
v5 datagrams — optionally through an impaired UDP path — to a
:class:`~repro.serve.daemon.ServeDaemon` that is built but never run:
its router, ingest queue and commit worker assess every ship before
:meth:`observe_packet` / :meth:`ingest_records` return.  Alerts feed a
:class:`TracebackAnalyzer`; :meth:`retrain` is the paper's periodic
training phase, over a bounded reservoir of legal flows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence

from repro.core.alerts import IdmefAlert
from repro.core.config import PipelineConfig
from repro.core.pipeline import EnhancedInFilter, Verdict
from repro.core.traceback import IngressReport, TracebackAnalyzer
from repro.netflow.exporter import ExporterConfig, FlowExporter, Packet
from repro.netflow.records import FlowRecord
from repro.netflow.transport import ChannelConfig, ChannelStats, UdpChannel
from repro.netflow.v5 import datagrams_for
from repro.serve.daemon import ServeDaemon
from repro.serve.queue import QueuedBatch
from repro.util.errors import ConfigError, ExperimentError
from repro.util.ip import Prefix
from repro.util.rng import SeededRng

__all__ = ["BorderRouter", "Deployment"]


@dataclass
class BorderRouter:
    """One NetFlow-enabled BR: an exporter bound to a UDP export port."""

    name: str
    peer: int
    udp_port: int
    exporter: FlowExporter
    flow_sequence: int = 0


class Deployment:
    """An operational Enhanced InFilter installation; record fates are
    ``daemon.report()``, verdict counts ``detector.stats``."""

    def __init__(
        self,
        config: PipelineConfig = PipelineConfig(),
        *,
        rng: Optional[SeededRng] = None,
        exporter_config: Optional[ExporterConfig] = None,
        channel_config: Optional[ChannelConfig] = None,
        retrain_reservoir: int = 5_000,
    ) -> None:
        if retrain_reservoir < 0:
            raise ConfigError("retrain_reservoir cannot be negative")
        self._rng = rng if rng is not None else SeededRng(9_2005, "deployment")
        self.daemon = ServeDaemon(
            EnhancedInFilter(config, rng=self._rng.fork("detector"))
        )
        self.traceback = TracebackAnalyzer()
        self._routers: Dict[int, BorderRouter] = {}
        self._exporter_config = exporter_config or ExporterConfig()
        self._channel = (
            UdpChannel(channel_config, rng=self._rng.fork("channel"))
            if channel_config is not None
            else None
        )
        # The newest benign flows, at most `retrain_reservoir` of them.
        self._reservoir: Deque[FlowRecord] = deque(maxlen=retrain_reservoir)

    @property
    def detector(self) -> EnhancedInFilter:
        return self.daemon.detector

    # -- provisioning ---------------------------------------------------------

    def add_border_router(
        self,
        name: str,
        peer: int,
        expected_sources: Iterable[Prefix],
        *,
        udp_port: Optional[int] = None,
    ) -> BorderRouter:
        """Provision one BR: its peer identity, export port (one per BR:
        the collector tracks sequence numbers per port), EIA blocks."""
        if peer in self._routers:
            raise ExperimentError(f"peer {peer} already has a border router")
        port = udp_port if udp_port is not None else 9_000 + peer
        if any(other.udp_port == port for other in self._routers.values()):
            raise ExperimentError(f"UDP port {port} already has a border router")
        router = BorderRouter(
            name=name,
            peer=peer,
            udp_port=port,
            exporter=FlowExporter(self._exporter_config),
        )
        self.detector.preload_eia(peer, expected_sources)
        self._routers[peer] = router
        return router

    def routers(self) -> Sequence[BorderRouter]:
        return list(self._routers.values())

    def train(self, records: Sequence[FlowRecord]) -> None:
        """Initial model training (Section 5.1.3 (b)-(d))."""
        self.detector.train(records)
        self._reservoir.extend(records)

    # -- data plane --------------------------------------------------------------

    def observe_packet(self, peer: int, packet: Packet) -> None:
        """Account one packet at a BR; expired flows ship immediately."""
        router = self._router_for(peer)
        self._ship(router, router.exporter.observe(packet))

    def sweep(self, now_ms: int) -> None:
        """Run expiry at every BR (periodic housekeeping)."""
        for router in self._routers.values():
            self._ship(router, router.exporter.sweep(now_ms))

    def flush(self) -> None:
        """Force-export every BR's cache (end of run)."""
        for router in self._routers.values():
            self._ship(router, router.exporter.flush())

    def ingest_records(self, peer: int, records: Sequence[FlowRecord]) -> None:
        """Bypass packet accounting: ship pre-built records from a BR
        (the Dagflow-style path)."""
        self._ship(self._router_for(peer), records)

    def _router_for(self, peer: int) -> BorderRouter:
        try:
            return self._routers[peer]
        except KeyError:
            raise ExperimentError(f"no border router for peer {peer}") from None

    def _ship(self, router: BorderRouter, records: Sequence[FlowRecord]) -> None:
        """Export ``records`` and commit what arrives: a batch whenever
        the queue holds one, then the rest — nothing stays queued."""
        if not records:
            return
        # A BR exports its peer-facing ifIndex; v5 carries it.
        stamped = [record.with_key(input_if=router.peer) for record in records]
        datagrams = datagrams_for(
            iter(stamped),
            sys_uptime=stamped[-1].last,
            unix_secs=0,
            initial_sequence=router.flow_sequence,
        )
        router.flow_sequence += len(stamped)
        stream: Iterable[bytes] = datagrams
        if self._channel is not None:
            stream = self._channel.transmit(datagrams)
        route, queue = self.daemon.router.route, self.daemon.queue
        size = self.daemon.config.batch_size
        for datagram in stream:
            route(datagram, source=router.udp_port)
            while len(queue) >= size:
                self._commit(queue.take_nowait(size))
        while len(queue):
            self._commit(queue.take_nowait(size))

    def _commit(self, batch: QueuedBatch) -> None:
        """Commit one batch: alerts to trace-back, legal rows to the
        benign reservoir."""
        decisions = iter(self.daemon.worker.commit(batch).decisions)
        for columns, start, stop in batch.slices:
            for index in range(start, stop):
                decision = next(decisions)
                if decision.alert is not None:
                    self.traceback.consume(decision.alert)
                elif decision.verdict == Verdict.LEGAL:
                    self._reservoir.append(columns.record_at(index))

    # -- control plane ---------------------------------------------------------

    def retrain(self) -> int:
        """Rebuild the cluster model from the benign reservoir.

        Returns the number of flows used.  Implements the paper's
        periodic re-training: the model tracks what "normal" currently
        looks like without operator-supplied traces.
        """
        if not self._reservoir:
            raise ExperimentError("nothing in the benign reservoir to retrain on")
        self.detector.train(list(self._reservoir))
        return len(self._reservoir)

    def alerts(self) -> List[IdmefAlert]:
        return list(self.detector.alert_sink.alerts)

    def ingress_report(self) -> IngressReport:
        return self.traceback.report()

    def channel_stats(self) -> Optional[ChannelStats]:
        """Transport impairment counters (None without a channel)."""
        return self._channel.stats if self._channel is not None else None
