"""The complete Figure 9 deployment, wired end to end.

:class:`Deployment` assembles the operational system the paper draws:
NetFlow-enabled border routers (one :class:`FlowExporter` each) feeding
v5 datagrams — optionally through an impaired UDP path — into a
:class:`FlowCollector`, demultiplexed per peer AS by UDP port, assessed
by the :class:`EnhancedInFilter`, with IDMEF alerts accumulating in a
:class:`TracebackAnalyzer`.

Callers interact at the packet level (:meth:`observe_packet`) or the
record level (:meth:`ingest_records`), and read alerts/trace-back at any
point.  Periodic model refresh (the paper's "training phase could be
performed periodically") is available through :meth:`retrain`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence

from repro.core.alerts import IdmefAlert
from repro.core.config import PipelineConfig
from repro.core.pipeline import Decision, EnhancedInFilter, Verdict
from repro.core.traceback import IngressReport, TracebackAnalyzer
from repro.netflow.collector import FlowCollector, PortMux
from repro.netflow.exporter import ExporterConfig, FlowExporter, Packet
from repro.netflow.records import FlowRecord
from repro.netflow.transport import ChannelConfig, ChannelStats, UdpChannel
from repro.netflow.v5 import datagrams_for
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
    """An operational Enhanced InFilter installation."""

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
        self.detector = EnhancedInFilter(config, rng=self._rng.fork("detector"))
        self.collector = FlowCollector()
        self.mux = PortMux()
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
        self.decisions: List[Decision] = []
        self.collector.add_sink(self._on_record)

    # -- provisioning ---------------------------------------------------------

    def add_border_router(
        self,
        name: str,
        peer: int,
        expected_sources: Iterable[Prefix],
        *,
        udp_port: Optional[int] = None,
    ) -> BorderRouter:
        """Provision one BR: its peer identity, export port, EIA blocks."""
        if peer in self._routers:
            raise ExperimentError(f"peer {peer} already has a border router")
        port = udp_port if udp_port is not None else 9_000 + peer
        router = BorderRouter(
            name=name,
            peer=peer,
            udp_port=port,
            exporter=FlowExporter(self._exporter_config),
        )
        self.mux.bind(port, peer)
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
        expired = router.exporter.observe(packet)
        if expired:
            self._ship(router, expired)

    def sweep(self, now_ms: int) -> None:
        """Run expiry at every BR (periodic housekeeping)."""
        for router in self._routers.values():
            expired = router.exporter.sweep(now_ms)
            if expired:
                self._ship(router, expired)

    def flush(self) -> None:
        """Force-export every BR's cache (end of run)."""
        for router in self._routers.values():
            expired = router.exporter.flush()
            if expired:
                self._ship(router, expired)

    def ingest_records(self, peer: int, records: Sequence[FlowRecord]) -> None:
        """Bypass packet accounting: ship pre-built records from a BR
        (the Dagflow-style path)."""
        self._ship(self._router_for(peer), list(records))

    def _router_for(self, peer: int) -> BorderRouter:
        try:
            return self._routers[peer]
        except KeyError:
            raise ExperimentError(f"no border router for peer {peer}") from None

    def _ship(self, router: BorderRouter, records: List[FlowRecord]) -> None:
        last = records[-1].last
        datagrams = datagrams_for(
            iter(records),
            sys_uptime=last,
            unix_secs=0,
            initial_sequence=router.flow_sequence,
        )
        router.flow_sequence += len(records)
        stream: Iterable[bytes] = datagrams
        if self._channel is not None:
            stream = self._channel.transmit(datagrams)
        self._current_port = router.udp_port
        for datagram in stream:
            self.collector.receive(datagram, source=router.udp_port)

    def _on_record(self, record: FlowRecord) -> None:
        record = self.mux.demux(record, self._current_port)
        decision = self.detector.process(record)
        self.decisions.append(decision)
        if decision.alert is not None:
            self.traceback.consume(decision.alert)
        elif decision.verdict == Verdict.LEGAL:
            self._reservoir.append(record)

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
