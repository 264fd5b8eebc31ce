"""The live serving daemon: the paper's Figure 9 deployment, online.

:class:`ServeDaemon` wires the serve subsystem together around one
event loop:

* a UDP endpoint (:mod:`repro.serve.listener`) receives real NetFlow
  v5/v1 datagrams and feeds decoded records into
* a bounded :class:`~repro.serve.queue.IngestQueue` with explicit
  backpressure and load shedding, drained by
* a :class:`~repro.serve.worker.CommitWorker` that micro-batches records
  through the authoritative detector and takes batch-boundary
  checkpoints, while
* an optional :class:`~repro.serve.http.ObservabilityEndpoint` serves
  ``/healthz``, ``/metrics``, and ``/stats.json``.

Lifecycle signals follow daemon conventions: **SIGTERM/SIGINT** trigger
a graceful drain (stop the listener, commit everything queued, write a
final atomic checkpoint, exit); **SIGHUP** hot-reloads the detector
from the configured reload path at the next batch boundary.  All three
are also exposed as methods (:meth:`request_shutdown`,
:meth:`request_reload`) so embedding code — and tests — can drive the
same transitions without a kernel in the loop.
"""

from __future__ import annotations

import signal
import socket
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import asyncio

from repro.core.persistence import CheckpointWriter
from repro.core.pipeline import EnhancedInFilter
from repro.obs import MetricsRegistry, get_logger, get_registry
from repro.serve.config import ServeConfig
from repro.serve.http import ObservabilityEndpoint
from repro.serve.listener import DatagramRouter, NetFlowDatagramProtocol
from repro.serve.queue import IngestQueue
from repro.serve.worker import CommitWorker
from repro.util.errors import ServeError

__all__ = ["ServeReport", "ServeDaemon"]

log = get_logger(__name__)

#: How often the idle watchdog looks at the activity clock, in seconds.
_IDLE_POLL_S = 0.05


@dataclass(frozen=True)
class ServeReport:
    """What one daemon run received, committed, and sacrificed."""

    datagrams_v5: int
    datagrams_v1: int
    datagrams_invalid: int
    records_collected: int
    records_enqueued: int
    records_shed: int
    records_committed: int
    cursor: int
    batches: int
    checkpoints: int
    reloads: int
    lost_flows: int
    duplicate_datagrams: int
    alerts: int

    def describe(self) -> str:
        """One operator-facing summary line."""
        return (
            f"serve: {self.records_committed} committed in {self.batches}"
            f" batches (cursor {self.cursor});"
            f" {self.records_shed} shed, {self.lost_flows} lost in"
            f" transport, {self.duplicate_datagrams} duplicate datagrams;"
            f" {self.checkpoints} checkpoints, {self.reloads} reloads,"
            f" {self.alerts} alerts"
        )


class ServeDaemon:
    """An always-on NetFlow collector + Enhanced InFilter commit loop.

    The detector is built (or restored) by the caller; the daemon owns
    its online lifetime.  ``cursor_base`` is the committed-record count
    a restored checkpoint already accounts for, carried into every
    checkpoint the daemon writes; ``writer`` is the
    :class:`~repro.core.persistence.CheckpointWriter` that restored the
    detector from ``config.checkpoint_path``, when one did.
    """

    def __init__(
        self,
        detector: EnhancedInFilter,
        config: Optional[ServeConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        cursor_base: int = 0,
        writer: Optional[CheckpointWriter] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        registry = registry if registry is not None else detector.registry
        self.registry = registry
        self.queue = IngestQueue(
            self.config.queue_capacity,
            shed_policy=self.config.shed_policy,
            registry=registry,
        )
        self.router = DatagramRouter(
            self.queue,
            registry=registry,
            on_activity=self._note_activity,
        )
        self.worker = CommitWorker(
            detector,
            self.queue,
            self.config,
            registry=registry,
            cursor_base=cursor_base,
            on_progress=self._on_progress,
            writer=writer,
        )
        self.http = (
            ObservabilityEndpoint(health=self.health, registry=registry)
            if self.config.http_port is not None
            else None
        )
        #: Bound UDP address, available once :meth:`run` is listening.
        self.address: Optional[Tuple[str, int]] = None
        #: Bound HTTP address, when the endpoint is enabled.
        self.http_address: Optional[Tuple[str, int]] = None
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = asyncio.Event()
        self._draining = False
        self._last_activity = 0.0
        self._state = "created"

    @property
    def detector(self) -> EnhancedInFilter:
        """The authoritative detector (tracks hot reloads)."""
        return self.worker.detector

    # -- health / reporting --------------------------------------------------

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` document: liveness plus drain visibility.

        ``detectors``/``ensemble_policy`` describe the live composition
        and track hot reloads (a SIGHUP checkpoint swap may recompose
        the ensemble).
        """
        return {
            "state": self._state,
            "detectors": list(self.detector.config.detectors),
            "ensemble_policy": self.detector.config.ensemble_policy,
            "queue_depth": len(self.queue),
            "queue_capacity": self.config.queue_capacity,
            "shed_policy": self.config.shed_policy,
            "records_enqueued": self.queue.stats.enqueued,
            "records_shed": self.queue.stats.shed,
            "records_committed": self.worker.committed,
            "cursor": self.worker.cursor,
            "batches": self.worker.batches,
            "checkpoints": self.worker.checkpoints,
            "reloads": self.worker.reloads,
        }

    def report(self) -> ServeReport:
        """The run so far, as one immutable summary."""
        collector = self.router.collector.stats
        return ServeReport(
            datagrams_v5=self.router.stats.v5_datagrams,
            datagrams_v1=self.router.stats.v1_datagrams,
            datagrams_invalid=self.router.stats.invalid_datagrams,
            records_collected=collector.records,
            records_enqueued=self.queue.stats.enqueued,
            records_shed=self.queue.stats.shed,
            records_committed=self.worker.committed,
            cursor=self.worker.cursor,
            batches=self.worker.batches,
            checkpoints=self.worker.checkpoints,
            reloads=self.worker.reloads,
            lost_flows=collector.lost_flows,
            duplicate_datagrams=collector.duplicates,
            alerts=len(self.detector.alert_sink.alerts),
        )

    # -- control -------------------------------------------------------------

    async def wait_started(self) -> None:
        """Block until the UDP endpoint is bound and serving."""
        await self._started.wait()

    def request_shutdown(self) -> None:
        """The SIGTERM path: stop ingest, drain the queue, exit.

        Idempotent and callable from signal handlers: it closes the UDP
        transport (no new datagrams), then closes the queue, which lets
        the commit worker drain everything already admitted and write
        the final checkpoint before :meth:`run` returns.
        """
        if self._draining:
            return
        self._draining = True
        self._state = "draining"
        log.info(
            "shutdown requested: draining",
            extra={"queued": len(self.queue)},
        )
        if self._transport is not None:
            self._transport.close()
        self.queue.close()

    def request_reload(self) -> None:
        """The SIGHUP path: hot-reload the detector between batches."""
        log.info("reload requested")
        self.worker.request_reload()

    def _note_activity(self) -> None:
        if self._loop is not None:
            self._last_activity = self._loop.time()

    def _on_progress(self) -> None:
        self._note_activity()
        limit = self.config.max_records
        if limit is not None and self.worker.committed >= limit:
            self.request_shutdown()

    # -- the run -------------------------------------------------------------

    async def run(self) -> ServeReport:
        """Serve until drained; returns the run report.

        Binds the UDP endpoint (and the HTTP endpoint when configured),
        installs signal handlers where the platform allows, and then
        awaits the commit worker — which only returns once
        :meth:`request_shutdown` has closed the queue and every admitted
        record is committed.
        """
        if self._state not in ("created",):
            raise ServeError(f"daemon cannot run from state {self._state!r}")
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._last_activity = loop.time()
        transport, _protocol = await loop.create_datagram_endpoint(
            lambda: NetFlowDatagramProtocol(self.router),
            local_addr=(self.config.host, self.config.port),
        )
        self._transport = transport
        if self.config.recv_buffer_bytes is not None:
            sock = transport.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_RCVBUF,
                    self.config.recv_buffer_bytes,
                )
        bound = transport.get_extra_info("sockname")
        self.address = (str(bound[0]), int(bound[1]))
        if self.http is not None and self.config.http_port is not None:
            self.http_address = await self.http.start(
                self.config.host, self.config.http_port
            )
        handled_signals = self._install_signal_handlers(loop)
        watchdog: Optional[asyncio.Task[None]] = None
        if self.config.idle_exit_s is not None:
            watchdog = loop.create_task(self._idle_watchdog())
        self._state = "serving"
        self._started.set()
        log.info(
            "serving NetFlow",
            extra={
                "host": self.address[0],
                "port": self.address[1],
                "batch_size": self.config.batch_size,
                "queue_capacity": self.config.queue_capacity,
                "shed_policy": self.config.shed_policy,
            },
        )
        try:
            await self.worker.run()
        finally:
            self._state = "stopped"
            if watchdog is not None:
                watchdog.cancel()
            for signum in handled_signals:
                loop.remove_signal_handler(signum)
            if self._transport is not None:
                self._transport.close()
            if self.http is not None:
                await self.http.stop()
        report = self.report()
        log.info("drained and stopped", extra={"cursor": report.cursor})
        return report

    def _install_signal_handlers(
        self, loop: asyncio.AbstractEventLoop
    ) -> List[signal.Signals]:
        installed: List[signal.Signals] = []
        wiring = (
            (signal.SIGTERM, self.request_shutdown),
            (signal.SIGINT, self.request_shutdown),
            (signal.SIGHUP, self.request_reload),
        )
        for signum, handler in wiring:
            try:
                loop.add_signal_handler(signum, handler)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main threads and non-POSIX platforms cannot install
                # loop signal handlers; the method API still works.
                continue
            installed.append(signum)
        return installed

    async def _idle_watchdog(self) -> None:
        idle_limit = self.config.idle_exit_s
        assert idle_limit is not None
        assert self._loop is not None
        while True:
            await asyncio.sleep(_IDLE_POLL_S)
            idle_for = self._loop.time() - self._last_activity
            if idle_for >= idle_limit and not len(self.queue):
                log.info(
                    "idle limit reached; draining",
                    extra={"idle_s": round(idle_for, 3)},
                )
                self.request_shutdown()
                return
