"""The cluster supervisor: N shard workers, one front, one view.

:class:`ClusterSupervisor` owns the whole multi-process deployment:

* it spawns one :mod:`repro.cluster.worker` process per shard, each
  restored from its own checkpoint under the cluster state dir;
* it binds the front UDP socket and steers every incoming NetFlow v5
  datagram through the :class:`~repro.cluster.director.FlowDirector`,
  so each record reaches the worker that owns its source block;
* it federates the workers' ``/stats.json`` snapshots (plus its own
  registry) into one ``worker``-labelled registry served from a single
  observability endpoint;
* it performs **supervised restart**: when a worker dies uncleanly the
  shard is paused, a fresh process is spawned from that worker's own
  checkpoint, the routed stream is replayed from the checkpoint cursor,
  and the shard resumes — the restarted worker converges to the exact
  state a crash-free run would have reached;
* on SIGTERM (or :meth:`request_drain`) it stops the front, waits for
  every worker to consume what was routed to it, drains each worker
  gracefully, and reconciles record fate end to end in the
  :class:`ClusterReport`.

Every worker is seeded from the *same* initial detector
(:func:`seed_cluster_state`): shard-affine routing guarantees their
EIA/scan state evolves on disjoint source blocks, so the union of their
alert streams is equivalent to one serial ``process_all`` over the same
input (see ``docs/operations.md`` for the scan-locality boundary of
that guarantee).
"""

from __future__ import annotations

import signal
import socket
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import asyncio

from repro.cluster.config import ClusterConfig
from repro.cluster.director import FlowDirector
from repro.cluster.federation import (
    DIRECTOR_LABEL,
    canonical_alerts,
    federate,
    fetch_json,
)
from repro.cluster.router import ShardRouter
from repro.cluster.worker import WorkerSpec, spawn_worker
from repro.core.alerts import IdmefAlert
from repro.core.persistence import (
    load_cluster_manifest,
    save_cluster_manifest,
    save_detector,
    worker_checkpoint_path,
)
from repro.core.pipeline import EnhancedInFilter
from repro.obs import (
    MetricsRegistry,
    get_logger,
    get_registry,
    load_snapshot,
)
from repro.serve.daemon import ServeReport
from repro.serve.http import ObservabilityEndpoint
from repro.util.errors import ClusterError, ConfigError

__all__ = ["ClusterReport", "ClusterSupervisor", "seed_cluster_state"]

log = get_logger(__name__)

#: Drain/consumption poll cadence, in seconds.
_POLL_S = 0.05
#: How long a (re)spawned worker may take to come up, in seconds.
_SPAWN_TIMEOUT_S = 60.0


def seed_cluster_state(
    detector: EnhancedInFilter,
    state_dir: str,
    *,
    workers: int,
) -> None:
    """Write a fresh cluster state dir: N worker checkpoints + manifest.

    Every worker starts from the same trained detector; shard-affine
    routing keeps their live state on disjoint source blocks from then
    on.  Seed from a detector that has not served traffic yet — a
    checkpoint carrying alert history would replicate that history into
    every worker.
    """
    Path(state_dir).mkdir(parents=True, exist_ok=True)
    for worker in range(workers):
        save_detector(
            detector,
            worker_checkpoint_path(state_dir, worker, workers),
            cursor=0,
        )
    save_cluster_manifest(
        state_dir,
        workers=workers,
        granularity=detector.config.eia.granularity,
    )


@dataclass(frozen=True)
class ClusterReport:
    """What one cluster run received, committed, and sacrificed."""

    workers: int
    restarts: int
    datagrams: int
    datagrams_invalid: int
    records_routed: int
    records_replayed: int
    records_collected: int
    records_enqueued: int
    records_shed: int
    #: Distinct records committed across all workers (sum of cursors).
    records_committed: int
    #: routed − committed − shed: transport loss plus anything a worker
    #: that died without reporting took with it.
    records_unaccounted: int
    batches: int
    checkpoints: int
    lost_flows: int
    alerts: int
    worker_cursors: Tuple[int, ...]

    def describe(self) -> str:
        """One operator-facing summary line."""
        return (
            f"cluster: {self.records_committed} committed across"
            f" {self.workers} workers ({self.restarts} restarts);"
            f" {self.records_routed} routed, {self.records_replayed}"
            f" replayed, {self.records_shed} shed,"
            f" {self.records_unaccounted} unaccounted;"
            f" {self.checkpoints} checkpoints, {self.alerts} alerts"
        )


@dataclass
class _WorkerHandle:
    """Supervisor-side view of one worker incarnation."""

    shard: int
    spec: WorkerSpec
    process: BaseProcess
    conn: Connection
    ready: asyncio.Event
    done: asyncio.Event
    state: str = "starting"
    udp: Optional[Tuple[str, int]] = None
    http: Optional[Tuple[str, int]] = None
    #: Checkpoint cursor the live incarnation restored from.
    cursor: int = 0
    #: Most recent cursor observed (handshake, health poll, or report).
    last_cursor: int = 0
    report: Optional[ServeReport] = None
    alerts: List[IdmefAlert] = field(default_factory=list)
    error: Optional[str] = None
    restarts: int = 0
    pipe_fd: Optional[int] = None
    sentinel_fd: Optional[int] = None


class _FrontProtocol(asyncio.DatagramProtocol):
    """The front UDP endpoint: every datagram goes to the director."""

    def __init__(self, supervisor: "ClusterSupervisor") -> None:
        self._supervisor = supervisor

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        self._supervisor._on_datagram(data)

    def error_received(self, exc: Exception) -> None:
        # ICMP unreachable from a worker that just died; the replay
        # path re-sends anything it had not consumed.
        pass


class ClusterSupervisor:
    """Runs the shard-affine worker fleet behind one flow director."""

    def __init__(
        self,
        config: ClusterConfig,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else get_registry()
        manifest = load_cluster_manifest(config.state_dir)
        if manifest is None:
            raise ConfigError(
                f"state dir {config.state_dir!r} has no cluster manifest;"
                " seed it with seed_cluster_state() (the CLI does this"
                " when given a training plan or --load-state)"
            )
        if manifest["workers"] != config.workers:
            raise ConfigError(
                "checkpoint composition mismatch: state dir"
                f" {config.state_dir!r} holds checkpoints for"
                f" {manifest['workers']} workers but this run requested"
                f" --workers {config.workers}; rerun with --workers"
                f" {manifest['workers']} or re-seed the state dir"
            )
        for worker in range(config.workers):
            path = worker_checkpoint_path(
                config.state_dir, worker, config.workers
            )
            if not path.exists():
                raise ConfigError(
                    f"state dir {config.state_dir!r} is missing the"
                    f" checkpoint for worker {worker} ({path.name})"
                )
        self.router = ShardRouter(config.workers, manifest["granularity"])
        self.director = FlowDirector(
            self.router,
            send=self._send_front,
            registry=self.registry,
            keep_log=config.replay_log,
        )
        self.http = (
            ObservabilityEndpoint(
                health=self.health,
                registry=self.registry,
                registry_provider=self.federated_registry,
            )
            if config.http_port is not None
            else None
        )
        #: Bound front UDP address, available once serving.
        self.address: Optional[Tuple[str, int]] = None
        #: Bound federated HTTP address, when enabled.
        self.http_address: Optional[Tuple[str, int]] = None
        self._handles: List[_WorkerHandle] = []
        self._snapshots: Dict[str, MetricsRegistry] = {}
        self._front_transport: Optional[asyncio.DatagramTransport] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = asyncio.Event()
        self._drain_requested = asyncio.Event()
        self._draining = False
        self._fatal: Optional[BaseException] = None
        self._restart_tasks: List["asyncio.Task[None]"] = []
        self._last_activity = 0.0
        self._state = "created"
        self._m_workers = self.registry.gauge(
            "infilter_cluster_workers",
            "Configured shard worker count of the serving cluster.",
        )
        self._m_live = self.registry.gauge(
            "infilter_cluster_workers_live",
            "Worker processes currently alive.",
        )
        self._m_restarts = self.registry.counter(
            "infilter_cluster_restarts_total",
            "Supervised restarts of crashed workers, per shard.",
            ("worker",),
        )
        self._m_scrapes = self.registry.counter(
            "infilter_cluster_federation_scrapes_total",
            "Federation polls of worker stats endpoints, by outcome.",
            ("worker", "outcome"),
        )
        self._m_workers.set(config.workers)

    # -- observability -------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """The federated ``/healthz`` document."""
        stats = self.director.stats()
        return {
            "state": self._state,
            "workers": self.config.workers,
            "workers_live": sum(
                1 for handle in self._handles if handle.state == "serving"
            ),
            "restarts": sum(handle.restarts for handle in self._handles),
            "datagrams": stats.datagrams,
            "records_routed": stats.records_routed,
            "records_replayed": stats.records_replayed,
            "worker_cursors": [
                handle.last_cursor for handle in self._handles
            ],
        }

    def worker_pid(self, shard: int) -> Optional[int]:
        """PID of the current worker process for ``shard``, if spawned."""
        for handle in self._handles:
            if handle.shard == shard:
                return handle.process.pid
        return None

    def federated_registry(self) -> MetricsRegistry:
        """The cluster view: every source under its ``worker`` label."""
        sources: Dict[str, MetricsRegistry] = {DIRECTOR_LABEL: self.registry}
        sources.update(self._snapshots)
        return federate(sources)

    def merged_alerts(self) -> List[IdmefAlert]:
        """All workers' alerts, canonically ordered and renumbered."""
        combined: List[IdmefAlert] = []
        for handle in self._handles:
            combined.extend(handle.alerts)
        return canonical_alerts(combined)

    def report(self) -> ClusterReport:
        """The run so far, as one immutable summary."""
        stats = self.director.stats()
        reports = [
            handle.report
            for handle in self._handles
            if handle.report is not None
        ]
        committed = sum(handle.last_cursor for handle in self._handles)
        shed = sum(report.records_shed for report in reports)
        return ClusterReport(
            workers=self.config.workers,
            restarts=sum(handle.restarts for handle in self._handles),
            datagrams=stats.datagrams,
            datagrams_invalid=stats.datagrams_invalid,
            records_routed=stats.records_routed,
            records_replayed=stats.records_replayed,
            records_collected=sum(r.records_collected for r in reports),
            records_enqueued=sum(r.records_enqueued for r in reports),
            records_shed=shed,
            records_committed=committed,
            records_unaccounted=stats.records_routed - committed - shed,
            batches=sum(r.batches for r in reports),
            checkpoints=sum(r.checkpoints for r in reports),
            lost_flows=sum(r.lost_flows for r in reports),
            alerts=len(self.merged_alerts()),
            worker_cursors=tuple(
                handle.last_cursor for handle in self._handles
            ),
        )

    # -- control -------------------------------------------------------------

    async def wait_started(self) -> None:
        """Block until the front endpoint is bound and serving."""
        await self._started.wait()

    def request_drain(self) -> None:
        """The SIGTERM path: stop the front, drain every worker, exit."""
        if self._draining:
            return
        self._draining = True
        self._state = "draining"
        log.info("cluster drain requested")
        if self._front_transport is not None:
            self._front_transport.close()
            self._front_transport = None
        self._drain_requested.set()

    # -- the data path -------------------------------------------------------

    def _send_front(self, data: bytes, address: Tuple[str, int]) -> None:
        if self._front_transport is None:
            raise ClusterError("cluster front transport is not bound")
        self._front_transport.sendto(data, address)

    def _on_datagram(self, data: bytes) -> None:
        if self._draining:
            return
        if self._loop is not None:
            self._last_activity = self._loop.time()
        try:
            self.director.route_datagram(data)
        except ClusterError as error:
            self._fatal = error
            self.request_drain()
            return
        limit = self.config.max_records
        if (
            limit is not None
            and self.director.stats().records_routed >= limit
        ):
            self.request_drain()

    # -- worker lifecycle ----------------------------------------------------

    def _spec_for(self, shard: int) -> WorkerSpec:
        checkpoint = worker_checkpoint_path(
            self.config.state_dir, shard, self.config.workers
        )
        return WorkerSpec(
            worker=shard,
            workers=self.config.workers,
            checkpoint_path=str(checkpoint),
            host=self.config.host,
            queue_capacity=self.config.queue_capacity,
            shed_policy=self.config.shed_policy,
            batch_size=self.config.batch_size,
            batch_linger_s=self.config.batch_linger_s,
            checkpoint_every=self.config.checkpoint_every,
            recv_buffer_bytes=self.config.recv_buffer_bytes,
        )

    def _start_worker(self, shard: int) -> _WorkerHandle:
        spec = self._spec_for(shard)
        process, conn = spawn_worker(spec)
        handle = _WorkerHandle(
            shard=shard,
            spec=spec,
            process=process,
            conn=conn,
            ready=asyncio.Event(),
            done=asyncio.Event(),
        )
        self._watch(handle)
        return handle

    def _watch(self, handle: _WorkerHandle) -> None:
        assert self._loop is not None
        handle.pipe_fd = handle.conn.fileno()
        handle.sentinel_fd = handle.process.sentinel
        self._loop.add_reader(handle.pipe_fd, self._on_pipe, handle)
        self._loop.add_reader(handle.sentinel_fd, self._on_exit, handle)

    def _unwatch_pipe(self, handle: _WorkerHandle) -> None:
        if self._loop is not None and handle.pipe_fd is not None:
            self._loop.remove_reader(handle.pipe_fd)
        handle.pipe_fd = None
        try:
            handle.conn.close()
        except OSError:
            pass

    def _on_pipe(self, handle: _WorkerHandle) -> None:
        try:
            message = handle.conn.recv()
        except (EOFError, OSError):
            self._unwatch_pipe(handle)
            return
        kind, payload = message
        if kind == "ready":
            handle.udp = (str(payload["udp"][0]), int(payload["udp"][1]))
            handle.http = (str(payload["http"][0]), int(payload["http"][1]))
            handle.cursor = int(payload["cursor"])
            handle.last_cursor = max(handle.last_cursor, handle.cursor)
            handle.state = "serving"
            handle.ready.set()
        elif kind == "done":
            report = payload["report"]
            assert isinstance(report, ServeReport)
            handle.report = report
            handle.alerts = list(payload["alerts"])
            handle.last_cursor = report.cursor
            handle.state = "done"
            handle.done.set()
        elif kind == "failed":
            handle.error = str(payload["error"])
            handle.state = "failed"
            handle.ready.set()
            handle.done.set()

    def _on_exit(self, handle: _WorkerHandle) -> None:
        if self._loop is not None and handle.sentinel_fd is not None:
            self._loop.remove_reader(handle.sentinel_fd)
        handle.sentinel_fd = None
        self._m_live.set(
            sum(
                1
                for peer in self._handles
                if peer.process.is_alive()
            )
        )
        if handle.state in ("done", "failed") or self._draining:
            return
        handle.state = "dead"
        log.warning(
            "worker died unexpectedly",
            extra={"worker": handle.shard},
        )
        assert self._loop is not None
        self._restart_tasks.append(
            self._loop.create_task(self._restart(handle))
        )

    async def _restart(self, handle: _WorkerHandle) -> None:
        shard = handle.shard
        self.director.pause(shard)
        self._unwatch_pipe(handle)
        handle.process.join()
        handle.restarts += 1
        self._m_restarts.labels(worker=str(shard)).inc()
        if handle.restarts > self.config.restart_limit:
            self._fatal = ClusterError(
                f"worker {shard} exceeded the restart limit"
                f" ({self.config.restart_limit}); draining the cluster"
            )
            self.request_drain()
            return
        process, conn = spawn_worker(handle.spec)
        handle.process = process
        handle.conn = conn
        handle.ready = asyncio.Event()
        handle.done = asyncio.Event()
        handle.state = "starting"
        handle.report = None
        self._watch(handle)
        try:
            await asyncio.wait_for(handle.ready.wait(), _SPAWN_TIMEOUT_S)
        except asyncio.TimeoutError:
            self._fatal = ClusterError(
                f"restarted worker {shard} did not come up within"
                f" {_SPAWN_TIMEOUT_S}s"
            )
            self.request_drain()
            return
        if handle.state == "failed":
            self._fatal = ClusterError(
                f"restarted worker {shard} failed: {handle.error}"
            )
            self.request_drain()
            return
        assert handle.udp is not None
        self.director.set_target(shard, handle.udp)
        replayed = self.director.replay(shard, handle.cursor)
        self.director.resume(shard)
        self._m_live.set(
            sum(
                1
                for peer in self._handles
                if peer.process.is_alive()
            )
        )
        log.info(
            "worker restarted from its checkpoint",
            extra={
                "worker": shard,
                "cursor": handle.cursor,
                "replayed": replayed,
            },
        )

    # -- federation ----------------------------------------------------------

    async def _scrape_workers(self) -> None:
        for handle in self._handles:
            if handle.state != "serving" or handle.http is None:
                continue
            label = str(handle.shard)
            try:
                document = await fetch_json(
                    handle.http[0], handle.http[1], "/stats.json"
                )
            except ClusterError:
                self._m_scrapes.labels(worker=label, outcome="error").inc()
                continue
            try:
                self._snapshots[label] = load_snapshot(document)
            except Exception:  # noqa: BLE001 - a torn scrape must not kill us
                self._m_scrapes.labels(worker=label, outcome="error").inc()
                continue
            self._m_scrapes.labels(worker=label, outcome="ok").inc()

    async def _federation_poll(self) -> None:
        while True:
            await asyncio.sleep(self.config.poll_interval_s)
            await self._scrape_workers()

    async def _idle_watchdog(self) -> None:
        idle_limit = self.config.idle_exit_s
        assert idle_limit is not None
        assert self._loop is not None
        while True:
            await asyncio.sleep(_POLL_S)
            if self._loop.time() - self._last_activity >= idle_limit:
                log.info("cluster idle limit reached; draining")
                self.request_drain()
                return

    # -- the run -------------------------------------------------------------

    async def run(self) -> ClusterReport:
        """Serve until drained; returns the cluster run report."""
        if self._state != "created":
            raise ClusterError(
                f"supervisor cannot run from state {self._state!r}"
            )
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._last_activity = loop.time()
        self._state = "starting"
        self._handles = [
            self._start_worker(shard)
            for shard in range(self.config.workers)
        ]
        try:
            await asyncio.wait_for(
                asyncio.gather(
                    *(handle.ready.wait() for handle in self._handles)
                ),
                _SPAWN_TIMEOUT_S,
            )
        except asyncio.TimeoutError:
            for handle in self._handles:
                self._terminate(handle)
            raise ClusterError(
                f"workers did not come up within {_SPAWN_TIMEOUT_S}s"
            ) from None
        failed = [h for h in self._handles if h.state == "failed"]
        if failed:
            for handle in self._handles:
                self._terminate(handle)
            raise ClusterError(
                f"worker {failed[0].shard} failed to start:"
                f" {failed[0].error}"
            )
        self._m_live.set(self.config.workers)
        transport, _protocol = await loop.create_datagram_endpoint(
            lambda: _FrontProtocol(self),
            local_addr=(self.config.host, self.config.port),
        )
        self._front_transport = transport
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
        for handle in self._handles:
            assert handle.udp is not None
            self.director.set_target(handle.shard, handle.udp)
        if self.http is not None and self.config.http_port is not None:
            self.http_address = await self.http.start(
                self.config.host, self.config.http_port
            )
        handled_signals = self._install_signal_handlers(loop)
        poller = loop.create_task(self._federation_poll())
        watchdog: Optional["asyncio.Task[None]"] = None
        if self.config.idle_exit_s is not None:
            watchdog = loop.create_task(self._idle_watchdog())
        self._state = "serving"
        self._started.set()
        log.info(
            "cluster serving",
            extra={
                "host": self.address[0],
                "port": self.address[1],
                "workers": self.config.workers,
            },
        )
        try:
            await self._drain_requested.wait()
            self._state = "draining"
            if self._front_transport is not None:
                self._front_transport.close()
                self._front_transport = None
            if watchdog is not None:
                watchdog.cancel()
                watchdog = None
            for task in self._restart_tasks:
                if not task.done():
                    await task
            for handle in self._handles:
                await self._await_consumed(handle)
            await self._scrape_workers()
            poller.cancel()
            for handle in self._handles:
                self._terminate(handle)
            deadline = self.config.drain_timeout_s
            results = await asyncio.gather(
                *(
                    asyncio.wait_for(handle.done.wait(), deadline)
                    for handle in self._handles
                ),
                return_exceptions=True,
            )
            for handle, outcome in zip(self._handles, results):
                if isinstance(outcome, BaseException):
                    log.warning(
                        "worker did not drain in time; killing",
                        extra={"worker": handle.shard},
                    )
                    handle.process.kill()
                handle.process.join()
        finally:
            self._state = "stopped"
            if watchdog is not None:
                watchdog.cancel()
            if not poller.done():
                poller.cancel()
            for signum in handled_signals:
                loop.remove_signal_handler(signum)
            if self._front_transport is not None:
                self._front_transport.close()
                self._front_transport = None
            for handle in self._handles:
                self._unwatch_pipe(handle)
                if self._loop is not None and handle.sentinel_fd is not None:
                    self._loop.remove_reader(handle.sentinel_fd)
                    handle.sentinel_fd = None
            if self.http is not None:
                await self.http.stop()
            self._m_live.set(0)
        if self._fatal is not None:
            raise self._fatal
        report = self.report()
        log.info("cluster drained", extra={"alerts": report.alerts})
        return report

    def _terminate(self, handle: _WorkerHandle) -> None:
        if handle.process.is_alive():
            handle.process.terminate()

    async def _await_consumed(self, handle: _WorkerHandle) -> None:
        """Wait until a worker has eaten everything routed to its shard.

        The condition is record-fate exact: the worker's global cursor
        plus its shed count must reach the director's routed count for
        the shard, with an empty queue.  UDP loss would keep that from
        converging, so the wait is bounded by ``drain_timeout_s`` and a
        timeout surfaces as ``records_unaccounted`` in the report.
        """
        assert self._loop is not None
        deadline = self._loop.time() + self.config.drain_timeout_s
        while self._loop.time() < deadline:
            if handle.state != "serving" or handle.http is None:
                return
            target = self.director.routed_to(handle.shard)
            try:
                health = await fetch_json(
                    handle.http[0], handle.http[1], "/healthz", timeout_s=1.0
                )
            except ClusterError:
                await asyncio.sleep(_POLL_S)
                continue
            cursor = int(health["cursor"])  # type: ignore[arg-type]
            shed = int(health["records_shed"])  # type: ignore[arg-type]
            depth = int(health["queue_depth"])  # type: ignore[arg-type]
            handle.last_cursor = max(handle.last_cursor, cursor)
            # Under either shed policy, cursor + shed converges to the
            # checkpoint base plus everything the collector offered.
            if depth == 0 and cursor + shed >= target:
                return
            await asyncio.sleep(_POLL_S)
        log.warning(
            "drain timeout: worker did not consume its routed stream",
            extra={"worker": handle.shard},
        )

    def _install_signal_handlers(
        self, loop: asyncio.AbstractEventLoop
    ) -> List[signal.Signals]:
        installed: List[signal.Signals] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                continue
            installed.append(signum)
        return installed
