"""End-to-end tests for the live serving daemon (``repro.serve``).

The daemon's contracts under test:

* real NetFlow v5 datagrams over a real loopback UDP socket commit
  through the detector with serial-equivalent results;
* graceful drain — everything *admitted* to the ingest queue before a
  shutdown request is committed, and the final checkpoint is atomic and
  carries the cursor;
* warm restart — a run interrupted by a drain and resumed from its
  checkpoint emits an alert stream identical to an uninterrupted run
  (the headline acceptance property), including through a real SIGTERM
  delivered to an ``infilter serve`` subprocess;
* SIGHUP-style hot reload swaps the detector at a batch boundary and a
  bad reload source never takes the daemon down;
* the HTTP observability endpoint serves health, metrics, and stats;
* shed and loss counters reconcile with what was committed.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import List

import asyncio

import pytest

from repro.core.persistence import (
    load_checkpoint,
    load_detector,
    render_state,
    save_detector,
)
from repro.fastpath.columnar import RecordColumns
from repro.flowgen import Dagflow, generate_attack, synthesize_trace
from repro.netflow.records import PROTO_UDP, FlowKey, FlowRecord
from repro.netflow.v1 import encode_v1_datagram
from repro.netflow.v5 import datagrams_for
from repro.obs import MetricsRegistry
from repro.serve import (
    SHED_DROP_OLDEST,
    SHED_REJECT_NEWEST,
    CommitWorker,
    DatagramRouter,
    IngestQueue,
    ObservabilityEndpoint,
    ServeConfig,
    ServeDaemon,
)
from repro.serve.queue import QueuedBatch
from repro.util import SeededRng
from repro.util.errors import ServeError

from tests.conftest import make_detector

REPO_ROOT = Path(__file__).resolve().parents[1]
_SEED = 515


def plain_record(index=0):
    return FlowRecord(
        key=FlowKey(
            src_addr=index + 1, dst_addr=9, protocol=PROTO_UDP, dst_port=9_000
        ),
        packets=1,
        octets=64,
        first=0,
        last=10,
    )


@pytest.fixture(scope="module")
def serve_trace(eia_plan, target_prefix) -> List[FlowRecord]:
    """Legal traffic plus a Slammer flood from foreign blocks: traffic
    that must raise alerts, so alert-stream identity is a real check."""
    rng = SeededRng(31337, "serve-tests")
    records = []
    legal = Dagflow(
        "legal",
        target_prefix=target_prefix,
        udp_port=9000,
        source_blocks=eia_plan[0],
        rng=rng.fork("legal"),
    )
    records += [
        lr.record.with_key(input_if=0)
        for lr in legal.replay(synthesize_trace(400, rng=rng.fork("t-legal")))
    ]
    foreign = [
        block
        for peer, blocks in eia_plan.items()
        if peer != 2
        for block in blocks
    ]
    attack = Dagflow(
        "attack",
        target_prefix=target_prefix,
        udp_port=9002,
        source_blocks=foreign,
        rng=rng.fork("attack"),
    )
    records += [
        lr.record.with_key(input_if=2)
        for lr in attack.replay(generate_attack("slammer", rng=rng.fork("a")))
    ]
    records.sort(key=lambda r: (r.first, r.key.src_addr, r.key.dst_addr))
    return records


def udp_sender(records, *, initial_sequence=0, chunk=20):
    """A drive callback that ships records as v5 datagrams to the daemon.

    Yields to the event loop every ``chunk`` datagrams so the receiving
    protocol keeps pace and the kernel socket buffer never overflows.
    """

    async def drive(daemon: ServeDaemon) -> None:
        assert daemon.address is not None
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sent = 0
            for datagram in datagrams_for(
                records,
                sys_uptime=0,
                unix_secs=0,
                initial_sequence=initial_sequence,
            ):
                sock.sendto(datagram, daemon.address)
                sent += 1
                if sent % chunk == 0:
                    await asyncio.sleep(0)
        finally:
            sock.close()

    return drive


def run_daemon(detector, config, drive, *, cursor_base=0, registry=None):
    """Run a daemon to completion alongside an async drive callback."""

    async def main():
        daemon = ServeDaemon(
            detector,
            config,
            registry=registry if registry is not None else MetricsRegistry(),
            cursor_base=cursor_base,
        )
        task = asyncio.ensure_future(daemon.run())
        await asyncio.wait_for(daemon.wait_started(), timeout=10)
        try:
            await drive(daemon)
        except BaseException:
            daemon.request_shutdown()
            raise
        report = await asyncio.wait_for(task, timeout=120)
        return daemon, report

    return asyncio.run(main())


async def http_get(address, path):
    reader, writer = await asyncio.open_connection(*address)
    request = f"GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    writer.write(request.encode("ascii"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def raw_exchanges(requests):
    """Send each raw request to a bare endpoint; the raw responses."""

    async def main():
        endpoint = ObservabilityEndpoint(
            health=lambda: {"ok": 1}, registry=MetricsRegistry()
        )
        address = await endpoint.start("127.0.0.1", 0)
        responses = []
        try:
            for request in requests:
                reader, writer = await asyncio.open_connection(*address)
                writer.write(request)
                await writer.drain()
                responses.append(await reader.read())
                writer.close()
                await writer.wait_closed()
        finally:
            await endpoint.stop()
        return responses

    return asyncio.run(main())


class TestRouter:
    def test_v5_and_v1_and_garbage(self):
        registry = MetricsRegistry()
        queue = IngestQueue(64, registry=registry)
        router = DatagramRouter(queue, registry=registry)
        records = [plain_record(i) for i in range(3)]
        for datagram in datagrams_for(records, sys_uptime=0, unix_secs=0):
            assert router.route(datagram, source=4000) == 3
        v1 = encode_v1_datagram(
            [plain_record(9)], sys_uptime=0, unix_secs=0
        )
        assert router.route(v1, source=4000) == 1
        assert router.route(b"not netflow", source=4000) == 0
        assert router.route(b"\x00", source=4000) == 0
        assert router.stats.v5_datagrams == 1
        assert router.stats.v1_datagrams == 1
        assert router.stats.invalid_datagrams == 2
        assert len(queue) == 4

    def test_truncated_v1_counted_invalid(self):
        registry = MetricsRegistry()
        queue = IngestQueue(8, registry=registry)
        router = DatagramRouter(queue, registry=registry)
        v1 = encode_v1_datagram([plain_record()], sys_uptime=0, unix_secs=0)
        assert router.route(v1[:30], source=1) == 0
        assert router.stats.invalid_datagrams == 1


class TestShedAccounting:
    def _fill(self, shed_policy, capacity=10, n=35):
        registry = MetricsRegistry()
        queue = IngestQueue(capacity, shed_policy=shed_policy, registry=registry)
        router = DatagramRouter(queue, registry=registry)
        records = [plain_record(i) for i in range(n)]
        for datagram in datagrams_for(records, sys_uptime=0, unix_secs=0):
            router.route(datagram, source=7)
        return router, queue

    def test_drop_oldest_reconciles(self):
        router, queue = self._fill(SHED_DROP_OLDEST)
        collected = router.collector.stats.records
        assert collected == 35
        # drop-oldest admits every collected record; evictions are shed.
        assert queue.stats.enqueued == collected
        assert queue.stats.shed == collected - queue.capacity
        assert queue.stats.enqueued - queue.stats.shed == len(queue)
        # The live edge survives: the newest records are the ones queued.
        kept = [r.key.src_addr for r in queue.take_nowait(100).records()]
        assert kept == list(range(26, 36))

    def test_reject_newest_reconciles(self):
        router, queue = self._fill(SHED_REJECT_NEWEST)
        collected = router.collector.stats.records
        # reject-newest admits only up to capacity; the rest are shed.
        assert queue.stats.enqueued == queue.capacity
        assert queue.stats.enqueued + queue.stats.shed == collected
        kept = [r.key.src_addr for r in queue.take_nowait(100).records()]
        assert kept == list(range(1, 11))


class TestWorkerDrain:
    def test_drain_commits_everything_admitted(
        self, eia_plan, target_prefix, tmp_path
    ):
        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=400)
        registry = MetricsRegistry()
        ckpt = str(tmp_path / "drain.json")
        config = ServeConfig(
            port=0, batch_size=2, checkpoint_every=1, checkpoint_path=ckpt
        )
        queue = IngestQueue(64, registry=registry)
        worker = CommitWorker(detector, queue, config, registry=registry)
        rng = SeededRng(1, "drain")
        legal = Dagflow(
            "legal",
            target_prefix=target_prefix,
            udp_port=9000,
            source_blocks=eia_plan[0],
            rng=rng.fork("df"),
        )
        records = [
            lr.record.with_key(input_if=0)
            for lr in legal.replay(synthesize_trace(5, rng=rng.fork("t")))
        ]
        for record in records:
            queue.put(record)
        queue.close()
        asyncio.run(worker.run())
        assert worker.committed == len(records)
        assert worker.batches == 3
        # One periodic checkpoint per batch, plus the final drain one.
        assert worker.checkpoints == 4
        _restored, cursor = load_checkpoint(ckpt)
        assert cursor == len(records)

    def test_failed_reload_keeps_current_detector(
        self, eia_plan, target_prefix, tmp_path
    ):
        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=400)
        registry = MetricsRegistry()
        config = ServeConfig(
            port=0, reload_path=str(tmp_path / "missing.json")
        )
        queue = IngestQueue(8, registry=registry)
        worker = CommitWorker(detector, queue, config, registry=registry)
        worker.request_reload()
        queue.put(plain_record())
        queue.close()
        asyncio.run(worker.run())
        assert worker.reloads == 0
        assert worker.detector is detector
        assert worker.committed == 1

    def test_latency_percentile_contract(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=400)
        registry = MetricsRegistry()
        queue = IngestQueue(8, registry=registry)
        worker = CommitWorker(detector, queue, ServeConfig(), registry=registry)
        assert worker.latency_percentile(0.5) == 0.0
        with pytest.raises(ServeError):
            worker.latency_percentile(1.5)
        queue.put(plain_record())
        queue.close()
        asyncio.run(worker.run())
        assert worker.latency_percentile(0.5) >= 0.0
        assert worker.latency_percentile(0.99) >= worker.latency_percentile(0.0)

    def test_latency_percentile_is_within_7_percent_of_exact(
        self, eia_plan, target_prefix, monkeypatch
    ):
        """A skewed mix — mostly sub-millisecond, a tail of tens of
        milliseconds, a few seconds-late slices — against the exact
        quantile over every committed record, each slice counted once
        per row."""
        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=400)
        registry = MetricsRegistry()
        worker = CommitWorker(detector, None, ServeConfig(), registry=registry)
        columns = RecordColumns([plain_record(index) for index in range(8)])
        now = 1_000.0
        monkeypatch.setattr(time, "perf_counter", lambda: now)
        rnd = SeededRng(_SEED, "latency-mix")
        exact: List[float] = []
        for _ in range(40):
            batch = QueuedBatch()
            for _ in range(1 + rnd.randrange(6)):
                draw = rnd.random()
                if draw < 0.85:
                    latency_s = 0.0002 * 2.0 ** (3.0 * rnd.random())
                elif draw < 0.97:
                    latency_s = 0.02 + 0.08 * rnd.random()
                else:
                    latency_s = 1.0 + 2.0 * rnd.random()
                rows = 1 + rnd.randrange(8)
                batch.append(columns, 0, rows)
                batch.enqueued_s.append(now - latency_s)
                exact.extend([now - (now - latency_s)] * rows)
            worker.commit(batch)
        exact.sort()
        assert worker.committed == len(exact)
        for quantile in (0.0, 0.1, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0):
            want = exact[min(len(exact) - 1, int(quantile * len(exact)))]
            got = worker.latency_percentile(quantile)
            assert abs(got - want) <= 0.07 * want, quantile
            assert got <= exact[-1]


class TestDaemonLoopback:
    def test_udp_ingest_is_serial_equivalent(
        self, eia_plan, target_prefix, serve_trace
    ):
        reference = make_detector(
            eia_plan, target_prefix, seed=_SEED, n_train=600
        )
        reference.process_all(serve_trace)
        expected = [alert.to_xml() for alert in reference.alert_sink.alerts]
        assert expected, "the serve trace must raise alerts"

        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=600)
        config = ServeConfig(
            port=0,
            batch_size=64,
            max_records=len(serve_trace),
            idle_exit_s=5.0,
        )
        daemon, report = run_daemon(
            detector, config, udp_sender(serve_trace)
        )
        assert report.records_committed == len(serve_trace)
        assert report.records_collected == len(serve_trace)
        assert report.records_shed == 0
        assert report.lost_flows == 0
        assert report.cursor == len(serve_trace)
        got = [alert.to_xml() for alert in daemon.detector.alert_sink.alerts]
        assert got == expected
        assert "committed" in report.describe()

    def test_shutdown_mid_ingest_drains_admitted_records(
        self, eia_plan, target_prefix, serve_trace
    ):
        self._shutdown_mid_ingest(eia_plan, target_prefix, serve_trace, 32)

    def test_shutdown_mid_ingest_with_every_datagram_split_across_commits(
        self, eia_plan, target_prefix, serve_trace
    ):
        """``batch_size=7``: no 30-row datagram fits one commit, so the
        drain runs through the queue's split path for every one."""
        report = self._shutdown_mid_ingest(
            eia_plan, target_prefix, serve_trace, 7
        )
        # Batches, cursor and committed all count records, not datagrams.
        assert report.cursor == report.records_committed
        assert report.batches == -(-report.records_committed // 7)

    def _shutdown_mid_ingest(
        self, eia_plan, target_prefix, serve_trace, batch_size
    ):
        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=600)
        config = ServeConfig(port=0, batch_size=batch_size, idle_exit_s=10.0)

        async def drive(daemon: ServeDaemon) -> None:
            await udp_sender(serve_trace)(daemon)
            # Wait until the worker has demonstrably started committing,
            # then pull the plug mid-stream.
            for _ in range(2_000):
                if daemon.worker.committed > 0:
                    break
                await asyncio.sleep(0.005)
            daemon.request_shutdown()
            daemon.request_shutdown()  # idempotent

        daemon, report = run_daemon(detector, config, drive)
        # The drain guarantee: every record admitted to the queue before
        # the shutdown was committed; nothing admitted was lost.
        assert report.records_committed == report.records_enqueued
        assert report.records_committed > 0
        assert daemon.health()["state"] == "stopped"
        return report

    def test_idle_exit_stops_an_untouched_daemon(
        self, eia_plan, target_prefix
    ):
        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=400)
        config = ServeConfig(port=0, idle_exit_s=0.2)

        async def drive(daemon: ServeDaemon) -> None:
            return None

        _daemon, report = run_daemon(detector, config, drive)
        assert report.records_committed == 0
        assert report.batches == 0

    def test_receive_buffer_is_requested_by_default_and_not_with_none(
        self, eia_plan, target_prefix
    ):
        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=400)

        def bound_rcvbuf(config: ServeConfig) -> int:
            seen: List[int] = []

            async def drive(daemon: ServeDaemon) -> None:
                sock = daemon._transport.get_extra_info("socket")  # noqa: SLF001
                seen.append(
                    sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
                )
                daemon.request_shutdown()

            run_daemon(detector, config, drive)
            return seen[0]

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as plain:
            system_default = plain.getsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF
            )
        assert ServeConfig().recv_buffer_bytes == 8 * 1024 * 1024
        # The kernel grants min(request, net.core.rmem_max) and reports
        # it doubled, so a granted request reads above the default.
        assert bound_rcvbuf(ServeConfig(port=0)) > system_default
        assert (
            bound_rcvbuf(ServeConfig(port=0, recv_buffer_bytes=None))
            == system_default
        )

    def test_lone_datagram_commits_within_a_few_loop_passes(
        self, eia_plan, target_prefix
    ):
        """Default batching commits what has arrived: counted in event
        loop passes (a self-rescheduling ``call_soon`` ticker), not wall
        time, a lone datagram is committed within a handful of passes,
        and two datagrams sent before the loop runs share one batch."""
        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=400)
        records = [plain_record(i) for i in range(3)]
        lone, first, second = (
            next(datagrams_for([r], sys_uptime=0, unix_secs=0,
                               initial_sequence=i))
            for i, r in enumerate(records)
        )
        passes: List[int] = []

        async def drive(daemon: ServeDaemon) -> None:
            loop = asyncio.get_running_loop()
            done = asyncio.Event()

            def tick(count: int) -> None:
                if daemon.worker.committed:
                    passes.append(count)
                    done.set()
                else:
                    loop.call_soon(tick, count + 1)

            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.sendto(lone, daemon.address)
                loop.call_soon(tick, 1)
                await asyncio.wait_for(done.wait(), timeout=10)
                sock.sendto(first, daemon.address)
                sock.sendto(second, daemon.address)
                while daemon.worker.committed < 3:
                    await asyncio.sleep(0.001)
            daemon.request_shutdown()

        _daemon, report = run_daemon(detector, ServeConfig(port=0), drive)
        assert passes[0] <= 16
        assert report.records_committed == 3
        assert report.batches == 2

    def test_daemon_runs_only_once(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=400)
        config = ServeConfig(port=0, idle_exit_s=0.2)

        async def drive(daemon: ServeDaemon) -> None:
            return None

        daemon, _report = run_daemon(detector, config, drive)
        with pytest.raises(ServeError):
            asyncio.run(daemon.run())

    def test_rejects_negative_cursor_base(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=400)
        with pytest.raises(ServeError):
            ServeDaemon(
                detector,
                ServeConfig(port=0),
                registry=MetricsRegistry(),
                cursor_base=-1,
            )


class TestWarmRestart:
    def test_resumed_run_emits_identical_alert_stream(
        self, eia_plan, target_prefix, serve_trace, tmp_path
    ):
        """The acceptance property: drain at the halfway cursor, restore
        the checkpoint into a fresh daemon, replay the rest — the alert
        stream must be indistinguishable from one uninterrupted run."""
        # A different batch size on the resumed run: batching must stay
        # invisible in the output.
        self._resume_and_compare(
            eia_plan, target_prefix, serve_trace, tmp_path, 64, 96
        )

    def test_resumed_run_with_every_datagram_split_across_commits(
        self, eia_plan, target_prefix, serve_trace, tmp_path
    ):
        """The same property at ``batch_size=7``: every datagram is
        committed in pieces, and the cursor, the committed count and the
        checkpoints still count records."""
        report1, report2 = self._resume_and_compare(
            eia_plan, target_prefix, serve_trace, tmp_path, 7, 7
        )
        half = len(serve_trace) // 2
        assert report1.batches == -(-half // 7)
        assert report1.checkpoints >= report1.batches // 3
        assert report2.records_committed == len(serve_trace) - half

    def _resume_and_compare(
        self, eia_plan, target_prefix, serve_trace, tmp_path, first_batch,
        second_batch,
    ):
        reference = make_detector(
            eia_plan, target_prefix, seed=_SEED, n_train=600
        )
        reference.process_all(serve_trace)
        expected = [alert.to_xml() for alert in reference.alert_sink.alerts]
        assert expected

        half = len(serve_trace) // 2
        ckpt = str(tmp_path / "warm.json")
        first = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=600)
        config1 = ServeConfig(
            port=0,
            batch_size=first_batch,
            checkpoint_path=ckpt,
            checkpoint_every=3,
            max_records=half,
            idle_exit_s=5.0,
        )
        _daemon1, report1 = run_daemon(
            first, config1, udp_sender(serve_trace[:half])
        )
        assert report1.records_committed == half
        assert report1.checkpoints >= 1

        restored, cursor = load_checkpoint(ckpt)
        assert cursor == half
        config2 = ServeConfig(
            port=0,
            batch_size=second_batch,
            checkpoint_path=ckpt,
            max_records=len(serve_trace) - half,
            idle_exit_s=5.0,
        )
        daemon2, report2 = run_daemon(
            restored,
            config2,
            udp_sender(serve_trace[half:], initial_sequence=half),
            cursor_base=cursor,
        )
        assert report2.cursor == len(serve_trace)
        got = [alert.to_xml() for alert in daemon2.detector.alert_sink.alerts]
        assert got == expected
        _final, final_cursor = load_checkpoint(ckpt)
        assert final_cursor == len(serve_trace)
        return report1, report2


class TestHotReload:
    def test_sighup_path_swaps_detector_at_batch_boundary(
        self, eia_plan, target_prefix, serve_trace, tmp_path
    ):
        source = make_detector(eia_plan, target_prefix, seed=9_001, n_train=400)
        ckpt = str(tmp_path / "reload.json")
        save_detector(source, ckpt, cursor=0)
        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=400)
        records = serve_trace[:120]
        config = ServeConfig(
            port=0,
            batch_size=32,
            reload_path=ckpt,
            max_records=len(records),
            idle_exit_s=5.0,
        )

        async def drive(daemon: ServeDaemon) -> None:
            daemon.request_reload()
            await udp_sender(records)(daemon)

        daemon, report = run_daemon(detector, config, drive)
        assert report.reloads == 1
        assert daemon.detector is not detector
        assert report.records_committed == len(records)

    @pytest.mark.parametrize("then_shut_down", [False, True])
    def test_reload_reaches_an_idle_daemon_at_once(
        self, eia_plan, target_prefix, tmp_path, then_shut_down
    ):
        """No traffic, so no batch ever comes from the queue: the reload
        is still applied on request, and one requested just before a
        shutdown is not dropped."""
        ckpt = str(tmp_path / "reload.json")
        save_detector(
            make_detector(eia_plan, target_prefix, seed=9_001, n_train=400),
            ckpt,
            cursor=0,
        )
        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=400)
        seen: List[int] = []

        async def drive(daemon: ServeDaemon) -> None:
            daemon.request_reload()
            if not then_shut_down:
                for _ in range(16):
                    await asyncio.sleep(0)
                seen.append(daemon.worker.reloads)
            daemon.request_shutdown()

        daemon, report = run_daemon(
            detector, ServeConfig(port=0, reload_path=ckpt), drive
        )
        assert seen == ([] if then_shut_down else [1])
        assert report.reloads == 1
        assert report.records_committed == 0
        assert daemon.detector is not detector

    def test_reload_between_checkpoints_rewrites_the_journal(
        self, eia_plan, target_prefix, serve_trace, tmp_path
    ):
        """A reload swaps in a detector whose alert history is not an
        extension of what the worker has journalled — here it is even
        longer, so a writer that compared counts alone would append a
        slice of it onto the old prefix.  The next periodic checkpoint
        must hold the reloaded detector's history, exactly."""
        source = make_detector(eia_plan, target_prefix, seed=9_001, n_train=400)
        source.process_all(serve_trace[::-1])
        foreign = [alert.to_xml() for alert in source.alert_sink.alerts]
        reload_ckpt = str(tmp_path / "reload.json")
        save_detector(source, reload_ckpt, cursor=0)

        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=400)
        ckpt = str(tmp_path / "live.json")
        half = len(serve_trace) // 2
        config = ServeConfig(
            port=0,
            batch_size=32,
            checkpoint_path=ckpt,
            checkpoint_every=1,
            reload_path=reload_ckpt,
            max_records=len(serve_trace),
            idle_exit_s=5.0,
        )
        journalled: List[str] = []

        async def drive(daemon: ServeDaemon) -> None:
            await udp_sender(serve_trace[:half])(daemon)
            while daemon.worker.committed < half:
                await asyncio.sleep(0.01)
            journalled.extend(
                alert.to_xml() for alert in daemon.detector.alert_sink.alerts
            )
            daemon.request_reload()
            await udp_sender(serve_trace[half:], initial_sequence=half)(daemon)

        daemon, report = run_daemon(detector, config, drive)
        assert report.reloads == 1
        assert 0 < len(journalled) <= len(foreign)
        assert journalled != foreign[:len(journalled)]
        loaded, cursor = load_checkpoint(ckpt)
        assert cursor == report.cursor
        assert render_state(loaded, cursor=cursor) == render_state(
            daemon.detector, cursor=cursor
        )
        got = [alert.to_xml() for alert in loaded.alert_sink.alerts]
        assert got[:len(foreign)] == foreign

    def test_reloaded_detector_stays_on_the_daemons_registry(
        self, eia_plan, target_prefix, serve_trace, tmp_path
    ):
        """A daemon on a private registry (an embedded daemon) must keep
        seeing pipeline counters move after a reload: the reloaded
        detector reports into the registry it replaced."""
        ckpt = str(tmp_path / "reload.json")
        save_detector(
            make_detector(eia_plan, target_prefix, seed=_SEED, n_train=400),
            ckpt,
            cursor=0,
        )
        registry = MetricsRegistry()
        detector = load_detector(ckpt, registry=registry)
        records = serve_trace[:120]
        config = ServeConfig(
            port=0,
            batch_size=32,
            reload_path=ckpt,
            max_records=len(records),
            idle_exit_s=5.0,
        )

        def flows_total() -> float:
            family = registry.get("infilter_pipeline_flows_total")
            assert family is not None
            return sum(child.value for _labels, child in family.samples())

        before_reload: List[float] = []

        async def drive(daemon: ServeDaemon) -> None:
            await udp_sender(records[:60])(daemon)
            while daemon.worker.committed < 60:
                await asyncio.sleep(0.01)
            before_reload.append(flows_total())
            daemon.request_reload()
            await udp_sender(records[60:], initial_sequence=60)(daemon)

        daemon, report = run_daemon(detector, config, drive, registry=registry)
        assert report.reloads == 1
        assert daemon.detector is not detector
        assert daemon.detector.registry is daemon.registry is registry
        assert before_reload == [60.0]
        # The reloaded detector restarts from the checkpoint's stats, but
        # its 60 flows land in the same registry family.
        assert flows_total() == float(len(records))


class TestHttpEndpoint:
    def test_health_metrics_stats_and_errors(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix, seed=_SEED, n_train=400)
        config = ServeConfig(port=0, http_port=0, idle_exit_s=30.0)

        async def drive(daemon: ServeDaemon) -> None:
            assert daemon.http_address is not None
            status, body = await http_get(daemon.http_address, "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["state"] == "serving"
            assert health["queue_capacity"] == config.queue_capacity
            status, body = await http_get(daemon.http_address, "/metrics")
            assert status == 200
            assert b"infilter_serve_queue_depth" in body
            status, body = await http_get(daemon.http_address, "/stats.json")
            assert status == 200
            json.loads(body)
            status, _body = await http_get(daemon.http_address, "/nope")
            assert status == 404
            daemon.request_shutdown()

        _daemon, report = run_daemon(detector, config, drive)
        assert report.records_committed == 0

    def test_head_is_the_get_response_without_its_body(self):
        """RFC 9110 9.3.2: HEAD gets the GET's status line and headers,
        ``Content-Length`` included, and no content."""
        get, head = raw_exchanges(
            [
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
                b"HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
            ]
        )
        headers, _, body = get.partition(b"\r\n\r\n")
        assert body == b'{"ok": 1}\n'
        assert b"Content-Length: 10\r\n" in headers
        assert head == headers + b"\r\n\r\n"

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: t\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Long: " + b"b" * 70_000
            + b"\r\n\r\n",
            b"GET /" + b"a" * 300_000 + b" HTTP/1.1\r\nHost: t\r\n\r\n",
        ],
        ids=["request-line", "header-line", "past-the-read-buffer"],
    )
    def test_line_over_the_reader_limit_is_a_400(self, request_bytes, caplog):
        """A line past the 64 KiB ``StreamReader`` limit is answered,
        not dropped with an unhandled-exception log; the request is
        read to its end first, so closing does not reset the answer."""
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            (response,) = raw_exchanges([request_bytes])
        assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert not [r for r in caplog.records if r.name == "asyncio"]


class TestServeSubprocess:
    """A real ``infilter serve`` process, a real SIGTERM."""

    def _spawn(self, arguments, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *arguments],
            cwd=str(tmp_path),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    @contextlib.contextmanager
    def _serving(self, arguments, tmp_path):
        """An ``infilter serve`` subprocess, killed on the way out if the
        test did not see it exit."""
        process = self._spawn(arguments, tmp_path)
        try:
            yield process
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)

    def _await_lines(self, process):
        """Read stdout until both bound addresses are announced."""
        udp_port = http_port = None
        assert process.stdout is not None
        while udp_port is None or http_port is None:
            line = process.stdout.readline()
            if not line:
                raise AssertionError(
                    f"serve exited early: {process.stderr.read()}"
                )
            if line.startswith("listening on udp://"):
                udp_port = int(line.rsplit(":", 1)[1])
            if line.startswith("observability on http://"):
                http_port = int(
                    line.split("http://", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1]
                )
        return udp_port, http_port

    def _write_inputs(self, eia_plan, target_prefix, tmp_path):
        """``plan.txt`` and ``train.flows`` for a CLI-built daemon;
        returns the training records."""
        from repro.netflow.files import write_flow_file

        rng = SeededRng(2005, "cli-serve-test")
        trainer = Dagflow(
            "trainer",
            target_prefix=target_prefix,
            udp_port=9000,
            source_blocks=eia_plan[0],
            rng=rng.fork("df"),
        )
        training = [
            lr.record.with_key(input_if=0)
            for lr in trainer.replay(synthesize_trace(400, rng=rng.fork("t")))
        ]
        write_flow_file(str(tmp_path / "train.flows"), training)
        plan_lines = [
            f"{peer} {block}"
            for peer, blocks in eia_plan.items()
            for block in blocks
        ]
        (tmp_path / "plan.txt").write_text("\n".join(plan_lines) + "\n")
        return training

    def _uninterrupted_alerts(self, eia_plan, training, trace):
        """The IDMEF stream of one serial run of a CLI-built detector."""
        from repro.core import EnhancedInFilter, PipelineConfig

        reference = EnhancedInFilter(
            PipelineConfig.enhanced_default(),
            rng=SeededRng(2005, "cli-serve"),
        )
        for peer, blocks in eia_plan.items():
            reference.preload_eia(peer, blocks)
        reference.train(training)
        reference.process_all(trace)
        expected = "".join(
            alert.to_xml() + "\n" for alert in reference.alert_sink.alerts
        )
        assert expected
        return expected

    def _send(self, records, udp_port, *, initial_sequence=0):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for datagram in datagrams_for(
                records,
                sys_uptime=0,
                unix_secs=0,
                initial_sequence=initial_sequence,
            ):
                sock.sendto(datagram, ("127.0.0.1", udp_port))
        finally:
            sock.close()

    def _health(self, http_port):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{http_port}/healthz", timeout=5
        ) as response:
            return json.load(response)

    def test_sigterm_drains_and_resume_matches_uninterrupted(
        self, eia_plan, target_prefix, serve_trace, tmp_path
    ):
        training = self._write_inputs(eia_plan, target_prefix, tmp_path)
        with self._serving(
            [
                "serve",
                "plan.txt",
                "--training-file",
                "train.flows",
                "--listen",
                "127.0.0.1:0",
                "--http-port",
                "0",
                "--save-state",
                "ckpt.json",
                "--checkpoint-every",
                "2",
                "--alerts-out",
                "alerts-1.xml",
                "--idle-exit-s",
                "60",
            ],
            tmp_path,
        ) as process:
            udp_port, http_port = self._await_lines(process)
            half = len(serve_trace) // 2
            self._send(serve_trace[:half], udp_port)
            deadline = 200
            committed = -1
            while deadline > 0:
                committed = self._health(http_port)["records_committed"]
                if committed >= half:
                    break
                deadline -= 1
                time.sleep(0.05)
            assert committed == half
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=60)
        assert process.returncode == 0, err
        assert f"serve: {half} committed" in out
        _detector, cursor = load_checkpoint(str(tmp_path / "ckpt.json"))
        assert cursor == half

        # Resume warm and replay the second half; the combined alert
        # stream must match one uninterrupted CLI-built run.
        with self._serving(
            [
                "serve",
                "--load-state",
                "ckpt.json",
                "--resume",
                "--listen",
                "127.0.0.1:0",
                "--http-port",
                "0",
                "--save-state",
                "ckpt.json",
                "--alerts-out",
                "alerts-2.xml",
                "--max-records",
                str(len(serve_trace) - half),
                "--idle-exit-s",
                "60",
            ],
            tmp_path,
        ) as process:
            udp_port, _http_port = self._await_lines(process)
            self._send(serve_trace[half:], udp_port, initial_sequence=half)
            out, err = process.communicate(timeout=120)
        assert process.returncode == 0, err
        assert f"(cursor {len(serve_trace)})" in out

        expected = self._uninterrupted_alerts(eia_plan, training, serve_trace)
        # --resume writes the full alert history, so the second file IS
        # the complete stream of the interrupted-and-resumed run.
        assert (tmp_path / "alerts-2.xml").read_text() == expected

    def test_sigkill_and_resume_from_the_checkpoint_matches_uninterrupted(
        self, eia_plan, target_prefix, serve_trace, tmp_path
    ):
        """What a process supervisor does for a crashed daemon: no drain,
        no final checkpoint — the every-batch checkpoint on disk is all
        that survives; the datagrams in the socket buffer and the
        uncommitted batch die with the process.  The streams match here
        only because this harness can resend from the checkpoint's
        cursor: a live NetFlow v5 exporter cannot, so a real crash loses
        whatever was in flight unless the source is replayable (a
        recorded stream)."""
        training = self._write_inputs(eia_plan, target_prefix, tmp_path)
        checkpointing = [
            "--listen",
            "127.0.0.1:0",
            "--http-port",
            "0",
            "--save-state",
            "ckpt.json",
            "--checkpoint-every",
            "1",
            # Batches that split the 30-record datagrams, so the cursor
            # can land inside one.
            "--batch-size",
            "32",
            "--idle-exit-s",
            "60",
        ]
        with self._serving(
            ["serve", "plan.txt", "--training-file", "train.flows", *checkpointing],
            tmp_path,
        ) as process:
            udp_port, http_port = self._await_lines(process)
            half = len(serve_trace) // 2
            self._send(serve_trace[:half], udp_port)
            deadline = 200
            checkpoints = 0
            while deadline > 0:
                checkpoints = self._health(http_port)["checkpoints"]
                if checkpoints >= 1:
                    break
                deadline -= 1
                time.sleep(0.05)
            assert checkpoints >= 1
            # Freeze it, so the second half is in flight — received by
            # the kernel, (almost all) never read — when the kill lands.
            # SIGSTOP is asynchronous: the daemon may commit a few
            # second-half datagrams first, so the cursor is not bounded
            # by ``half``; the resume resends from wherever it is.
            process.send_signal(signal.SIGSTOP)
            self._send(serve_trace[half:], udp_port, initial_sequence=half)
            process.send_signal(signal.SIGKILL)
            process.communicate(timeout=60)
        assert process.returncode == -signal.SIGKILL
        _detector, cursor = load_checkpoint(str(tmp_path / "ckpt.json"))
        assert cursor is not None and 0 < cursor < len(serve_trace)

        with self._serving(
            [
                "serve",
                "--load-state",
                "ckpt.json",
                "--resume",
                *checkpointing,
                "--max-records",
                str(len(serve_trace) - cursor),
            ],
            tmp_path,
        ) as process:
            udp_port, _http_port = self._await_lines(process)
            self._send(serve_trace[cursor:], udp_port, initial_sequence=cursor)
            out, err = process.communicate(timeout=120)
        assert process.returncode == 0, err
        assert f"(cursor {len(serve_trace)})" in out

        restored, cursor = load_checkpoint(str(tmp_path / "ckpt.json"))
        assert cursor == len(serve_trace)
        journal = "".join(
            alert.to_xml() + "\n" for alert in restored.alert_sink.alerts
        )
        assert journal == self._uninterrupted_alerts(
            eia_plan, training, serve_trace
        )


class TestHealthComposition:
    def test_health_reports_the_detector_composition(self):
        from repro.core import EnhancedInFilter, PipelineConfig
        from repro.util import SeededRng

        detector = EnhancedInFilter(
            PipelineConfig(
                enhanced=False,
                detectors=("infilter", "ttl_profile", "bogon"),
                ensemble_policy="weighted",
            ),
            rng=SeededRng(1, "health"),
        )
        daemon = ServeDaemon(detector, ServeConfig(port=0))
        health = daemon.health()
        assert health["detectors"] == ["infilter", "ttl_profile", "bogon"]
        assert health["ensemble_policy"] == "weighted"
