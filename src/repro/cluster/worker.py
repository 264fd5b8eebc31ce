"""The shard worker: one serving daemon in its own spawned process.

A worker is deliberately nothing new — it is the single-process
:class:`~repro.serve.daemon.ServeDaemon` (PR 6), loaded from the
worker's own checkpoint and bound to ephemeral localhost sockets,
wrapped in a child-process entry point.  Start and supervised restart
are therefore the *same* code path: every incarnation restores its
checkpoint, reports the restored cursor through the handshake pipe, and
serves until drained; the supervisor replays the routed stream from
that cursor when the previous incarnation died uncleanly.

The process is created with the **spawn** start method.  Forking a
parent that is already running an asyncio event loop would hand the
child a thread-local "running loop" marker (and every other piece of
inherited interpreter state) it must not have; spawn gives each worker
the clean interpreter a shared-nothing shard deserves, at the cost of
requiring :class:`WorkerSpec` and :func:`worker_main` to be picklable
top-level objects — which is exactly what they are.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Optional, Tuple

import asyncio

from repro.core.persistence import CheckpointWriter
from repro.obs import MetricsRegistry
from repro.serve.config import ServeConfig
from repro.serve.daemon import ServeDaemon, ServeReport

__all__ = ["WorkerSpec", "worker_main", "spawn_worker"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs, in picklable form."""

    worker: int
    workers: int
    checkpoint_path: str
    host: str
    queue_capacity: int
    shed_policy: str
    batch_size: int
    batch_linger_s: float
    checkpoint_every: int
    recv_buffer_bytes: Optional[int]


async def _serve(daemon: ServeDaemon, conn: Connection, cursor: int) -> ServeReport:
    loop = asyncio.get_running_loop()
    run = loop.create_task(daemon.run())
    await daemon.wait_started()
    conn.send(
        (
            "ready",
            {
                "udp": daemon.address,
                "http": daemon.http_address,
                "cursor": cursor,
            },
        )
    )
    return await run


def worker_main(spec: WorkerSpec, conn: Connection) -> None:
    """Child-process entry: restore the checkpoint, serve, report.

    Sends ``("ready", {udp, http, cursor})`` once listening,
    ``("done", {report, alerts})`` after the daemon drains, or
    ``("failed", {error})`` if it cannot come up — the supervisor treats
    a failed handshake as fatal rather than restarting into the same
    wall.
    """
    try:
        registry = MetricsRegistry()
        # The writer that loads the checkpoint keeps appending to it.
        writer = CheckpointWriter(spec.checkpoint_path, registry=registry)
        detector, cursor = writer.load()
        cursor_base = cursor if cursor is not None else 0
        config = ServeConfig(
            host=spec.host,
            port=0,
            http_port=0,
            queue_capacity=spec.queue_capacity,
            shed_policy=spec.shed_policy,
            batch_size=spec.batch_size,
            batch_linger_s=spec.batch_linger_s,
            checkpoint_every=spec.checkpoint_every,
            checkpoint_path=spec.checkpoint_path,
            reload_path=spec.checkpoint_path,
            recv_buffer_bytes=spec.recv_buffer_bytes,
        )
        daemon = ServeDaemon(
            detector,
            config,
            registry=registry,
            cursor_base=cursor_base,
            writer=writer,
        )
    except Exception as error:  # noqa: BLE001 - forwarded to the supervisor
        conn.send(("failed", {"error": f"{type(error).__name__}: {error}"}))
        conn.close()
        raise
    try:
        report = asyncio.run(_serve(daemon, conn, cursor_base))
        conn.send(
            (
                "done",
                {
                    "report": report,
                    "alerts": list(daemon.detector.alert_sink.alerts),
                },
            )
        )
    finally:
        conn.close()


def spawn_worker(spec: WorkerSpec) -> Tuple[BaseProcess, Connection]:
    """Start one worker process; returns ``(process, handshake pipe)``."""
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=worker_main,
        args=(spec, child_conn),
        name=f"infilter-worker-{spec.worker}",
        daemon=True,
    )
    process.start()
    child_conn.close()
    return process, parent_conn
