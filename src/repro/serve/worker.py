"""The micro-batching commit plane of the serving daemon.

One :class:`CommitWorker` coroutine owns the authoritative detector: it
awaits micro-batches from the ingest queue — column slices of decoded
datagrams, never a list of records — and commits each through
:meth:`~repro.core.pipeline.EnhancedInFilter.process_batch`, so verdicts,
absorptions, alerts and stats are exactly what serial processing would
produce.  Because the commit plane is a single task, batch boundaries
are also safe points for everything else that touches detector state:
periodic checkpoints, the final drain checkpoint, and SIGHUP hot
reloads all happen *between* batches, never inside one.

Offline (``infilter detect``) it is the same worker, driven from a list:
:meth:`CommitWorker.run_offline` cuts a record sequence into the same
batches and hands each to the same :meth:`CommitWorker.commit`.

The worker keeps a committed-record cursor (counting from
``cursor_base``, the resume offset of a restored checkpoint) and writes
it into every checkpoint, so a killed-and-resumed daemon knows exactly
how much traffic its restored state already accounts for.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.persistence import CheckpointWriter, load_checkpoint
from repro.core.pipeline import (
    BatchResult,
    EnhancedInFilter,
    bucket_percentile,
    latency_bucket,
)
from repro.fastpath.columnar import RecordColumns
from repro.netflow.records import FlowRecord
from repro.obs import MetricsRegistry, Stopwatch, get_logger, get_registry
from repro.serve.config import ServeConfig
from repro.serve.queue import IngestQueue, QueuedBatch
from repro.util.errors import ReproError, ServeError

__all__ = ["CommitWorker"]

log = get_logger(__name__)

#: Ingest-to-verdict latency buckets: queueing dominates, so the range
#: runs wider than the per-flow processing buckets.
_INGEST_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.000_5, 0.001, 0.002_5, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class CommitWorker:
    """Drains the ingest queue through the authoritative detector.

    The worker exits its :meth:`run` loop only when the queue is closed
    *and* fully drained — the graceful-shutdown contract: everything
    admitted before the drain began is committed and captured by the
    final checkpoint.  A worker that is only ever driven through
    :meth:`run_offline` has no queue (``None``).
    """

    def __init__(
        self,
        detector: EnhancedInFilter,
        queue: Optional[IngestQueue],
        config: ServeConfig,
        *,
        registry: Optional[MetricsRegistry] = None,
        cursor_base: int = 0,
        on_progress: Optional[Callable[[], None]] = None,
        writer: Optional[CheckpointWriter] = None,
    ) -> None:
        if cursor_base < 0:
            raise ServeError(f"cursor_base must be >= 0, got {cursor_base}")
        self.detector = detector
        self.queue = queue
        self.config = config
        registry = registry if registry is not None else get_registry()
        # ``writer`` is the one that loaded ``detector`` from
        # ``checkpoint_path`` (a resumed run appends to the journal it
        # verified); otherwise the first checkpoint is a full write.
        if writer is None and config.checkpoint_path is not None:
            writer = CheckpointWriter(config.checkpoint_path, registry=registry)
        self._writer = writer
        self._cursor = cursor_base
        self._on_progress = on_progress
        self._batches = 0
        self._committed = 0
        self._checkpoints = 0
        self._reloads = 0
        # Ingest-to-verdict latency over every committed record, in the
        # log-linear buckets `PipelineStats` also keeps.
        self._latency_buckets: Dict[int, int] = {}
        self._latency_max_s = 0.0
        self._m_batches = registry.counter(
            "infilter_serve_batches_total",
            "Micro-batches committed through the detector.",
        )
        self._m_committed = registry.counter(
            "infilter_serve_committed_total",
            "Flow records committed through the detector.",
        )
        self._m_commit_s = registry.histogram(
            "infilter_serve_commit_seconds",
            "Commit-stage latency per micro-batch.",
        )
        self._m_ingest_latency = registry.histogram(
            "infilter_serve_ingest_latency_seconds",
            "Enqueue-to-verdict latency per committed record.",
            buckets=_INGEST_LATENCY_BUCKETS_S,
        )
        self._m_checkpoints = registry.counter(
            "infilter_serve_checkpoints_total",
            "Detector checkpoints written at serve batch boundaries.",
        )
        self._m_reloads = registry.counter(
            "infilter_serve_reloads_total",
            "Hot detector reloads applied at batch boundaries (SIGHUP).",
        )

    # -- read-side accessors -------------------------------------------------

    @property
    def cursor(self) -> int:
        """Committed-record cursor (counts from ``cursor_base``)."""
        return self._cursor

    @property
    def committed(self) -> int:
        """Records committed by *this* worker (excludes the base)."""
        return self._committed

    @property
    def batches(self) -> int:
        return self._batches

    @property
    def checkpoints(self) -> int:
        return self._checkpoints

    @property
    def reloads(self) -> int:
        return self._reloads

    def latency_percentile(self, quantile: float) -> float:
        """Ingest-to-verdict latency at ``quantile`` over every committed
        record, within 7% (:func:`bucket_percentile`); 0.0 before any."""
        if not 0.0 <= quantile <= 1.0:
            raise ServeError(f"quantile must be in [0, 1], got {quantile}")
        return bucket_percentile(
            self._latency_buckets, quantile, self._latency_max_s
        )

    # -- control -------------------------------------------------------------

    def request_reload(self) -> None:
        """Hot-reload the detector from the configured source, now.

        A commit never yields to the event loop, so every moment a
        signal handler or a coroutine can call this is a batch boundary:
        the reload is applied at once, on a busy or an idle daemon alike.
        """
        path = self.config.effective_reload_path
        if path is None:
            log.warning(
                "reload requested but no reload_path/checkpoint_path is"
                " configured; ignoring"
            )
            return
        try:
            # On this daemon's registry, so its /metrics keeps moving.
            detector, _cursor = load_checkpoint(
                path, registry=self.detector.registry
            )
        except ReproError as error:
            # A bad reload source must not take the daemon down mid-run;
            # keep serving on the current detector and say so.
            log.warning(
                "hot reload failed; keeping the current detector",
                extra={"path": path, "reason": str(error)},
            )
            return
        self.detector = detector
        self._reloads += 1
        self._m_reloads.inc()
        log.info("detector hot-reloaded", extra={"path": path})

    # -- the loop ------------------------------------------------------------

    async def run(self) -> None:
        """Commit batches until the queue is closed and drained.

        On exit — and only after the drain is complete — a final
        checkpoint is written (when checkpointing is configured), so a
        restart resumes with every committed record accounted for.
        """
        if self.queue is None:
            raise ServeError("serve worker has no ingest queue to drain")
        while True:
            batch = await self.queue.get_batch(self.config.batch_size)
            if not batch:
                break
            self.commit(batch)
        if self._writer is not None:
            self.checkpoint()

    def run_offline(self, records: Sequence[FlowRecord]) -> None:
        """:meth:`run` for a stream that is already here.

        Cuts ``records`` into ``config.batch_size``-row batches, commits
        each in order through :meth:`commit` — so batch boundaries,
        cursor, periodic checkpoints and metrics are the daemon's — and
        writes the final checkpoint when checkpointing is configured.
        The batches are built here, not taken from the ingest queue: a
        file can wait where a network cannot, so ``queue_capacity`` and
        ``shed_policy`` have no say and no record is ever shed.  Ingest
        latency offline is hand-off to verdict: the batch's commit time.
        """
        size = self.config.batch_size
        for start in range(0, len(records), size):
            chunk = records[start:start + size]
            batch = QueuedBatch()
            batch.append(RecordColumns(chunk), 0, len(chunk))
            batch.enqueued_s.append(time.perf_counter())
            self.commit(batch)
        if self._writer is not None:
            self.checkpoint()

    def commit(self, batch: QueuedBatch) -> BatchResult:
        """Commit one micro-batch synchronously (a batch boundary);
        returns the detector's decisions, in row order."""
        watch = Stopwatch()
        result = self.detector.process_batch(batch)
        elapsed = watch.elapsed_s()
        done = time.perf_counter()
        # Ingest latency is stamped per datagram: one sample per slice,
        # with the slice's row count as its multiplicity.
        for (_columns, start, stop), enqueued_s in zip(
            batch.slices, batch.enqueued_s
        ):
            self._sample_latency(done - enqueued_s, stop - start)
        self._batches += 1
        self._committed += len(batch)
        self._cursor += len(batch)
        self._m_batches.inc()
        self._m_committed.inc(len(batch))
        self._m_commit_s.observe(elapsed)
        if (
            self.config.checkpoint_every > 0
            and self._batches % self.config.checkpoint_every == 0
        ):
            self.checkpoint()
        if self._on_progress is not None:
            self._on_progress()
        return result

    def _sample_latency(self, latency_s: float, records: int) -> None:
        """Count ``records`` identical latencies in both histograms."""
        self._m_ingest_latency.observe_many(latency_s, records)
        bucket = latency_bucket(latency_s)
        buckets = self._latency_buckets
        buckets[bucket] = buckets.get(bucket, 0) + records
        if latency_s > self._latency_max_s:
            self._latency_max_s = latency_s

    def checkpoint(self) -> int:
        """Write an atomic checkpoint at the current cursor."""
        if self._writer is None:
            raise ServeError("serve worker has no checkpoint_path configured")
        self._writer.save(self.detector, cursor=self._cursor)
        self._checkpoints += 1
        self._m_checkpoints.inc()
        log.info(
            "serve checkpoint written",
            extra={
                "path": str(self._writer.path),
                "cursor": self._cursor,
                "batches": self._batches,
            },
        )
        return self._cursor
