"""The sharded, batched ingest engine.

:class:`ShardedIngestEngine` turns a record stream into a sequence of
batches, fans each batch's records out to N shard workers (routed by
source block, see :mod:`repro.engine.router`) for *speculative* NNS
assessment, and commits every batch — in stream order — through the
authoritative detector's :meth:`~repro.core.EnhancedInFilter.process_batch`.

The split is what reconciles throughput with exactness:

* the **speculation plane** (shard replicas) is embarrassingly parallel
  and side-effect free: replicas compute pure NNS assessments and may be
  arbitrarily stale or wrong without consequence;
* the **commit plane** is the authoritative detector applied serially in
  input order, so verdicts, absorptions, alerts and stats are *exactly*
  what serial :meth:`process` would have produced — for any shard count,
  any batch size, and either execution mode.

Two execution modes:

* ``inline`` — workers run in-process.  On a single-core host this is
  the fast path: the win comes from ``process_batch``'s amortised
  bookkeeping and memoisation, and speculation defaults off (replicas
  would duplicate work the commit stage performs anyway).
* ``process`` — workers run in a ``fork``-start ``multiprocessing.Pool``
  with a bounded pending-batch window: up to ``max_pending_batches``
  batches speculate ahead of the commit stage, and the engine blocks
  (counting backpressure) when the window fills.  Replica EIA state in
  the children converges through the cumulative absorption-delta logs
  carried by every task.

``mode="auto"`` picks ``process`` only when it can plausibly pay:
multiple shards requested, a ``fork`` context available, and more than
one CPU.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext

from repro.core.persistence import CheckpointWriter
from repro.core.pipeline import (
    BatchResult,
    EnhancedInFilter,
    NnsAssessment,
)
from repro.engine.merge import EngineReport
from repro.engine.router import ShardRouter
from repro.engine.worker import (
    Delta,
    DetectorTemplate,
    ShardWorker,
    SpeculationResult,
    _pool_initializer,
    _pool_speculate,
)
from repro.netflow.records import FlowRecord
from repro.obs import MetricsRegistry, Stopwatch, get_logger, load_snapshot
from repro.util.errors import ConfigError

__all__ = ["EngineConfig", "ShardedIngestEngine"]

log = get_logger(__name__)

MODE_AUTO = "auto"
MODE_INLINE = "inline"
MODE_PROCESS = "process"

#: Bucket edges for whole-batch commit latency — batches are hundreds of
#: flows, so the per-flow latency buckets are too fine.
_BATCH_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.000_5, 0.001, 0.002_5, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the sharded ingest engine."""

    shards: int = 1
    batch_size: int = 256
    mode: str = MODE_AUTO
    #: process mode: how many batches may speculate ahead of the commit
    #: stage before ``submit`` blocks (the bounded input queue).
    max_pending_batches: int = 2
    #: None picks the mode default — on in process mode (speculation is
    #: the parallel work), off inline (the replicas would re-run stages
    #: the commit stage performs anyway on the same core).
    speculate: Optional[bool] = None
    #: Checkpoint the authoritative detector every N committed batches
    #: (0 disables).  Needs a ``checkpoint_path`` on the engine.
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.batch_size < 1:
            raise ConfigError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.max_pending_batches < 1:
            raise ConfigError(
                "max_pending_batches must be >= 1,"
                f" got {self.max_pending_batches}"
            )
        if self.mode not in (MODE_AUTO, MODE_INLINE, MODE_PROCESS):
            raise ConfigError(
                f"mode must be one of auto/inline/process, got {self.mode!r}"
            )
        if self.checkpoint_every < 0:
            raise ConfigError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )


class _PendingBatch:
    """A batch whose speculation is in flight (process mode)."""

    __slots__ = ("records", "parts")

    def __init__(
        self,
        records: List[FlowRecord],
        parts: List[Tuple[List[int], object]],
    ) -> None:
        self.records = records
        #: (indices into records, AsyncResult) per shard that got work.
        self.parts = parts


def _fork_context() -> Optional[BaseContext]:
    """The ``fork`` multiprocessing context, or None where unsupported."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


class ShardedIngestEngine:
    """Batched, sharded front end over one authoritative detector.

    Usage::

        engine = ShardedIngestEngine(detector, EngineConfig(shards=4))
        with engine:
            report = engine.run(records)

    or incrementally: ``submit`` records one at a time (a full buffer
    dispatches a batch), then ``flush()`` and ``report()``.
    """

    def __init__(
        self,
        detector: EnhancedInFilter,
        config: Optional[EngineConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        checkpoint_path: Optional[Union[str, Path, CheckpointWriter]] = None,
        cursor_base: int = 0,
    ) -> None:
        self.detector = detector
        self.config = config if config is not None else EngineConfig()
        if self.config.checkpoint_every > 0 and checkpoint_path is None:
            raise ConfigError(
                "checkpoint_every needs a checkpoint_path to write to"
            )
        if cursor_base < 0:
            raise ConfigError(f"cursor_base must be >= 0, got {cursor_base}")
        registry = registry if registry is not None else detector.registry
        self.registry = registry
        # A CheckpointWriter here is the one that restored ``detector``
        # (a resumed run appends to the journal it verified).
        self._writer = (
            CheckpointWriter(checkpoint_path, registry=registry)
            if isinstance(checkpoint_path, (str, Path))
            else checkpoint_path
        )
        self.router = ShardRouter(
            self.config.shards, detector.config.eia.granularity
        )
        self.mode = self._resolve_mode(self.config.mode)
        if self.config.speculate is None:
            self.speculate = self.mode == MODE_PROCESS
        else:
            self.speculate = self.config.speculate
        # Speculation only ever matters for the NNS stage.
        if not detector.config.enhanced or detector.model is None:
            self.speculate = False

        self._buffer: List[FlowRecord] = []
        self._pending: Deque[_PendingBatch] = deque()
        self._delta_logs: List[List[Delta]] = [
            [] for _ in range(self.config.shards)
        ]
        self._workers: List[Optional[ShardWorker]] = [None] * self.config.shards
        self._pool = None
        self._shard_snapshots: Dict[Tuple[int, int], Dict] = {}
        self._batches = 0
        self._flows = 0
        self._spec_hits = 0
        self._spec_misses = 0
        self._bp_waits = 0
        self._bp_wait_s = 0.0
        self._deltas_routed = 0
        self._closed = False
        #: Records committed through the authoritative detector, counted
        #: from ``cursor_base`` — the resume offset written into every
        #: checkpoint this engine takes.
        self._cursor = cursor_base
        self._checkpoints = 0

        self._m_batches = registry.counter(
            "infilter_engine_batches_total",
            "Batches committed through the authoritative detector.",
        )
        self._m_flows = registry.counter(
            "infilter_engine_flows_total",
            "Flow records ingested through the engine.",
        )
        spec = registry.counter(
            "infilter_engine_speculation_total",
            "NNS-stage demand met by shard speculation vs computed at commit.",
            ("outcome",),
        )
        self._m_spec_hit = spec.labels(outcome="hit")
        self._m_spec_miss = spec.labels(outcome="miss")
        self._m_worker_spec = registry.counter(
            "infilter_engine_worker_speculations_total",
            "Shard-worker speculation outcomes (assessed/legal/scan).",
            ("outcome",),
        )
        self._m_bp_waits = registry.counter(
            "infilter_engine_backpressure_waits_total",
            "Times the bounded pending-batch window forced a commit wait.",
        )
        self._m_bp_wait_s = registry.histogram(
            "infilter_engine_backpressure_wait_seconds",
            "Time spent blocked on in-flight speculation per forced commit.",
        )
        self._m_queue = registry.gauge(
            "infilter_engine_queue_depth",
            "Batches currently speculating ahead of the commit stage.",
        )
        self._m_batch_latency = registry.histogram(
            "infilter_engine_batch_latency_seconds",
            "Commit-stage latency per batch.",
            buckets=_BATCH_LATENCY_BUCKETS_S,
        )
        self._m_deltas = registry.counter(
            "infilter_engine_absorption_deltas_total",
            "EIA absorption deltas routed to shard replica logs.",
        )
        self._m_checkpoints = registry.counter(
            "infilter_engine_checkpoints_total",
            "Detector checkpoints written at batch boundaries.",
        )

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ShardedIngestEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _resolve_mode(self, mode: str) -> str:
        if mode == MODE_PROCESS:
            if _fork_context() is None:
                raise ConfigError(
                    "process mode needs a fork-capable platform"
                )
            return MODE_PROCESS
        if mode == MODE_INLINE:
            return MODE_INLINE
        if (
            self.config.shards > 1
            and (os.cpu_count() or 1) > 1
            and _fork_context() is not None
        ):
            return MODE_PROCESS
        return MODE_INLINE

    def _ensure_pool(self) -> None:
        if self._pool is None:
            context = _fork_context()
            template = DetectorTemplate.from_detector(self.detector)
            processes = max(1, min(self.config.shards, os.cpu_count() or 1))
            self._pool = context.Pool(
                processes=processes,
                initializer=_pool_initializer,
                initargs=(template,),
            )
            log.info(
                "engine pool started",
                extra={"processes": processes, "shards": self.config.shards},
            )
        return self._pool

    def _worker(self, shard: int) -> ShardWorker:
        worker = self._workers[shard]
        if worker is None:
            template = DetectorTemplate.from_detector(self.detector)
            worker = self._workers[shard] = ShardWorker(shard, template)
        return worker

    def close(self) -> None:
        """Flush buffered records and release the worker pool."""
        if self._closed:
            return
        self.flush()
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        self._closed = True

    # -- ingest --------------------------------------------------------------

    def submit(self, record: FlowRecord) -> None:
        """Buffer one record; a full buffer dispatches a batch."""
        if self._closed:
            raise ConfigError("engine is closed")
        self._buffer.append(record)
        if len(self._buffer) >= self.config.batch_size:
            batch, self._buffer = self._buffer, []
            self._dispatch(batch)

    def ingest(self, records: Iterable[FlowRecord]) -> None:
        """Submit a record stream (batches dispatch as the buffer fills)."""
        for record in records:
            self.submit(record)

    def flush(self) -> None:
        """Dispatch any partial batch and commit everything in flight."""
        if self._buffer:
            batch, self._buffer = self._buffer, []
            self._dispatch(batch)
        while self._pending:
            self._commit_oldest(forced=False)

    def run(self, records: Iterable[FlowRecord]) -> EngineReport:
        """Ingest a whole stream, flush, and return the run report."""
        self.ingest(records)
        self.flush()
        return self.report()

    # -- the two planes ------------------------------------------------------

    def _dispatch(self, batch: List[FlowRecord]) -> None:
        if not self.speculate:
            self._commit(batch, None)
            return
        if self.mode == MODE_INLINE:
            speculation = self._speculate_inline(batch)
            self._commit(batch, speculation)
            return
        pool = self._ensure_pool()
        buckets = self.router.partition(batch)
        parts: List[Tuple[List[int], object]] = []
        for shard, indices in enumerate(buckets):
            if not indices:
                continue
            task = (
                shard,
                [batch[i] for i in indices],
                list(self._delta_logs[shard]),
            )
            parts.append((indices, pool.apply_async(_pool_speculate, (task,))))
        self._pending.append(_PendingBatch(batch, parts))
        self._m_queue.set(len(self._pending))
        while len(self._pending) > self.config.max_pending_batches:
            self._commit_oldest(forced=True)

    def _speculate_inline(
        self, batch: List[FlowRecord]
    ) -> List[Optional[NnsAssessment]]:
        speculation: List[Optional[NnsAssessment]] = [None] * len(batch)
        for shard, indices in enumerate(self.router.partition(batch)):
            if not indices:
                continue
            worker = self._worker(shard)
            worker.catch_up(self._delta_logs[shard])
            result = worker.speculate([batch[i] for i in indices])
            self._absorb_worker_result(result)
            for index, assessment in zip(indices, result.assessments):
                speculation[index] = assessment
        return speculation

    def _commit_oldest(self, *, forced: bool) -> None:
        pending = self._pending.popleft()
        self._m_queue.set(len(self._pending))
        speculation: List[Optional[NnsAssessment]] = [None] * len(
            pending.records
        )
        for indices, handle in pending.parts:
            if forced and not handle.ready():
                watch = Stopwatch()
                handle.wait()
                waited = watch.elapsed_s()
                self._bp_waits += 1
                self._bp_wait_s += waited
                self._m_bp_waits.inc()
                self._m_bp_wait_s.observe(waited)
            result: SpeculationResult = handle.get()
            self._absorb_worker_result(result)
            for index, assessment in zip(indices, result.assessments):
                speculation[index] = assessment
        self._commit(pending.records, speculation)

    def _absorb_worker_result(self, result: SpeculationResult) -> None:
        for outcome, count in result.outcomes.items():
            self._m_worker_spec.labels(outcome=outcome).inc(count)
        if result.registry_snapshot is not None:
            self._shard_snapshots[result.worker_key] = result.registry_snapshot

    def _commit(
        self,
        batch: List[FlowRecord],
        speculation: Optional[List[Optional[NnsAssessment]]],
    ) -> BatchResult:
        result = self.detector.process_batch(batch, speculation=speculation)
        self._batches += 1
        self._flows += len(batch)
        self._spec_hits += result.speculation_hits
        self._spec_misses += result.speculation_misses
        self._m_batches.inc()
        self._m_flows.inc(len(batch))
        if result.speculation_hits:
            self._m_spec_hit.inc(result.speculation_hits)
        if result.speculation_misses:
            self._m_spec_miss.inc(result.speculation_misses)
        self._m_batch_latency.observe(result.elapsed_s)
        for peer, block in result.absorbed:
            shard = self.router.shard_for_address(block.network)
            self._delta_logs[shard].append((peer, block))
            self._deltas_routed += 1
            self._m_deltas.inc()
        self._cursor += len(batch)
        if (
            self.config.checkpoint_every > 0
            and self._batches % self.config.checkpoint_every == 0
        ):
            self.checkpoint()
        return result

    def checkpoint(self) -> int:
        """Write an atomic detector checkpoint at the current cursor.

        Safe at any batch boundary: the commit plane is serial, so the
        detector's state plus the cursor fully describe the run — a new
        engine over ``records[cursor:]`` with ``cursor_base=cursor``
        continues exactly where this one would have.  Returns the cursor
        written.
        """
        if self._writer is None:
            raise ConfigError("engine has no checkpoint_path configured")
        self._writer.save(self.detector, cursor=self._cursor)
        self._checkpoints += 1
        self._m_checkpoints.inc()
        log.info(
            "engine checkpoint written",
            extra={
                "path": str(self._writer.path),
                "cursor": self._cursor,
                "batches": self._batches,
            },
        )
        return self._cursor

    # -- reporting -----------------------------------------------------------

    def report(self) -> EngineReport:
        """The run so far, merged into one operator-facing report."""
        worker_registries = [
            worker.registry for worker in self._workers if worker is not None
        ]
        worker_registries.extend(
            load_snapshot(doc) for doc in self._shard_snapshots.values()
        )
        return EngineReport.build(
            shards=self.config.shards,
            mode=self.mode,
            batches=self._batches,
            flows=self._flows,
            speculation_hits=self._spec_hits,
            speculation_misses=self._spec_misses,
            backpressure_waits=self._bp_waits,
            backpressure_wait_s=self._bp_wait_s,
            absorption_deltas=self._deltas_routed,
            checkpoints=self._checkpoints,
            stats=self.detector.stats,
            worker_registries=worker_registries,
        )
