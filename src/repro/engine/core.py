"""The batch ingest engine.

:class:`BatchIngestEngine` cuts a record stream into batches and commits
each one, in stream order, through the detector's
:meth:`~repro.core.EnhancedInFilter.process_batch` — so verdicts,
absorptions, alerts, stats and checkpoints are exactly what serial
:meth:`~repro.core.EnhancedInFilter.process` would have produced, for any
batch size.  Around that loop it keeps a cursor (records committed,
counted from a resume offset), writes a checkpoint every
``checkpoint_every`` batches, and reports what the run did.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

from repro.core.persistence import CheckpointWriter
from repro.core.pipeline import EnhancedInFilter, PipelineStats
from repro.netflow.records import FlowRecord
from repro.obs import MetricsRegistry, get_logger
from repro.util.errors import ConfigError

__all__ = ["EngineConfig", "EngineReport", "BatchIngestEngine"]

log = get_logger(__name__)

#: Bucket edges for whole-batch commit latency — batches are hundreds of
#: flows, so the per-flow latency buckets are too fine.
_BATCH_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the batch ingest engine."""

    batch_size: int = 256
    #: Checkpoint the detector every N committed batches (0 disables).
    #: Needs a ``checkpoint_path`` on the engine.
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.checkpoint_every < 0:
            raise ConfigError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )


@dataclass
class EngineReport:
    """What one :class:`BatchIngestEngine` run concluded."""

    batches: int
    flows: int
    #: detector checkpoints written at batch boundaries this run.
    checkpoints: int
    #: the detector's stats — exact, serial-equivalent.
    stats: PipelineStats

    def describe(self) -> str:
        """A short human-readable summary (the CLI's run footer)."""
        stats = self.stats
        lines = [
            f"engine: {self.batches} batch(es), {self.flows} flows",
            f"verdicts: legal={stats.legal} benign={stats.benign}"
            f" attacks={stats.attacks} absorbed={stats.absorbed}",
        ]
        if self.checkpoints:
            lines.append(f"checkpoints: {self.checkpoints} written")
        return "\n".join(lines)


class BatchIngestEngine:
    """Batched front end over one detector.

    Usage::

        engine = BatchIngestEngine(detector, EngineConfig(batch_size=512))
        with engine:
            report = engine.run(records)

    or incrementally: ``submit`` records one at a time (a full buffer
    commits a batch), then ``flush()`` and ``report()``.
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
            raise ConfigError("checkpoint_every needs a checkpoint_path to write to")
        if cursor_base < 0:
            raise ConfigError(f"cursor_base must be >= 0, got {cursor_base}")
        registry = registry if registry is not None else detector.registry
        # A CheckpointWriter here is the one that restored ``detector``
        # (a resumed run appends to the journal it verified).
        self._writer = (
            CheckpointWriter(checkpoint_path, registry=registry)
            if isinstance(checkpoint_path, (str, Path))
            else checkpoint_path
        )
        self._buffer: List[FlowRecord] = []
        self._batches = 0
        self._closed = False
        #: Records committed, counted from ``cursor_base``: the resume
        #: offset written into every checkpoint this engine takes.
        self._cursor_base = cursor_base
        self._cursor = cursor_base
        self._checkpoints = 0

        self._m_batches = registry.counter(
            "infilter_engine_batches_total",
            "Batches committed through the detector.",
        )
        self._m_flows = registry.counter(
            "infilter_engine_flows_total",
            "Flow records ingested through the engine.",
        )
        self._m_batch_latency = registry.histogram(
            "infilter_engine_batch_latency_seconds",
            "Commit latency per batch.",
            buckets=_BATCH_LATENCY_BUCKETS_S,
        )
        self._m_checkpoints = registry.counter(
            "infilter_engine_checkpoints_total",
            "Detector checkpoints written at batch boundaries.",
        )

    def __enter__(self) -> "BatchIngestEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Commit any buffered records and refuse further ones."""
        if not self._closed:
            self.flush()
            self._closed = True

    def submit(self, record: FlowRecord) -> None:
        """Buffer one record; a full buffer commits a batch."""
        if self._closed:
            raise ConfigError("engine is closed")
        self._buffer.append(record)
        if len(self._buffer) >= self.config.batch_size:
            self.flush()

    def flush(self) -> None:
        """Commit the buffered records as one (possibly partial) batch."""
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        result = self.detector.process_batch(batch)
        self._batches += 1
        self._cursor += len(batch)
        self._m_batches.inc()
        self._m_flows.inc(len(batch))
        self._m_batch_latency.observe(result.elapsed_s)
        if (
            self.config.checkpoint_every > 0
            and self._batches % self.config.checkpoint_every == 0
        ):
            self.checkpoint()

    def run(self, records: Iterable[FlowRecord]) -> EngineReport:
        """Ingest a whole stream, flush, and return the run report."""
        for record in records:
            self.submit(record)
        self.flush()
        return self.report()

    def checkpoint(self) -> int:
        """Write an atomic detector checkpoint at the current cursor.

        Safe at any batch boundary: commits are serial, so the detector's
        state plus the cursor fully describe the run — a new engine over
        ``records[cursor:]`` with ``cursor_base=cursor`` continues exactly
        where this one would have.  Returns the cursor written.
        """
        if self._writer is None:
            raise ConfigError("engine has no checkpoint_path configured")
        self._writer.save(self.detector, cursor=self._cursor)
        self._checkpoints += 1
        self._m_checkpoints.inc()
        log.info(
            "engine checkpoint written",
            extra={"path": str(self._writer.path), "cursor": self._cursor},
        )
        return self._cursor

    def report(self) -> EngineReport:
        """The run so far."""
        return EngineReport(
            batches=self._batches,
            flows=self._cursor - self._cursor_base,
            checkpoints=self._checkpoints,
            stats=self.detector.stats,
        )
