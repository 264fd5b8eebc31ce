"""The batch ingest engine: in-order batch commits, a cursor, a checkpoint
cadence and a run report over one detector (see ``docs/architecture.md``)."""

from __future__ import annotations

from repro.engine.core import BatchIngestEngine, EngineConfig, EngineReport

__all__ = ["BatchIngestEngine", "EngineConfig", "EngineReport"]
