"""Live serving: the always-on NetFlow daemon behind ``infilter serve``.

Everything under :mod:`repro.serve` exists to run the Enhanced InFilter
*online* — real NetFlow v5/v1 datagrams on a real UDP socket, a bounded
ingest queue with explicit load shedding, a micro-batching commit loop
over :meth:`~repro.core.pipeline.EnhancedInFilter.process_batch`,
batch-boundary checkpoints for warm restart, and graceful
drain/reload signal semantics.  :class:`Deployment` is the paper's
assembled Figure 9 system (border routers, an impaired UDP path) driven
synchronously through the same router, queue and commit worker.  See ``docs/operations.md`` for the
serving runbook and ``docs/architecture.md`` for the layer diagram.
"""

from __future__ import annotations

from repro.serve.config import (
    SHED_DROP_OLDEST,
    SHED_POLICIES,
    SHED_REJECT_NEWEST,
    ServeConfig,
)
from repro.serve.daemon import ServeDaemon, ServeReport
from repro.serve.deployment import BorderRouter, Deployment
from repro.serve.http import ObservabilityEndpoint
from repro.serve.listener import (
    DatagramRouter,
    NetFlowDatagramProtocol,
    RouterStats,
)
from repro.serve.queue import IngestQueue, QueuedBatch, QueueStats
from repro.serve.worker import CommitWorker

__all__ = [
    "SHED_DROP_OLDEST",
    "SHED_REJECT_NEWEST",
    "SHED_POLICIES",
    "ServeConfig",
    "ServeDaemon",
    "ServeReport",
    "BorderRouter",
    "Deployment",
    "ObservabilityEndpoint",
    "DatagramRouter",
    "NetFlowDatagramProtocol",
    "RouterStats",
    "IngestQueue",
    "QueuedBatch",
    "QueueStats",
    "CommitWorker",
]
