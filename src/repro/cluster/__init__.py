"""The multi-process serving cluster: shard-affine workers at scale.

E14 showed the single-asyncio-loop daemon tops out around ~53k
records/s; carrier-scale ingress filtering needs throughput that grows
with cores.  This package runs N shared-nothing worker processes — each
owning one shard of the splitmix64 source-block space, its own
EIA/NNS/detector state, its own batch-boundary checkpoint, and its
own ingest loop — behind a flow director that steers raw NetFlow v5
record slices to the owning worker without decoding them.

The composition preserves the PR 2 serial-equivalence guarantee end to
end: a cluster run over a fixed input produces an alert stream
equivalent (canonical order and idents) to one serial ``process_all``,
including across a supervised kill-and-restart of a worker from its own
checkpoint.  See ``docs/operations.md`` for the runbook and the scan
locality condition the guarantee rests on.
"""

from __future__ import annotations

from repro.cluster.config import ClusterConfig
from repro.cluster.director import DirectorStats, FlowDirector
from repro.cluster.federation import canonical_alerts, federate, fetch_json
from repro.cluster.supervisor import (
    ClusterReport,
    ClusterSupervisor,
    seed_cluster_state,
)
from repro.cluster.worker import WorkerSpec, spawn_worker, worker_main

__all__ = [
    "ClusterConfig",
    "ClusterReport",
    "ClusterSupervisor",
    "DirectorStats",
    "FlowDirector",
    "WorkerSpec",
    "canonical_alerts",
    "federate",
    "fetch_json",
    "seed_cluster_state",
    "spawn_worker",
    "worker_main",
]
