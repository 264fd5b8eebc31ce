"""Shard workers: speculative NNS assessment on replica detectors.

A :class:`ShardWorker` owns a *replica* of the authoritative detector —
same config, same (immutable) trained model, and a copy of the EIA sets
— and uses it to precompute the NNS assessments a batch will need.  The
replica runs the cheap stages (EIA check, a shard-local scan filter —
:meth:`~repro.core.pipeline.EnhancedInFilter.preview`) only to decide
*which* records are worth searching; the commit stage on
the authoritative detector re-runs those stages serially, so replica
divergence (a scan buffer that only sees one shard's suspects, say) can
waste or miss a speculation but can never change a verdict.

Replica EIA state stays correct through *absorption deltas*: the commit
stage reports each ``(peer, block)`` absorption it performs, the engine
routes it to the owning shard (same source-block hash as the records),
and :meth:`ShardWorker.catch_up` replays the unseen suffix before the
next speculation.  Each worker counts how many deltas it has applied, so
the engine can hand it the full cumulative log — which is what makes the
fork-pool mode work, where any pool process may end up serving any
shard's sub-batch.

Module-level ``_pool_*`` functions are the ``multiprocessing.Pool``
entry points: the initializer stashes a picklable
:class:`DetectorTemplate` in a process global and workers are built
lazily per (process, shard).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.alerts import AlertSink
from repro.core.clusters import ClusterModel
from repro.core.config import PipelineConfig
from repro.core.pipeline import EnhancedInFilter, NnsAssessment, Stage
from repro.core.state import StateDict
from repro.netflow.records import FlowRecord
from repro.obs import MetricsRegistry, snapshot
from repro.util.errors import EngineError
from repro.util.ip import Prefix

__all__ = ["DetectorTemplate", "ShardWorker", "SpeculationResult"]

#: An absorption delta: the block now expected at this peer.
Delta = Tuple[int, Prefix]


@dataclass(frozen=True)
class DetectorTemplate:
    """The picklable state a shard replica is built from.

    ``eia_state`` is the authoritative :class:`~repro.core.BasicInFilter`'s
    full stage-state section — sets *and* pending learning counters — so
    replicas start from the protocol's own capture rather than a private
    reconstruction.  (Replica pending counters are inert: ``speculate``
    never runs the learning rule, so carrying them is free and uniform.)

    ``detector_state`` shards the composed auxiliary detectors the same
    way: one stage-state section per :class:`~repro.core.Detector` name
    (empty for the default InFilter-only composition).  Replicas carry
    them so a shard is a full per-detector clone of the authoritative
    pipeline; the commit stage still runs the ensemble combine itself,
    so replica copies affect speculation only, never verdicts.
    """

    config: PipelineConfig
    model: Optional[ClusterModel]
    eia_state: StateDict
    detector_state: StateDict = field(default_factory=dict)

    @classmethod
    def from_detector(cls, detector: EnhancedInFilter) -> "DetectorTemplate":
        return cls(
            config=detector.config,
            model=detector.model,
            eia_state=detector.infilter.state_dict(),
            detector_state={
                aux.name: aux.state_dict() for aux in detector.aux_detectors
            },
        )


@dataclass
class SpeculationResult:
    """One worker call's output: assessments aligned with its records."""

    shard: int
    assessments: List[Optional[NnsAssessment]]
    #: speculation outcome counts for this call, keyed by outcome name
    #: (``assessed`` / ``legal`` / ``scan``) — merged into the engine's
    #: ``infilter_engine_worker_speculations_total`` counter.
    outcomes: Dict[str, int] = field(default_factory=dict)
    deltas_applied: int = 0
    #: identifies the worker *instance* that produced this result — a
    #: ``(pid, shard)`` pair in pool mode.  Registry snapshots are
    #: cumulative per instance, so the engine keeps the latest snapshot
    #: per key and sums across keys for exact totals.
    worker_key: Tuple[int, int] = (0, 0)
    #: cumulative registry snapshot of the producing replica (pool mode
    #: only; inline workers are snapshotted directly at report time).
    registry_snapshot: Optional[Dict] = None


class ShardWorker:
    """A replica detector that precomputes NNS assessments for one shard."""

    def __init__(self, shard: int, template: DetectorTemplate) -> None:
        self.shard = shard
        self.registry = MetricsRegistry()
        replica = EnhancedInFilter(
            template.config,
            alert_sink=AlertSink(registry=self.registry),
            registry=self.registry,
        )
        replica.infilter.load_state(template.eia_state)
        # The trained model is immutable; share (or unpickle) it rather
        # than retraining per replica.
        replica.model = template.model
        for aux in replica.aux_detectors:
            section = template.detector_state.get(aux.name)
            if section is not None:
                aux.load_state(section)
        self.replica = replica
        self.deltas_applied = 0

    def catch_up(self, deltas: Sequence[Delta]) -> int:
        """Replay the not-yet-applied suffix of the cumulative delta log.

        Returns how many deltas were applied by this call.  Safe to call
        with any log this worker has seen a prefix of — which is how pool
        processes that missed earlier sub-batches of this shard converge.
        """
        pending = deltas[self.deltas_applied:]
        for peer, block in pending:
            self.replica.infilter.apply_absorption(peer, block)
        self.deltas_applied = len(deltas)
        return len(pending)

    def speculate(
        self, records: Sequence[FlowRecord]
    ) -> SpeculationResult:
        """Precompute NNS assessments for the records routed to this shard.

        Produces one entry per record: an :class:`NnsAssessment` when the
        replica expects the commit stage to reach the NNS stage, ``None``
        when it expects an earlier stage to decide (legal ingress, or a
        completed scan pattern).  A wrong guess costs one wasted or one
        inline search at commit — never a different verdict.
        """
        preview = self.replica.preview
        assessments: List[Optional[NnsAssessment]] = []
        outcomes = {"assessed": 0, "legal": 0, "scan": 0}
        for record in records:
            stage, classification, assessment = preview(record)
            assessments.append(assessment)
            if assessment is not None:
                outcomes["assessed"] += 1
            elif stage == Stage.SCAN:
                outcomes["scan"] += 1
            elif classification is None:
                outcomes["legal"] += 1
        return SpeculationResult(
            shard=self.shard,
            assessments=assessments,
            outcomes={k: v for k, v in outcomes.items() if v},
            deltas_applied=self.deltas_applied,
            worker_key=(0, self.shard),
        )


# -- multiprocessing.Pool entry points ----------------------------------------
#
# The engine uses the *fork* start method, so child processes inherit the
# parent's module state; the initializer still re-stashes the template
# explicitly to keep the flow identical under any start method that can
# pickle it.

_POOL_TEMPLATE: Optional[DetectorTemplate] = None
_POOL_WORKERS: Dict[int, ShardWorker] = {}


def _pool_initializer(template: DetectorTemplate) -> None:
    global _POOL_TEMPLATE
    # Process-local by construction: each pool process runs its own copy
    # of this module, so these globals are never shared across tasks of
    # one interpreter, let alone an event loop.
    _POOL_TEMPLATE = template  # repro: allow[REP013] -- per-process pool state
    _POOL_WORKERS.clear()  # repro: allow[REP013] -- per-process pool state


def _pool_speculate(
    task: Tuple[int, Sequence[FlowRecord], Sequence[Delta]]
) -> SpeculationResult:
    """Run one shard sub-batch in a pool process.

    ``task`` is ``(shard, records, cumulative_deltas)``; the worker for
    that shard is created on first use in each process and caught up on
    the delta log before speculating.
    """
    shard, records, deltas = task
    worker = _POOL_WORKERS.get(shard)
    if worker is None:
        if _POOL_TEMPLATE is None:
            raise EngineError("pool process used before its initializer ran")
        # repro: allow[REP013] -- per-process worker cache, no cross-process sharing
        worker = _POOL_WORKERS[shard] = ShardWorker(shard, _POOL_TEMPLATE)
    worker.catch_up(deltas)
    result = worker.speculate(records)
    result.worker_key = (os.getpid(), shard)
    result.registry_snapshot = snapshot(worker.registry)
    return result
