"""Merging per-shard state into one operator-facing report.

Three merge surfaces:

* :func:`merge_stats` — combines :class:`PipelineStats` objects (sums
  the exact counters, keeps the max latency, and adds the latency
  histograms bucket by bucket, which is exact);
* :func:`merge_registries` — combines :class:`MetricsRegistry` contents:
  counters and histogram buckets add, gauges take the maximum (a merged
  occupancy or set-size gauge answers "how big did any one shard get",
  which is the capacity question an operator asks);
* :class:`EngineReport` — the engine run's summary: the authoritative
  detector's stats, the merged shard-worker registry snapshot, and the
  engine's own throughput/speculation/backpressure counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.pipeline import PipelineStats
from repro.obs import Histogram, MetricsRegistry, snapshot

__all__ = ["merge_stats", "merge_registries", "EngineReport"]


def merge_stats(parts: Sequence[PipelineStats]) -> PipelineStats:
    """Combine per-shard pipeline stats into one.

    Counters, totals, the per-stage attack breakdown and the latency
    histogram are exact sums (the merged histogram is the histogram of
    the concatenated streams); ``latency_max_s`` is the max.
    """
    merged = PipelineStats()
    for part in parts:
        merged.processed += part.processed
        merged.legal += part.legal
        merged.suspects += part.suspects
        merged.benign += part.benign
        merged.attacks += part.attacks
        merged.absorbed += part.absorbed
        merged.overload_dropped += part.overload_dropped
        merged.overload_flagged += part.overload_flagged
        merged.latency_total_s += part.latency_total_s
        merged.latency_max_s = max(merged.latency_max_s, part.latency_max_s)
        for stage, count in part.attacks_by_stage.items():
            merged.attacks_by_stage[stage] = (
                merged.attacks_by_stage.get(stage, 0) + count
            )
        for bucket, count in part.latency_buckets.items():
            merged.latency_buckets[bucket] = (
                merged.latency_buckets.get(bucket, 0) + count
            )
    return merged


def merge_registries(
    parts: Sequence[MetricsRegistry],
    into: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Combine registry contents: counters/histograms add, gauges max.

    Families are created in the target on first encounter with the
    source's exact signature, so a type/label/bucket conflict between
    shards raises :class:`~repro.obs.MetricError` rather than merging
    apples into oranges.
    """
    merged = into if into is not None else MetricsRegistry()
    for part in parts:
        for family in part.collect():
            if family.kind == "histogram":
                assert isinstance(family, Histogram)
                target = merged.histogram(
                    family.name, family.help, family.labelnames, family.buckets
                )
            elif family.kind == "counter":
                target = merged.counter(
                    family.name, family.help, family.labelnames
                )
            else:
                target = merged.gauge(
                    family.name, family.help, family.labelnames
                )
            for values, child in family.samples():
                leaf = (
                    target.labels(**dict(zip(family.labelnames, values)))
                    if family.labelnames
                    else target
                )
                if family.kind == "histogram":
                    for index, count in enumerate(child.bucket_counts):
                        leaf.bucket_counts[index] += count
                    leaf.sum += child.sum
                    leaf.count += child.count
                elif family.kind == "counter":
                    leaf.value += child.value
                else:
                    leaf.value = max(leaf.value, child.value)
    return merged


@dataclass
class EngineReport:
    """What one :class:`~repro.engine.ShardedIngestEngine` run concluded."""

    shards: int
    mode: str
    batches: int
    flows: int
    speculation_hits: int
    speculation_misses: int
    backpressure_waits: int
    backpressure_wait_s: float
    absorption_deltas: int
    #: the authoritative detector's stats — exact, serial-equivalent.
    stats: PipelineStats
    #: detector checkpoints written at batch boundaries this run.
    checkpoints: int = 0
    #: merged shard-worker registry snapshot (replica EIA/scan metrics
    #: plus worker speculation counters); empty when speculation was off.
    worker_metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def speculation_hit_rate(self) -> float:
        demanded = self.speculation_hits + self.speculation_misses
        return self.speculation_hits / demanded if demanded else 0.0

    @classmethod
    def build(
        cls,
        *,
        shards: int,
        mode: str,
        batches: int,
        flows: int,
        speculation_hits: int,
        speculation_misses: int,
        backpressure_waits: int,
        backpressure_wait_s: float,
        absorption_deltas: int,
        stats: PipelineStats,
        checkpoints: int = 0,
        worker_registries: Sequence[MetricsRegistry] = (),
    ) -> "EngineReport":
        worker_metrics: Dict[str, object] = {}
        if worker_registries:
            worker_metrics = snapshot(merge_registries(worker_registries))
        return cls(
            shards=shards,
            mode=mode,
            batches=batches,
            flows=flows,
            speculation_hits=speculation_hits,
            speculation_misses=speculation_misses,
            backpressure_waits=backpressure_waits,
            backpressure_wait_s=backpressure_wait_s,
            absorption_deltas=absorption_deltas,
            stats=stats,
            checkpoints=checkpoints,
            worker_metrics=worker_metrics,
        )

    def describe(self) -> str:
        """A short human-readable summary (the CLI's run footer)."""
        stats = self.stats
        lines = [
            f"engine: {self.shards} shard(s), mode={self.mode},"
            f" {self.batches} batch(es), {self.flows} flows",
            f"verdicts: legal={stats.legal} benign={stats.benign}"
            f" attacks={stats.attacks} absorbed={stats.absorbed}",
        ]
        demanded = self.speculation_hits + self.speculation_misses
        if demanded:
            lines.append(
                f"speculation: {self.speculation_hits}/{demanded} hits"
                f" ({100.0 * self.speculation_hit_rate:.1f}%)"
            )
        if self.backpressure_waits:
            lines.append(
                f"backpressure: {self.backpressure_waits} wait(s),"
                f" {self.backpressure_wait_s:.3f}s total"
            )
        if self.checkpoints:
            lines.append(f"checkpoints: {self.checkpoints} written")
        return "\n".join(lines)
