"""Unit tests for the sharded ingest engine's components.

The serial-equivalence guarantee is exercised end to end in
``test_engine_equivalence``; this module covers the pieces in
isolation: the source-block router, the merge layer, worker replicas
and delta catch-up, the engine's buffering/flush/lifecycle behaviour,
the collector's batch sinks, and the latency histogram the
merged stats rely on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import Decision, PipelineStats, Verdict
from repro.core.eia import EIACheck, EIAVerdict
from repro.engine import (
    EngineConfig,
    ShardRouter,
    merge_registries,
    merge_stats,
)
from repro.netflow.collector import FlowCollector
from repro.netflow.records import FlowKey, FlowRecord
from repro.obs import MetricError, MetricsRegistry
from repro.util.errors import ConfigError, NetFlowError
from repro.util.ip import Prefix


def _record(src=0x0A000001, input_if=0, dst=0xC6120001, port=80):
    return FlowRecord(
        key=FlowKey(
            src_addr=src, dst_addr=dst, protocol=6, src_port=1234,
            dst_port=port, input_if=input_if,
        ),
        packets=3,
        octets=1200,
        first=0,
        last=40,
    )


def _decision(verdict=Verdict.LEGAL, stage="eia", latency_s=0.001, absorbed=False):
    eia = EIACheck(
        verdict=EIAVerdict.LEGAL if verdict == Verdict.LEGAL
        else EIAVerdict.WRONG_INGRESS,
        observed_peer=0,
        expected_peer=0,
    )
    return Decision(
        verdict=verdict, stage=stage, eia=eia,
        latency_s=latency_s, absorbed=absorbed,
    )


class TestShardRouter:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            ShardRouter(0, 11)
        with pytest.raises(ConfigError):
            ShardRouter(4, 40)

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100)
    def test_assignment_is_deterministic_and_in_range(self, shards, addr):
        router = ShardRouter(shards, 11)
        shard = router.shard_for_address(addr)
        assert 0 <= shard < shards
        assert router.shard_for_address(addr) == shard
        assert ShardRouter(shards, 11).shard_for_address(addr) == shard

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_same_source_block_lands_on_same_shard(self, addr):
        router = ShardRouter(8, 11)
        block = Prefix.from_address(addr, 11)
        # Every address of the covering /11 routes identically.
        probes = [block.network, block.last_address(), addr]
        assert len({router.shard_for_address(a) for a in probes}) == 1

    def test_partition_is_an_ordered_permutation(self):
        router = ShardRouter(4, 11)
        records = [_record(src=(i * 0x01234567) & 0xFFFFFFFF) for i in range(64)]
        buckets = router.partition(records)
        assert len(buckets) == 4
        flat = [index for bucket in buckets for index in bucket]
        assert sorted(flat) == list(range(64))
        for shard, bucket in enumerate(buckets):
            assert bucket == sorted(bucket)
            for index in bucket:
                assert router.shard_for(records[index]) == shard

    def test_spreads_distinct_blocks(self):
        router = ShardRouter(4, 11)
        # 64 distinct /11 blocks should not all hash to one shard.
        shards = {
            router.shard_for_address(block << 21) for block in range(64)
        }
        assert len(shards) > 1


class TestMergeStats:
    def test_sums_counters_and_merges_breakdown(self):
        a = PipelineStats()
        b = PipelineStats()
        for _ in range(3):
            a.note(_decision(Verdict.LEGAL, latency_s=0.001))
        a.note(_decision(Verdict.ATTACK, stage="scan", latency_s=0.004))
        b.note(_decision(Verdict.ATTACK, stage="scan", latency_s=0.002))
        b.note(_decision(Verdict.ATTACK, stage="nns", latency_s=0.010))
        b.note(_decision(Verdict.BENIGN, stage="nns", latency_s=0.003, absorbed=True))
        merged = merge_stats([a, b])
        assert merged.processed == 7
        assert merged.legal == 3
        assert merged.attacks == 3
        assert merged.benign == 1
        assert merged.absorbed == 1
        assert merged.attacks_by_stage == {"scan": 2, "nns": 1}
        assert merged.latency_max_s == pytest.approx(0.010)
        assert merged.latency_total_s == pytest.approx(0.022)
        # The 4th smallest of the seven latencies is 0.002.
        assert sum(merged.latency_buckets.values()) == 7
        assert merged.latency_percentile(0.5) == pytest.approx(0.002, rel=0.07)

    def test_merge_is_the_histogram_of_the_concatenation(self):
        whole = PipelineStats()
        parts = []
        for start in (0, 1000):
            stats = PipelineStats()
            for i in range(100):
                decision = _decision(latency_s=float(start + i + 1))
                stats.note(decision)
                whole.note(decision)
            parts.append(stats)
        merged = merge_stats(parts)
        assert merged.latency_buckets == whole.latency_buckets
        assert merged.latency_buckets == merge_stats(parts).latency_buckets
        # Both halves of the stream are represented.
        assert merged.latency_percentile(0.25) < 1000.0
        assert merged.latency_percentile(0.75) >= 1000.0

    def test_empty_merge_is_neutral(self):
        merged = merge_stats([])
        assert merged.processed == 0
        assert merged.mean_latency_s == 0.0


class TestMergeRegistries:
    def _registry(self, counter=0.0, gauge=0.0, observations=()):
        registry = MetricsRegistry()
        registry.counter("events_total", "events").inc(counter)
        registry.gauge("occupancy", "size").set(gauge)
        histogram = registry.histogram("lat", "latency", buckets=(0.1, 1.0))
        for value in observations:
            histogram.observe(value)
        return registry

    def test_counters_add_gauges_max_histograms_add(self):
        merged = merge_registries(
            [
                self._registry(counter=2, gauge=7, observations=(0.05, 0.5)),
                self._registry(counter=3, gauge=4, observations=(2.0,)),
            ]
        )
        assert merged.get("events_total").value == 5
        assert merged.get("occupancy").value == 7
        histogram = merged.get("lat")
        assert histogram.count == 3
        assert histogram.bucket_counts == [1, 1, 1]
        assert histogram.sum == pytest.approx(2.55)

    def test_labelled_children_merge_by_label_set(self):
        registries = []
        for value in (2, 5):
            registry = MetricsRegistry()
            registry.counter("flows", "by verdict", ("verdict",)).labels(
                verdict="legal"
            ).inc(value)
            registries.append(registry)
        merged = merge_registries(registries)
        assert merged.get("flows").labels(verdict="legal").value == 7

    def test_type_conflict_raises(self):
        a = MetricsRegistry()
        a.counter("x", "")
        b = MetricsRegistry()
        b.gauge("x", "")
        with pytest.raises(MetricError):
            merge_registries([a, b])


class TestLatencyHistogram:
    """Bounded state, whole-stream coverage, determinism."""

    @staticmethod
    def _noted(latencies):
        stats = PipelineStats()
        for latency_s in latencies:
            stats.note(_decision(latency_s=latency_s))
        return stats

    def test_state_is_bounded_and_counts_the_whole_stream(self):
        # 10,000 latencies over ten octaves: 8 buckets an octave, not
        # one entry a flow.
        stats = self._noted(0.001 * 1.0007 ** i for i in range(10_000))
        assert sum(stats.latency_buckets.values()) == 10_000
        assert len(stats.latency_buckets) <= 8 * 11
        assert len(stats.state_dict()["latency_buckets"]) == len(
            stats.latency_buckets
        )

    def test_is_deterministic_across_runs(self):
        def run():
            return self._noted(float(i + 1) for i in range(300)).state_dict()

        assert run() == run()

    def test_percentiles_reflect_late_stream(self):
        stats = self._noted(float(i + 1) for i in range(10_000))
        # A first-N sample would put p90 near 90; the histogram covers
        # the whole stream, whose 9,001st smallest latency is 9,001.
        assert stats.latency_percentile(0.9) == pytest.approx(9001.0, rel=0.07)
        assert stats.latency_percentile(1.0) <= stats.latency_max_s


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EngineConfig(shards=0)
        with pytest.raises(ConfigError):
            EngineConfig(batch_size=0)
        with pytest.raises(ConfigError):
            EngineConfig(max_pending_batches=0)
        with pytest.raises(ConfigError):
            EngineConfig(mode="threads")


class TestCollectorBatchSink:
    def test_batches_and_flushes(self):
        collector = FlowCollector(registry=MetricsRegistry())
        batches = []
        collector.add_batch_sink(batches.append, max_batch=4)
        collector.ingest_records([_record(src=i + 1) for i in range(10)])
        assert [len(batch) for batch in batches] == [4, 4]
        collector.flush_batches()
        assert [len(batch) for batch in batches] == [4, 4, 2]
        collector.flush_batches()  # idempotent on an empty buffer
        assert len(batches) == 3
        assert [r.key.src_addr for batch in batches for r in batch] == list(
            range(1, 11)
        )

    def test_multiple_sinks_have_independent_buffers(self):
        collector = FlowCollector(registry=MetricsRegistry())
        small, large = [], []
        collector.add_batch_sink(small.append, max_batch=2)
        collector.add_batch_sink(large.append, max_batch=5)
        collector.ingest_records([_record(src=i + 1) for i in range(6)])
        assert [len(b) for b in small] == [2, 2, 2]
        assert [len(b) for b in large] == [5]

    def test_rejects_bad_max_batch(self):
        collector = FlowCollector(registry=MetricsRegistry())
        with pytest.raises(NetFlowError):
            collector.add_batch_sink(lambda batch: None, max_batch=0)
