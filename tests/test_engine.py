"""Unit tests for the batch ingest engine's pieces.

The serial-equivalence guarantee is exercised end to end in
``test_engine_equivalence``; this module covers the engine's
configuration and the latency histogram its stats report carries.
"""

import pytest

from repro.core.pipeline import Decision, PipelineStats, Verdict
from repro.core.eia import EIACheck, EIAVerdict
from repro.engine import EngineConfig
from repro.util.errors import ConfigError


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
            EngineConfig(batch_size=0)
        with pytest.raises(ConfigError):
            EngineConfig(checkpoint_every=-1)
