"""Properties of the :class:`PipelineStats` latency histogram.

``latency_percentile`` states a relative error of 7% against the exact
sorted quantile; the state round-trips through JSON.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pipeline import PipelineStats

from tests.conftest import legal_decision

#: Nanoseconds to hours, and exact zeros (a coarse clock reads them).
_latencies = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-9, max_value=1e4, allow_nan=False),
    ),
    min_size=1,
    max_size=200,
)
_quantiles = st.floats(min_value=0.0, max_value=1.0)


def _noted(latencies) -> PipelineStats:
    stats = PipelineStats()
    for latency_s in latencies:
        stats.note(legal_decision(latency_s))
    return stats


@given(_latencies, _quantiles)
def test_percentile_is_within_7_percent_of_the_sorted_quantile(
    latencies, quantile
):
    stats = _noted(latencies)
    ordered = sorted(latencies)
    exact = ordered[min(len(ordered) - 1, int(quantile * len(ordered)))]
    got = stats.latency_percentile(quantile)
    assert abs(got - exact) <= 0.07 * exact
    assert got <= stats.latency_max_s == ordered[-1]
    # Zeros share a bucket with nothing: a zero quantile reads exactly 0.
    if exact == 0.0:
        assert got == 0.0


@given(_latencies)
def test_state_round_trips_through_json(latencies):
    stats = _noted(latencies)
    text = json.dumps(stats.state_dict(), sort_keys=True)
    restored = PipelineStats()
    restored.load_state(json.loads(text))
    assert restored == stats
    assert json.dumps(restored.state_dict(), sort_keys=True) == text


class TestLatencyHistogram:
    """Bounded state, whole-stream coverage, determinism."""

    def test_state_is_bounded_and_counts_the_whole_stream(self):
        # 10,000 latencies over ten octaves: 8 buckets an octave, not
        # one entry a flow.
        stats = _noted(0.001 * 1.0007 ** i for i in range(10_000))
        assert sum(stats.latency_buckets.values()) == 10_000
        assert len(stats.latency_buckets) <= 8 * 11
        assert len(stats.state_dict()["latency_buckets"]) == len(
            stats.latency_buckets
        )

    def test_is_deterministic_across_runs(self):
        def run():
            return _noted(float(i + 1) for i in range(300)).state_dict()

        assert run() == run()

    def test_percentiles_reflect_late_stream(self):
        stats = _noted(float(i + 1) for i in range(10_000))
        # A first-N sample would put p90 near 90; the histogram covers
        # the whole stream, whose 9,001st smallest latency is 9,001.
        assert stats.latency_percentile(0.9) == pytest.approx(9001.0, rel=0.07)
        assert stats.latency_percentile(1.0) <= stats.latency_max_s
