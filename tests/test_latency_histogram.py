"""Properties of the :class:`PipelineStats` latency histogram.

``latency_percentile`` states a relative error of 7% against the exact
sorted quantile; merging is exact; the state round-trips through JSON.
"""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.core.pipeline import PipelineStats
from repro.engine import merge_stats

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


@given(st.lists(_latencies, min_size=1, max_size=5))
def test_merge_is_exactly_the_histogram_of_the_concatenation(parts):
    merged = merge_stats([_noted(part) for part in parts])
    whole = _noted([latency for part in parts for latency in part])
    assert merged.latency_buckets == whole.latency_buckets
    assert merged.processed == whole.processed
    assert merged.latency_max_s == whole.latency_max_s
    for quantile in (0.0, 0.5, 0.9, 1.0):
        assert merged.latency_percentile(quantile) == whole.latency_percentile(
            quantile
        )


@given(_latencies)
def test_state_round_trips_through_json(latencies):
    stats = _noted(latencies)
    text = json.dumps(stats.state_dict(), sort_keys=True)
    restored = PipelineStats()
    restored.load_state(json.loads(text))
    assert restored == stats
    assert json.dumps(restored.state_dict(), sort_keys=True) == text
