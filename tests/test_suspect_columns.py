"""Who builds a ``FlowRecord``, and when.

The Figure 12 chain reads a row through its columns and materialises it
only where a stage consumes a record.  These tests count the
materialisations: a suspect the NNS raw-key memo clears must cost none,
so a regression that quietly goes back to one record per suspect row —
the chain would still be right, just slower — fails here, not only in
the benchmark.
"""

from typing import List

import pytest

from repro.fastpath.columnar import ColumnarBatch, RecordColumns, RowBatch
from repro.flowgen import Dagflow, synthesize_trace
from repro.netflow.records import FlowRecord
from repro.util import SeededRng

from tests.conftest import make_detector
from tests.test_chain_oracle import (
    CONFIGS,
    _decoded,
    _row_batches,
    route_change_segment,
)

_SEED = 90210


@pytest.fixture(scope="module")
def route_changes(eia_plan, target_prefix) -> List[FlowRecord]:
    return route_change_segment(eia_plan, target_prefix, start_ms=1_000)


@pytest.fixture(scope="module")
def all_legal(eia_plan, target_prefix) -> List[FlowRecord]:
    rng = SeededRng(_SEED, "all-legal")
    # The first block a filter is given sets the table's key shift and is
    # not written through: its first row is an owner-table miss.
    dagflow = Dagflow(
        "legal", target_prefix=target_prefix, udp_port=9000,
        source_blocks=eia_plan[0][1:], rng=rng.fork("df"),
    )
    return [
        lr.record.with_key(input_if=0)
        for lr in dagflow.replay(synthesize_trace(300, rng=rng.fork("t")))
    ]


@pytest.fixture
def materialised(monkeypatch) -> List[int]:
    """Every ``ColumnarBatch.record_at`` call made while the test runs,
    by row index."""
    calls: List[int] = []
    record_at = ColumnarBatch.record_at

    def counted(self, index):
        calls.append(index)
        return record_at(self, index)

    monkeypatch.setattr(ColumnarBatch, "record_at", counted)
    return calls


@pytest.mark.parametrize("size", [1, 97, 10_000])
def test_a_record_is_built_only_where_one_is_consumed(
    eia_plan, target_prefix, route_changes, materialised, size
):
    detector = make_detector(
        eia_plan, target_prefix, seed=_SEED, config=CONFIGS["enhanced"], n_train=900
    )
    blocks = _decoded(route_changes)
    del materialised[:]  # _decoded compares the blocks with the records
    for batch in _row_batches(blocks, size):
        detector.process_batch(batch)

    stats = detector.stats
    alerts = len(detector.alert_sink.alerts)
    table_misses = detector.fastpath.stats()["misses"]
    # Never cleared here, so one entry per raw-key memo miss: the 16
    # shapes, and the sweep's probes that got past scan analysis.
    raw_key_misses = int(
        detector.registry.get("infilter_state_entries")
        .labels(component="nns_raw_memo").value
    )
    assert stats.suspects > 500 and stats.absorbed > 20
    assert alerts > 100 and table_misses >= 2 and 16 < raw_key_misses < 30
    assert stats.attacks == alerts
    assert len(materialised) == alerts + raw_key_misses + table_misses
    # The point: most suspects never became a record.
    assert len(materialised) < stats.suspects / 3
    assert stats.benign > 400


def test_an_all_legal_stream_builds_no_record(
    eia_plan, target_prefix, all_legal, materialised
):
    detector = make_detector(
        eia_plan, target_prefix, seed=_SEED, config=CONFIGS["enhanced"], n_train=900
    )
    blocks = _decoded(all_legal)
    del materialised[:]
    for batch in _row_batches(blocks, 97):
        detector.process_batch(batch)
    assert detector.stats.legal == len(all_legal)
    assert detector.fastpath.stats()["misses"] == 0
    assert materialised == []


def test_an_ensemble_sees_every_row_as_a_record_once(
    eia_plan, target_prefix, route_changes, materialised
):
    """Auxiliary detectors observe every flow, as a record: each row is
    built exactly once, whatever the chain then needs of it (ROADMAP
    item 5 is the PR that changes this)."""
    detector = make_detector(
        eia_plan, target_prefix, seed=_SEED, config=CONFIGS["any-ensemble"],
        n_train=900,
    )
    blocks = _decoded(route_changes)
    del materialised[:]
    for batch in _row_batches(blocks, 97):
        detector.process_batch(batch)
    assert detector.alert_sink.alerts
    assert len(materialised) == len(route_changes)


def test_record_columns_gather_the_suspect_columns_on_first_use(
    eia_plan, target_prefix, all_legal, route_changes, monkeypatch
):
    """The record door: a batch with no suspect row pays for the two
    probe columns only."""
    gathers: List[str] = []
    gather = RecordColumns.__getattr__

    def counted(self, name):
        gathers.append(name)
        return gather(self, name)

    monkeypatch.setattr(RecordColumns, "__getattr__", counted)
    detector = make_detector(
        eia_plan, target_prefix, seed=_SEED, config=CONFIGS["enhanced"], n_train=900
    )
    legal = RecordColumns(all_legal)
    result = detector.process_batch(RowBatch.of(legal))
    assert {d.verdict for d in result.decisions} == {"legal"}
    assert gathers == []

    mixed = RecordColumns(all_legal[:50] + route_changes[:50])
    detector.process_batch(RowBatch.of(mixed))
    assert len(gathers) == 1  # all seven, at the first suspect row
    assert mixed.dst_port == [r.key.dst_port for r in all_legal[:50] + route_changes[:50]]
    assert mixed.last[-1] == route_changes[49].last
