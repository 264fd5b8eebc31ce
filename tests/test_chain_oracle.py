"""The detection chain against an independent oracle.

``process`` and ``process_batch`` run one shared kernel, so "batch equals
serial" says nothing about the kernel itself.  Here every way of running
it — serial, and batched at three sizes — is compared flow for flow with
the memo-free transcription of Figure 12 in :mod:`tests.reference_chain`,
over the configurations that steer the chain down each of its branches.

``process_batch`` has two doors — a record list (the engine) and column
slices of decoded datagrams (the serve path), where a row the verdict
memo clears never becomes a record.  Both are run against the oracle,
and against each other's memo counters.
"""

from dataclasses import replace
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.core import EIAConfig, NNSConfig, OverloadConfig, PipelineConfig
from repro.core.state import StateDict
from repro.fastpath.columnar import (
    ColumnarBatch,
    RecordRow,
    RowBatch,
    decode_v5_columnar,
)
from repro.flowgen import Dagflow, synthesize_trace
from repro.netflow.records import FlowRecord
from repro.netflow.v5 import datagrams_for
from repro.util import Prefix, SeededRng
from repro.util.ip import parse_ipv4

from tests.conftest import make_detector
from tests.reference_chain import Outcome, outcome_of, reference_chain
from tests.test_engine_equivalence import mixed_trace  # noqa: F401 - fixture

_SEED = 90210
_ABSORBING = EIAConfig(learning_threshold=3)

CONFIGS: Dict[str, PipelineConfig] = {
    "enhanced": PipelineConfig(eia=_ABSORBING),
    "basic": PipelineConfig(eia=_ABSORBING, enhanced=False),
    "overload": PipelineConfig(
        eia=_ABSORBING,
        overload=OverloadConfig(suspect_capacity_per_s=40.0, drop_fraction=0.5),
    ),
    "pass-unmodelled": PipelineConfig(
        eia=_ABSORBING, flag_unmodelled_classes=False
    ),
    "flag-unmodelled": PipelineConfig(
        eia=_ABSORBING, flag_unmodelled_classes=True
    ),
    "any-ensemble": PipelineConfig(
        eia=_ABSORBING,
        detectors=("infilter", "ttl_profile", "bogon"),
        ensemble_policy="any",
    ),
    # Two tables per scale: every NNS probe draws from the pick RNG, so a
    # search skipped (a memo hit) leaves the cursor behind and shifts
    # every later answer.
    "m1-2": PipelineConfig(eia=_ABSORBING, nns=NNSConfig(m1=2)),
}

#: (verdict, stage) pairs each configuration must actually produce, so a
#: branch can never go quiet without the comparison noticing.
MUST_SEE = {
    "enhanced": {("legal", "eia"), ("benign", "nns"), ("attack", "nns")},
    "basic": {("legal", "eia"), ("attack", "eia")},
    "overload": {("benign", "overload"), ("attack", "overload"), ("benign", "nns")},
    "pass-unmodelled": {("benign", "nns")},
    "flag-unmodelled": {("attack", "nns")},
    "any-ensemble": {("attack", "ensemble"), ("attack", "nns")},
    "m1-2": {("legal", "eia"), ("benign", "nns"), ("attack", "nns")},
}


def _build(eia_plan, target_prefix, name: str):
    return make_detector(
        eia_plan, target_prefix, seed=_SEED, config=CONFIGS[name], n_train=900
    )


def route_change_segment(
    eia_plan, target_prefix, *, start_ms: int, rows: int = 600
) -> List[FlowRecord]:
    """Route changes as the learning rule sees them (the benchmark's
    ``flood16``, in small): 16 flow shapes — two of them far outside the
    training distribution — repeated over rotating ingress from a
    40-block pool of other peers' blocks, all at one service of one
    host.  Most rows are suspects the NNS raw-key memo clears, which
    never become a record through the column door; the pool's blocks keep
    being absorbed, mid-batch at any batch size.  Half-way in, a sweep of
    24 ports of a second host from two sources no peer expects: owner
    table misses, a fresh raw key per probe, then scan alerts."""
    rng = SeededRng(_SEED, "route-change")
    dagflow = Dagflow(
        "shapes", target_prefix=target_prefix, udp_port=9000,
        source_blocks=eia_plan[0], rng=rng.fork("df"),
    )
    shapes = [
        lr.record for lr in dagflow.replay(synthesize_trace(14, rng=rng.fork("t")))
    ]
    shapes += [
        replace(shape, packets=9_000 + index, octets=13_000_000 + index)
        for index, shape in enumerate(shapes[:2])
    ]
    pool = [
        (peer, block)
        for peer in sorted(eia_plan) for block in eia_plan[peer][::25]
    ]
    victim, swept = target_prefix.network + 0x0B0B, target_prefix.network + 0x0A0A
    unplanned = [parse_ipv4("100.64.7.7"), parse_ipv4("233.252.0.9")]
    records: List[FlowRecord] = []
    clock_ms = start_ms
    for index in range(rows):
        if index == rows // 2:
            for probe in range(24):
                clock_ms += 2
                records.append(replace(
                    shapes[0].with_key(
                        src_addr=unplanned[probe % 2], dst_addr=swept,
                        dst_port=2_000 + probe, input_if=probe % len(eia_plan),
                    ),
                    first=clock_ms, last=clock_ms,
                ))
        ingress = index % len(eia_plan)
        owner, block = pool[rng.randrange(len(pool))]
        while owner == ingress:
            owner, block = pool[rng.randrange(len(pool))]
        shape = shapes[index % len(shapes)]
        clock_ms += 2
        records.append(replace(
            shape.with_key(
                src_addr=block.network + rng.randrange(1 << (32 - block.length)),
                dst_addr=victim, dst_port=9_999, input_if=ingress,
            ),
            first=clock_ms, last=clock_ms + shape.duration_ms(),
        ))
    return records


@pytest.fixture(scope="module")
def oracle_trace(eia_plan, target_prefix, mixed_trace) -> List[FlowRecord]:  # noqa: F811
    """The engine-equivalence mixed trace (mid-stream absorptions) plus
    what it lacks: a protocol class the model never saw (GRE),
    benign-looking flows from bogon space and, after everything else,
    the repeated-shape :func:`route_change_segment`."""
    donors = [r for r in mixed_trace if r.key.input_if == 0][:60]
    unmodelled = [
        replace(r.with_key(protocol=47, input_if=3), first=r.first + 1, last=r.last + 1)
        for r in donors[:30]
    ]
    bogon = [
        replace(
            r.with_key(src_addr=0x0A000000 + index, input_if=0),
            first=r.first + 2, last=r.last + 2,
        )
        for index, r in enumerate(donors[30:])
    ]
    records = list(mixed_trace) + unmodelled + bogon
    records.sort(key=lambda r: (r.first, r.key.src_addr, r.key.dst_addr))
    return records + route_change_segment(
        eia_plan, target_prefix, start_ms=records[-1].first + 10
    )


@pytest.fixture(scope="module")
def oracle(eia_plan, target_prefix, oracle_trace):
    """Per configuration: the reference outcomes, and the model section
    (the NNS pick-RNG cursors) the reference run leaves behind."""
    cache: Dict[str, Tuple[List[Outcome], StateDict]] = {}

    def lookup(name: str) -> Tuple[List[Outcome], StateDict]:
        if name not in cache:
            parts = _build(eia_plan, target_prefix, name)
            expected = reference_chain(parts, oracle_trace)
            cache[name] = (expected, parts.model.state_dict())
        return cache[name]

    return lookup


#: Batch size per way of running the chain; size 0 is serial
#: ``process_all``.  ("inline": the chain assesses every suspect itself —
#: a label kept so the test ids the driver tracks across PRs stay put.)
RUNNERS = {
    "process_all": 0,
    **{f"batch{size}-inline": size for size in (1, 97, 10_000)},
}


@pytest.mark.parametrize("runner", list(RUNNERS))
@pytest.mark.parametrize("name", list(CONFIGS))
def test_every_runner_matches_the_reference_chain(
    eia_plan, target_prefix, oracle_trace, oracle, name, runner
):
    batch_size = RUNNERS[runner]
    expected, model_state = oracle(name)
    assert MUST_SEE[name] <= {(verdict, stage) for verdict, stage, *_ in expected}
    if name == "enhanced":
        assert sum(absorbed for _v, _s, absorbed, *_ in expected) >= 2

    detector = _build(eia_plan, target_prefix, name)
    got: List[Outcome] = []
    if batch_size == 0:
        got = [outcome_of(d) for d in detector.process_all(oracle_trace)]
    else:
        for start in range(0, len(oracle_trace), batch_size):
            result = detector.process_batch(
                oracle_trace[start:start + batch_size]
            )
            got.extend(outcome_of(d) for d in result.decisions)
    assert got == expected
    assert detector.model.state_dict() == model_state


# -- the column door ------------------------------------------------------------


def _decoded(records: List[FlowRecord]) -> List[ColumnarBatch]:
    """``records`` as the serve path sees them: v5 datagrams of up to 30
    rows, decoded column-wise."""
    blocks = [
        decode_v5_columnar(datagram)[1]
        for datagram in datagrams_for(records, sys_uptime=0, unix_secs=0)
    ]
    assert [r for block in blocks for r in block.records()] == records
    return blocks


def _row_batches(blocks: List[ColumnarBatch], size: int) -> Iterator[RowBatch]:
    """Commit batches of ``size`` rows cut across the datagram
    boundaries, the way ``IngestQueue.take_nowait`` cuts them."""
    batch = RowBatch()
    for block in blocks:
        start = 0
        while start < len(block):
            stop = min(len(block), start + size - len(batch))
            batch.append(block, start, stop)
            start = stop
            if len(batch) == size:
                yield batch
                batch = RowBatch()
    if batch:
        yield batch


@pytest.fixture(scope="module")
def oracle_blocks(oracle_trace) -> List[ColumnarBatch]:
    return _decoded(oracle_trace)


@pytest.mark.parametrize(
    "size", [1, 97, 10_000], ids=lambda size: f"{size}-inline"
)
@pytest.mark.parametrize("name", list(CONFIGS))
def test_column_batches_match_the_reference_chain(
    eia_plan, target_prefix, oracle_trace, oracle_blocks, oracle, name, size
):
    """Every configuration through the column door — ``any-ensemble``
    included, where a legal row must still reach the auxiliary
    detectors — and the verdict memo asked exactly as often, with
    exactly the same answers, as through the record door."""
    expected, model_state = oracle(name)
    columns = _build(eia_plan, target_prefix, name)
    got: List[Outcome] = []
    for batch in _row_batches(oracle_blocks, size):
        result = columns.process_batch(batch)
        assert len(result.decisions) == len(batch)
        got.extend(outcome_of(d) for d in result.decisions)
    assert got == expected
    assert columns.model.state_dict() == model_state

    records = _build(eia_plan, target_prefix, name)
    for start in range(0, len(oracle_trace), size):
        records.process_batch(oracle_trace[start:start + size])
    memo = columns.fastpath.stats()
    assert memo["hits"] + memo["misses"] == len(oracle_trace)
    assert memo == records.fastpath.stats()
    assert columns.stats.state_dict().keys() == records.stats.state_dict().keys()
    assert (columns.stats.legal, columns.stats.suspects, columns.stats.absorbed) == (
        records.stats.legal, records.stats.suspects, records.stats.absorbed
    )


def _normal_donors(eia_plan, target_prefix, config, count: int) -> List[FlowRecord]:
    """Training-shaped flows the trained model assesses as normal."""
    rng = SeededRng(_SEED, "oracle-donors")
    dagflow = Dagflow(
        "donors", target_prefix=target_prefix, udp_port=9000,
        source_blocks=eia_plan[0], rng=rng.fork("df"),
    )
    twin = make_detector(
        eia_plan, target_prefix, seed=_SEED, config=config, n_train=900
    )
    donors = [
        lr.record for lr in dagflow.replay(synthesize_trace(80, rng=rng.fork("t")))
        if twin.assess_memoised(RecordRow(lr.record), 0).is_normal
    ]
    assert len(donors) >= count
    return donors[:count]


@pytest.mark.parametrize(
    "granularity", [11, 24], ids=["same-length", "memo-shift-shrinks"]
)
def test_absorption_mid_datagram_is_seen_by_the_next_row(
    eia_plan, target_prefix, granularity
):
    """The stale-table hazard.  Row 3 of one datagram absorbs a block of
    peer 0's into peer 3's EIA set — which *moves* it, so the owner the
    table has held for the block since row 0 is wrong from row 4 on.
    The loop keeps probing the dict it took before row 3, so the move
    has to be in that dict when row 4 arrives: through the old owner
    (row 4, no longer legal), through the new one (row 5, legal), and
    through a third ingress (row 7, a suspect that must name peer 3 as
    the expected one, not peer 0).  At granularity /24 the absorbed
    block is a longer prefix than anything stored, so the table key's
    shift changes in the same step: row 6, in the old /11 but outside
    the moved /24, stays legal and must not share row 4's key."""
    config = PipelineConfig(
        eia=EIAConfig(granularity=granularity, learning_threshold=3)
    )
    block: Prefix = eia_plan[0][0]
    inside = block.network + 0x0105  # the /24 that moves, when /24 it is
    outside = block.network + 0x0A0005  # same /11, another /24
    donors = _normal_donors(eia_plan, target_prefix, config, 8)
    placed = [
        (inside, 0), (inside + 1, 3), (inside + 2, 3), (inside + 3, 3),
        (inside + 4, 0), (inside + 5, 3), (outside, 0), (inside + 6, 2),
    ]
    rows = [
        donor.with_key(src_addr=address, input_if=peer)
        for donor, (address, peer) in zip(donors, placed)
    ]
    expected = reference_chain(
        make_detector(eia_plan, target_prefix, seed=_SEED, config=config, n_train=900),
        rows,
    )
    verdicts = [verdict for verdict, *_ in expected]
    assert verdicts[0] == "legal" and expected[3][2], "row 3 must absorb"
    assert verdicts[4] != "legal" and verdicts[5] == "legal"
    assert (verdicts[6] == "legal") == (granularity == 24)
    assert verdicts[7] != "legal"
    moved = Prefix.from_address(inside, granularity)

    def run(batch, *, write_through: bool):
        detector = make_detector(
            eia_plan, target_prefix, seed=_SEED, config=config, n_train=900
        )
        if not write_through:
            # The mutant: the table fills on a miss but a correction to
            # a block it already holds is lost.
            table = detector.infilter.table
            table.put = table.entries.setdefault
        return detector, detector.process_batch(batch)

    (datagram,) = _decoded(rows)
    for batch in (RowBatch.of(datagram), rows):
        detector, result = run(batch, write_through=True)
        assert [outcome_of(d) for d in result.decisions] == expected
        assert [d.absorbed for d in result.decisions] == [
            index == 3 for index in range(8)
        ]
        assert detector.infilter.expected_peer_for(moved.network) == 3
        assert [d.eia.expected_peer for d in result.decisions[4:]] == [
            3, 3, 3 if granularity == 11 else 0, 3,
        ]
        assert detector.fastpath.stats()["invalidations"] == (
            0 if granularity == 11 else 1
        )
        if granularity == 24:
            assert detector.infilter.memo_shift == 8
        _, stale = run(batch, write_through=False)
        if granularity == 11:
            # Same length: nothing but the write-through carries the move.
            assert [d.verdict for d in stale.decisions[4:6]] == ["legal", "benign"]
            assert stale.decisions[7].eia.expected_peer == 0
        else:
            # The shift shrank and the table was cleared: no entry to lose.
            assert [outcome_of(d) for d in stale.decisions] == expected
