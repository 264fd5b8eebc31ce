"""E15 — the columnar decoder and the batch commit path.

Two planes of ``repro.fastpath`` on one suspect-heavy flood (16
repeated flow shapes):

* **decode** — whole v5 datagrams through ``struct.iter_unpack`` over a
  ``memoryview`` (:func:`repro.fastpath.columnar.decode_v5_columnar`)
  vs ``decode_datagram``'s per-record loop, with decoded-record
  equality asserted on every datagram and a 1.5x floor in full runs;
* **verdicts** — ``process_batch`` vs serial ``process_all`` on an
  identically built detector, with the full decision stream compared
  signature by signature and both throughputs tabulated.

Both verdict paths run the one detection kernel (verdict memo and NNS
memos always on), so their ratio is bookkeeping overhead, not a
speedup, and carries no floor: the guarded throughput number is
``records_per_s`` on ``flood16``/``legal`` in ``benchmarks/e2e``.

Set ``INFILTER_BENCH_QUICK=1`` to run a reduced trace (CI smoke).
"""

import os
import time

from _report import report, table

from repro.core import EIAConfig, PipelineConfig
from repro.fastpath.columnar import decode_v5_columnar
from repro.flowgen import SubBlockSpace, eia_allocation
from repro.netflow.records import FlowKey, FlowRecord
from repro.netflow.v5 import MAX_RECORDS_PER_DATAGRAM, decode_datagram, encode_datagram
from repro.util import Prefix, SeededRng
from tests.conftest import make_detector

QUICK = os.environ.get("INFILTER_BENCH_QUICK", "") not in ("", "0")

#: Enough flows that per-flow Python cost, not warm-up, dominates both
#: timings; the quick run only checks machinery and equivalence.
_FLOWS = 2_000 if QUICK else 20_000
_SEED = 20150
_BATCH = 512

#: The flood's repeated flow shapes: (packets, octets, duration_ms).
_SHAPES = [
    (1, 40 + 24 * i, 1 + 7 * (i % 5)) for i in range(8)
] + [
    (2 + i, 90 * (2 + i), 40 + 11 * i) for i in range(8)
]


def _build_detector(plan, target):
    config = PipelineConfig(eia=EIAConfig())
    return make_detector(plan, target, seed=_SEED, config=config, n_train=1200)


def _suspect_heavy_trace(plan, target):
    """A spoofed single-victim UDP flood arriving at the wrong ingress."""
    rng = SeededRng(2015, "fastpath-bench")
    foreign = [b for peer, blocks in plan.items() if peer != 0 for b in blocks]
    victim = target.network + 0x99
    records = []
    for i in range(_FLOWS):
        block = foreign[i % len(foreign)]
        src = block.network + rng.randint(1, max(block.size() - 2, 1))
        packets, octets, duration = _SHAPES[i % len(_SHAPES)]
        first = i * 3
        records.append(
            FlowRecord(
                key=FlowKey(
                    src_addr=src,
                    dst_addr=victim,
                    protocol=17,
                    src_port=1024 + (i % 32_000),
                    dst_port=9999,
                    input_if=0,
                ),
                packets=packets,
                octets=octets,
                first=first,
                last=first + duration,
            )
        )
    return records


def _verdicts(detector):
    stats = detector.stats
    return (stats.processed, stats.legal, stats.benign, stats.attacks,
            stats.absorbed)


def _signature(decision):
    return (
        decision.verdict,
        decision.stage,
        decision.eia,
        decision.absorbed,
        decision.protocol_class,
    )


def test_e15_columnar_decode_vs_serial():
    space = SubBlockSpace()
    plan = eia_allocation(space)
    target = Prefix.parse("198.18.0.0/16")
    records = _suspect_heavy_trace(plan, target)
    datagrams = [
        encode_datagram(
            records[start:start + MAX_RECORDS_PER_DATAGRAM],
            sys_uptime=1, unix_secs=2, flow_sequence=start,
        )
        for start in range(0, len(records), MAX_RECORDS_PER_DATAGRAM)
    ]

    start = time.perf_counter()
    serial_decoded = [decode_datagram(data) for data in datagrams]
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    columnar_decoded = [decode_v5_columnar(data) for data in datagrams]
    columnar_s = time.perf_counter() - start

    # Equivalence first: the columnar plane must produce the identical
    # header and record stream for every datagram.
    for (s_header, s_records), (c_header, batch) in zip(
        serial_decoded, columnar_decoded
    ):
        assert c_header == s_header
        assert batch.records() == s_records

    n = len(records)
    serial_rps = n / serial_s if serial_s else 0.0
    columnar_rps = n / columnar_s if columnar_s else 0.0
    speedup = columnar_rps / serial_rps if serial_rps else 0.0
    report(
        "E15_fastpath_decode",
        table(
            ["path", "datagrams", "records", "elapsed", "records/sec"],
            [
                ["serial decode_datagram", len(datagrams), n,
                 f"{serial_s:.3f}s", f"{serial_rps:,.0f}"],
                ["columnar iter_unpack", len(datagrams), n,
                 f"{columnar_s:.3f}s", f"{columnar_rps:,.0f}"],
                ["speedup", "", "", "", f"{speedup:.2f}x"],
            ],
        ),
    )
    if not QUICK:
        assert speedup >= 1.5, (
            f"columnar decode speedup {speedup:.2f}x below the 1.5x floor"
        )


def test_e15_fastpath_verdict_throughput_vs_serial():
    space = SubBlockSpace()
    plan = eia_allocation(space)
    target = Prefix.parse("198.18.0.0/16")
    records = _suspect_heavy_trace(plan, target)

    serial_detector = _build_detector(plan, target)
    start = time.perf_counter()
    serial_decisions = serial_detector.process_all(records)
    serial_s = time.perf_counter() - start

    fast_detector = _build_detector(plan, target)
    fast_decisions = []
    start = time.perf_counter()
    for begin in range(0, len(records), _BATCH):
        result = fast_detector.process_batch(records[begin:begin + _BATCH])
        fast_decisions.extend(result.decisions)
    fast_s = time.perf_counter() - start

    # Zero verdict changes: the entire decision stream must match the
    # serial reference, not just the aggregate counters.
    assert list(map(_signature, fast_decisions)) == list(
        map(_signature, serial_decisions)
    )
    assert _verdicts(fast_detector) == _verdicts(serial_detector)

    memo = fast_detector.fastpath.stats()
    serial_fps = len(records) / serial_s if serial_s else 0.0
    fast_fps = len(records) / fast_s if fast_s else 0.0
    report(
        "E15_fastpath_throughput",
        table(
            ["path", "flows", "elapsed", "flows/sec"],
            [
                ["serial process_all", len(records), f"{serial_s:.3f}s",
                 f"{serial_fps:,.0f}"],
                [f"process_batch size={_BATCH}", len(records), f"{fast_s:.3f}s",
                 f"{fast_fps:,.0f}"],
                ["memo hits", memo["hits"], "", ""],
                ["memo misses", memo["misses"], "", ""],
            ],
        ),
    )
