"""E19 — sharded ingest engine throughput beside serial processing.

The engine commits batches through the same detection kernel serial
``process_all`` runs flow by flow (verdict memo and NNS memos always
on), so this bench checks that the engine produces identical verdicts
on suspect-heavy traffic and tabulates both throughputs.  Their ratio
is batching and sharding overhead, not a speedup, and carries no floor:
the guarded throughput number is ``records_per_s`` on
``flood16``/``legal`` in ``benchmarks/e2e``.

The workload is a spoofed flood at a *single* victim host and port: the
EIA check flags every flow (wrong ingress), scan analysis never fires
(no destination fan-out, so neither scan pattern completes), and every
flow falls through to the NNS stage.  Real floods repeat a handful of
packet/byte shapes thousands of times, so the NNS memos collapse most
searches into dictionary hits.

Set ``INFILTER_BENCH_QUICK=1`` to run a reduced trace (CI smoke).
"""

import os
import time

from _report import report, table

from repro.core import EIAConfig, PipelineConfig
from repro.engine import EngineConfig, ShardedIngestEngine
from repro.flowgen import SubBlockSpace, eia_allocation
from repro.netflow.records import FlowKey, FlowRecord
from repro.util import Prefix, SeededRng
from tests.conftest import make_detector

QUICK = os.environ.get("INFILTER_BENCH_QUICK", "") not in ("", "0")

#: Enough flows that per-flow Python cost, not warm-up, dominates both
#: timings; the quick run only checks machinery and equivalence.
_FLOWS = 2_000 if QUICK else 20_000
_SEED = 20120

#: The flood's repeated flow shapes: (packets, octets, duration_ms).
#: A real flooder emits a few packet-size archetypes over and over.
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
    rng = SeededRng(2014, "engine-bench")
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


def test_e12_engine_throughput_vs_serial():
    space = SubBlockSpace()
    plan = eia_allocation(space)
    target = Prefix.parse("198.18.0.0/16")
    records = _suspect_heavy_trace(plan, target)

    serial_detector = _build_detector(plan, target)
    start = time.perf_counter()
    serial_detector.process_all(records)
    serial_s = time.perf_counter() - start

    engine_detector = _build_detector(plan, target)
    engine = ShardedIngestEngine(
        engine_detector,
        EngineConfig(shards=4, batch_size=512, mode="inline"),
    )
    with engine:
        start = time.perf_counter()
        engine_report = engine.run(records)
        engine_s = time.perf_counter() - start

    assert _verdicts(engine_detector) == _verdicts(serial_detector)
    assert engine_report.flows == len(records)

    serial_fps = len(records) / serial_s if serial_s else 0.0
    engine_fps = len(records) / engine_s if engine_s else 0.0
    report(
        "E19_engine_throughput",
        table(
            ["path", "flows", "elapsed", "flows/sec"],
            [
                ["serial process_all", len(records), f"{serial_s:.3f}s",
                 f"{serial_fps:,.0f}"],
                ["engine shards=4", len(records), f"{engine_s:.3f}s",
                 f"{engine_fps:,.0f}"],
            ],
        ),
    )
