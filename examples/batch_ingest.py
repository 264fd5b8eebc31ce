#!/usr/bin/env python
"""Batch ingest: serial-identical verdicts at batch throughput.

Feeds one mixed stream — background traffic on every peer, a Slammer
outbreak, and a route change that exercises online EIA learning — to two
detectors built from the same seed: one processing flow-by-flow with
``process()``, one behind the commit worker ``infilter detect`` and
``infilter serve`` both run (:class:`repro.serve.CommitWorker`), driven
from a list.  The worker commits every batch in stream order through the
detector's batch path, so the two runs agree *exactly* — same verdict
counts, same absorptions, same IDMEF alerts — while the batch path
amortises the per-flow bookkeeping.

Run:  python examples/batch_ingest.py
"""

import os
import time

from repro.core import PipelineConfig
from repro.flowgen import generate_attack, synthesize_trace
from repro.serve import CommitWorker, ServeConfig
from repro.testbed import Testbed, TestbedConfig
from repro.util import SeededRng

#: The CI examples-smoke job sets INFILTER_EXAMPLE_QUICK=1 to bound
#: iteration counts; the full-size run is the default.
QUICK = os.environ.get("INFILTER_EXAMPLE_QUICK") == "1"


def build_detector(testbed: Testbed) -> "object":
    return testbed.build_detector(PipelineConfig())


def make_stream(testbed: Testbed, rng: SeededRng):
    streams = []
    for peer in range(10):
        trace = synthesize_trace(60 if QUICK else 300, rng=rng.fork(f"bg-{peer}"))
        streams.append(
            (peer, testbed.normal_dagflow(peer, testbed.eia_plan[peer]).replay(trace))
        )
    # Peer 3's first block now routes via peer 7: wrong-ingress but
    # benign traffic that the learning rule should absorb.
    moved = testbed.eia_plan[3][:1]
    trace = synthesize_trace(40 if QUICK else 200, rng=rng.fork("moved"))
    streams.append((7, testbed.normal_dagflow(7, moved).replay(trace)))
    flood = generate_attack("slammer", rng=rng.fork("flood"))
    streams.append((5, testbed.attack_dagflow(5).replay(flood)))
    records = [
        labelled.record.with_key(input_if=peer)
        for peer, stream in streams
        for labelled in stream
    ]
    records.sort(key=lambda r: (r.first, r.key.src_addr, r.key.dst_addr))
    return records


def main() -> None:
    rng = SeededRng(20050605)
    testbed = Testbed(
        TestbedConfig(training_flows=500 if QUICK else 2500), rng=rng
    )
    records = make_stream(testbed, rng.fork("stream"))
    print(f"stream: {len(records)} flow records\n")

    serial = build_detector(testbed)
    started = time.perf_counter()
    serial.process_all(records)
    serial_s = time.perf_counter() - started

    batched = build_detector(testbed)
    worker = CommitWorker(batched, None, ServeConfig(batch_size=256))
    started = time.perf_counter()
    worker.run_offline(records)
    worker_s = time.perf_counter() - started

    for name, det, took in (("serial", serial, serial_s),
                            ("worker", batched, worker_s)):
        s = det.stats
        print(f"{name}: legal={s.legal} benign={s.benign} attacks={s.attacks}"
              f" absorbed={s.absorbed}"
              f"  ({len(records) / took:,.0f} flows/s)")

    same_alerts = (
        [a.ident for a in serial.alert_sink.alerts]
        == [a.ident for a in batched.alert_sink.alerts]
    )
    print(f"\nidentical alert streams: {same_alerts}")
    print(f"speedup: {serial_s / worker_s:.2f}x\n")
    print(f"worker: {worker.batches} batch(es), {worker.committed} flows")


if __name__ == "__main__":
    main()
