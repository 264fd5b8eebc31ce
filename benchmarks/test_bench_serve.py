"""E14 — serving-daemon loopback throughput and ingest-to-verdict latency.

The ``repro.serve`` daemon is the live deployment of the paper's
Figure 9 collector: v5 export datagrams arrive on a real UDP socket,
pass the sequence/loss accounting, a bounded queue, and the
micro-batching commit worker.  This bench measures what the whole
chain sustains on loopback — records per second from first datagram to
drained report — and the ingest-to-verdict latency distribution the
commit worker samples per record (time from queue admission to the
batch commit that produced its verdict).

Latency percentiles come from :meth:`CommitWorker.latency_percentile`,
i.e. the same reservoir the ``/metrics`` endpoint exports, so the bench
doubles as a check that the operator-facing numbers are plumbed.

Set ``INFILTER_BENCH_QUICK=1`` to run a reduced trace (CI smoke: checks
the machinery and the reconciliation, not the throughput floor).
"""

import os
import socket
import time

import asyncio

from _report import report, table

from repro.flowgen import Dagflow, SubBlockSpace, eia_allocation, synthesize_trace
from repro.netflow.v5 import datagrams_for
from repro.obs import MetricsRegistry
from repro.serve import ServeConfig, ServeDaemon
from repro.util import Prefix, SeededRng
from tests.conftest import make_detector

QUICK = os.environ.get("INFILTER_BENCH_QUICK", "") not in ("", "0")

#: Enough records that steady-state batch commits, not daemon start-up,
#: dominate the wall clock; the quick run only checks the machinery.
_RECORDS = 3_000 if QUICK else 30_000
_SEED = 20130


def _legal_trace(eia_plan, target_prefix):
    rng = SeededRng(_SEED, "serve-bench")
    dagflow = Dagflow(
        "bench",
        target_prefix=target_prefix,
        udp_port=9000,
        source_blocks=eia_plan[0],
        rng=rng.fork("df"),
    )
    trace = synthesize_trace(_RECORDS, rng=rng.fork("trace"))
    return [lr.record.with_key(input_if=0) for lr in dagflow.replay(trace)]


def test_e14_serve_loopback_throughput():
    space = SubBlockSpace()
    eia_plan = eia_allocation(space)
    target_prefix = Prefix.parse("198.18.0.0/16")
    records = _legal_trace(eia_plan, target_prefix)
    detector = make_detector(
        eia_plan, target_prefix, seed=_SEED, n_train=600
    )
    config = ServeConfig(
        port=0,
        queue_capacity=65_536,
        batch_size=512,
        max_records=len(records),
        idle_exit_s=2.0,
    )

    async def main():
        daemon = ServeDaemon(detector, config, registry=MetricsRegistry())
        task = asyncio.ensure_future(daemon.run())
        await asyncio.wait_for(daemon.wait_started(), timeout=10)
        assert daemon.address is not None
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        start = time.perf_counter()
        try:
            count = 0
            for datagram in datagrams_for(records, sys_uptime=0, unix_secs=0):
                sender.sendto(datagram, daemon.address)
                count += 1
                if count % 8 == 0:
                    await asyncio.sleep(0)
        finally:
            sender.close()
        run_report = await asyncio.wait_for(task, timeout=300)
        elapsed = time.perf_counter() - start
        return daemon, run_report, elapsed

    daemon, run_report, elapsed = asyncio.run(main())

    # Machinery: every record has exactly one fate, and the daemon drained.
    assert run_report.records_collected + run_report.lost_flows == len(records)
    assert (
        run_report.records_committed
        == run_report.records_enqueued - run_report.records_shed
    )
    assert run_report.cursor == run_report.records_committed
    assert run_report.records_committed > 0

    fps = run_report.records_committed / elapsed if elapsed else 0.0
    p50 = daemon.worker.latency_percentile(0.50)
    p99 = daemon.worker.latency_percentile(0.99)
    assert 0.0 <= p50 <= p99

    report(
        "E14_serve_throughput",
        [
            *table(
                ["metric", "value"],
                [
                    ["records sent", len(records)],
                    ["records committed", run_report.records_committed],
                    ["lost in transport", run_report.lost_flows],
                    ["shed at queue", run_report.records_shed],
                    ["batches", run_report.batches],
                    ["wall clock", f"{elapsed:.3f}s"],
                    ["throughput", f"{fps:,.0f} records/s"],
                ],
            ),
            "",
            *table(
                ["latency (ingest -> verdict)", "seconds"],
                [
                    ["p50", f"{p50:.6f}"],
                    ["p99", f"{p99:.6f}"],
                ],
            ),
        ],
    )
    if not QUICK:
        # Loopback on a warm detector comfortably clears 10k records/s;
        # regressions an order of magnitude below that are real bugs,
        # not noise.
        assert fps >= 10_000, (
            f"serve throughput {fps:,.0f} records/s below the 10k floor"
        )
