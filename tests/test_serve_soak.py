"""Loopback soak: ≥100k NetFlow records through the serving daemon.

One sustained run pushes well over one hundred thousand v5-encoded flow
records through a real UDP socket into a :class:`ServeDaemon` and then
reconciles every counter in the report: each record sent is accounted
for exactly once as committed, shed, or lost in transport.  The test is
the repo's evidence that the serve path holds up at realistic volume,
not just on toy batches.
"""

from __future__ import annotations

import socket
from typing import List

import asyncio

import pytest

from repro.flowgen import Dagflow, synthesize_trace
from repro.netflow.records import FlowRecord
from repro.netflow.v5 import MAX_RECORDS_PER_DATAGRAM, datagrams_for
from repro.obs import MetricsRegistry
from repro.serve import ServeConfig, ServeDaemon
from repro.util import SeededRng

#: Enough records that the soak is meaningfully over the 100k bar even
#: if the kernel sheds a little under burst.
_SOAK_RECORDS = 112_000
_SOAK_FLOOR = 100_000


@pytest.fixture(scope="module")
def soak_trace(eia_plan, target_prefix) -> List[FlowRecord]:
    rng = SeededRng(60486, "serve-soak")
    legal = Dagflow(
        "soak",
        target_prefix=target_prefix,
        udp_port=9000,
        source_blocks=eia_plan[0],
        rng=rng.fork("df"),
    )
    trace = synthesize_trace(_SOAK_RECORDS, rng=rng.fork("trace"))
    return [lr.record.with_key(input_if=0) for lr in legal.replay(trace)]


def test_soak_100k_records_reconcile(eia_plan, target_prefix, soak_trace):
    from tests.conftest import make_detector

    detector = make_detector(eia_plan, target_prefix, seed=2020, n_train=600)
    config = ServeConfig(
        port=0,
        queue_capacity=131_072,
        batch_size=512,
        max_records=len(soak_trace),
        idle_exit_s=2.0,
    )

    async def main():
        daemon = ServeDaemon(detector, config, registry=MetricsRegistry())
        task = asyncio.ensure_future(daemon.run())
        await asyncio.wait_for(daemon.wait_started(), timeout=10)
        assert daemon.address is not None
        # The default 8 MiB receive buffer plus sender-side yielding keeps
        # kernel drops rare; the reconciliation below holds either way.
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sent_datagrams = 0
        try:
            for datagram in datagrams_for(
                soak_trace, sys_uptime=0, unix_secs=0
            ):
                sender.sendto(datagram, daemon.address)
                sent_datagrams += 1
                if sent_datagrams % 8 == 0:
                    await asyncio.sleep(0)
        finally:
            sender.close()
        report = await asyncio.wait_for(task, timeout=300)
        return daemon, report, sent_datagrams

    daemon, report, sent_datagrams = asyncio.run(main())

    expected_datagrams = -(-len(soak_trace) // MAX_RECORDS_PER_DATAGRAM)
    assert sent_datagrams == expected_datagrams

    # -- reconciliation: every sent record has exactly one fate ---------------
    # Transport: what never reached the collector shows up as sequence
    # gaps (loopback cannot duplicate or reorder).
    assert report.duplicate_datagrams == 0
    assert report.records_collected + report.lost_flows == len(soak_trace)
    # Queue: drop-oldest admits every collected record, then counts each
    # eviction as shed; the committer drains the remainder completely.
    assert report.records_enqueued == report.records_collected
    assert (
        report.records_committed
        == report.records_enqueued - report.records_shed
    )
    assert report.cursor == report.records_committed

    # -- volume: the soak must actually clear the 100k bar --------------------
    assert report.records_committed >= _SOAK_FLOOR
    assert report.batches >= report.records_committed // config.batch_size

    # The detector really processed them: its pipeline stats agree.
    assert daemon.detector.stats.processed == report.records_committed
