#!/usr/bin/env python
"""An operational deployment: packets in, IDMEF + trace-back out.

Uses the high-level :class:`~repro.serve.deployment.Deployment` API — the
assembled Figure 9 system, driven through the serve daemon's router,
queue and commit worker — rather than wiring the pieces by hand:

* two border routers with NetFlow accounting and EIA sets,
* a lossy UDP export path (NetFlow rides UDP; the collector's sequence
  accounting notices what the network ate),
* live detection with periodic model retraining from the benign
  reservoir,
* ingress trace-back over the accumulated alerts.

Run:  python examples/operational_deployment.py
"""

import os

from repro.core import PipelineConfig
from repro.flowgen import Dagflow, generate_attack, synthesize_trace
from repro.netflow.transport import ChannelConfig
from repro.serve import Deployment
from repro.util import Prefix, SeededRng

#: The CI examples-smoke job sets INFILTER_EXAMPLE_QUICK=1 to bound
#: iteration counts; the full-size run is the default.
QUICK = os.environ.get("INFILTER_EXAMPLE_QUICK") == "1"

WEST = Prefix.parse("24.0.0.0/11")
EAST = Prefix.parse("144.0.0.0/11")
TARGET = Prefix.parse("198.18.0.0/16")


def records_from(blocks, flows, *, peer, rng):
    dagflow = Dagflow(
        f"src-{peer}", target_prefix=TARGET, udp_port=9000 + peer,
        source_blocks=blocks, rng=rng,
    )
    return [lr.record.with_key(input_if=peer) for lr in dagflow.replay(flows)]


def main() -> None:
    rng = SeededRng(20260705)

    deployment = Deployment(
        PipelineConfig(),
        rng=rng.fork("deploy"),
        channel_config=ChannelConfig(loss_probability=0.02),
    )
    deployment.add_border_router("br-west", 0, [WEST])
    deployment.add_border_router("br-east", 1, [EAST])

    # Day 0: train on observed traffic.
    training = records_from(
        [WEST],
        synthesize_trace(600 if QUICK else 3000, rng=rng.fork("t0")),
        peer=0,
        rng=rng.fork("d0"),
    )
    deployment.train(training)
    print(f"trained on {len(training)} flows")

    # Business as usual on both borders.
    deployment.ingest_records(
        0,
        records_from([WEST],
                     synthesize_trace(120 if QUICK else 600, rng=rng.fork("w")),
                     peer=0, rng=rng.fork("dw")),
    )
    deployment.ingest_records(
        1,
        records_from([EAST],
                     synthesize_trace(120 if QUICK else 600, rng=rng.fork("e")),
                     peer=1, rng=rng.fork("de")),
    )
    print(f"peacetime: {deployment.detector.stats.processed} flows assessed,"
          f" {len(deployment.alerts())} alerts")

    # The model refreshes itself from the benign reservoir.
    used = deployment.retrain()
    print(f"periodic retraining used {used} reservoir flows")

    # An Idlescan probes the target through the west border, spoofing
    # east-owned addresses.
    scan = generate_attack("host_scan", rng=rng.fork("scan"))
    deployment.ingest_records(
        0, records_from([EAST], scan, peer=0, rng=rng.fork("dscan"))
    )
    alerts = deployment.alerts()
    print(f"\nafter the scan: {len(alerts)} alerts")
    print("first alert:", alerts[0].classification, "at stage", alerts[0].stage)

    report = deployment.ingress_report()
    print("trace-back:", report.summary())

    channel = deployment.channel_stats()
    print(f"\ntransport: {channel.sent} datagrams sent,"
          f" {channel.lost} lost in the network,"
          f" collector accounted {deployment.daemon.report().lost_flows}"
          f" lost flows via sequence gaps")


if __name__ == "__main__":
    main()
