#!/usr/bin/env python
"""The NetFlow substrate end to end, plus the observability layer.

Walks the full Figure 9 data path at the plumbing level: packets hit a
border router's flow cache, expire into flow records, ship as NetFlow v5
datagrams, land in a collector, get persisted to a flow file, and come
back out as flow-report statistics — then feeds the records (and a
spoofed batch) through the Enhanced InFilter with a dedicated metrics
registry and prints the resulting Prometheus-style snapshot: per-stage
flow counters, EIA/Scan/NNS latency histograms, scan and alert counters
(catalogued in docs/observability.md).

Run:  python examples/netflow_pipeline.py
"""

import io
import os
from dataclasses import replace

from repro.core import EnhancedInFilter, PipelineConfig
from repro.obs import MetricsRegistry, render_prometheus
from repro.util import Prefix
from repro.netflow import (
    ExporterConfig,
    FlowCollector,
    FlowExporter,
    Packet,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_FIN,
    TCP_SYN,
    FlowKey,
    build_report,
    datagrams_for,
    read_flow_file,
    write_flow_file,
)
from repro.util import parse_ipv4

#: The CI examples-smoke job sets INFILTER_EXAMPLE_QUICK=1 to bound
#: iteration counts; the full-size run is the default.
QUICK = os.environ.get("INFILTER_EXAMPLE_QUICK") == "1"


def main() -> None:
    # One registry for the whole walkthrough: every component below
    # publishes into it, and step 5 renders the combined snapshot.
    registry = MetricsRegistry()

    # --- 1. a border router accounts packets into flows -----------------
    exporter = FlowExporter(
        ExporterConfig(idle_timeout_ms=5_000, active_timeout_ms=60_000),
        enabled_interfaces=[1],        # only the peer-facing interface
    )
    clients = [parse_ipv4(f"24.{i}.7.{i + 1}") for i in range(20)]
    server = parse_ipv4("198.18.0.80")
    records = []
    now = 0
    for round_number in range(2 if QUICK else 6):
        for index, client in enumerate(clients):
            key = FlowKey(
                src_addr=client, dst_addr=server, protocol=PROTO_TCP,
                src_port=30_000 + index, dst_port=80, input_if=1,
            )
            records += exporter.observe(Packet(key, 60, now, TCP_SYN))
            records += exporter.observe(Packet(key, 1_200, now + 30, TCP_ACK))
            records += exporter.observe(Packet(key, 52, now + 60, TCP_FIN))
            now += 100
    # A DNS query on a *disabled* interface is ignored entirely.
    records += exporter.observe(
        Packet(
            FlowKey(src_addr=clients[0], dst_addr=server, protocol=PROTO_UDP,
                    src_port=5353, dst_port=53, input_if=9),
            80, now,
        )
    )
    records += exporter.sweep(now + 60_000)
    print(f"router exported {len(records)} flows"
          f" ({exporter.flows_exported} total, cache now"
          f" {exporter.cache_occupancy} entries)")

    # --- 2. export over the v5 wire to a collector ------------------------
    collector = FlowCollector(registry=registry)
    collected = [
        record
        for datagram in datagrams_for(iter(records), sys_uptime=now, unix_secs=0)
        for record in collector.receive(datagram, source=9001)
    ]
    stats = collector.stats
    print(f"collector: {stats.datagrams} datagrams, {stats.records} records,"
          f" {stats.lost_flows} lost, {stats.decode_errors} decode errors")

    # --- 3. persist to a flow file and read it back -----------------------
    buffer = io.BytesIO()
    write_flow_file(buffer, collected)
    buffer.seek(0)
    restored = read_flow_file(buffer)
    assert restored == collected
    print(f"flow file round-trip: {len(restored)} records,"
          f" {buffer.getbuffer().nbytes} bytes")

    # --- 4. flow-report statistics ----------------------------------------
    report = build_report(restored, group_by=("dst_port",))
    print("\nper-destination-port report:")
    print(report.render())

    # --- 5. the detector, with metrics enabled ----------------------------
    # The clients' 24.x space is expected at peer 1; train the NNS model
    # on the legal web traffic, then replay it alongside a spoofed batch:
    # benign-looking flows from unexpected space (cleared by NNS) and a
    # single-packet UDP sweep over many hosts (a network scan).
    detector = EnhancedInFilter(
        PipelineConfig.enhanced_default(), registry=registry
    )
    detector.preload_eia(1, [Prefix.parse("24.0.0.0/11")])
    detector.train(restored)
    spoofed = parse_ipv4("191.0.2.7")
    lookalikes = [
        replace(record, key=replace(record.key, src_addr=spoofed))
        for record in restored[:40]
    ]
    # After 10 benign assessments the learning rule absorbs 191.0.0.0/11
    # into peer 1's EIA set, so the scan probes spoof a *different* block.
    probes = [
        replace(
            restored[0],
            key=replace(
                restored[0].key,
                src_addr=parse_ipv4("203.0.113.99"),
                dst_addr=parse_ipv4(f"198.18.1.{host}"),
                protocol=PROTO_UDP,
                src_port=4000,
                dst_port=1434,
            ),
            packets=1,
            octets=404,
            tcp_flags=0,
        )
        for host in range(1, 13)
    ]
    for record in restored + lookalikes + probes:
        detector.process(record)
    stats = detector.stats
    print(
        f"detector: {stats.processed} flows, {stats.legal} legal,"
        f" {stats.benign} benign, {stats.attacks} attacks"
        f" ({len(detector.alert_sink)} alerts)"
    )

    # --- 6. the observability snapshot ------------------------------------
    print("\nPrometheus-style metrics snapshot:")
    print(render_prometheus(registry), end="")


if __name__ == "__main__":
    main()
