"""End-to-end integration tests across subsystems.

These tests exercise whole-paper paths rather than single modules:
packets → exporter → v5 wire → collector → detector; routing data →
ingress map → EIA initialisation → detection; full testbed runs.
"""

import pytest

from repro.core import BasicInFilter, EIAConfig, EnhancedInFilter, PipelineConfig, Verdict
from repro.flowgen import Dagflow, SubBlockSpace, eia_allocation, generate_attack, synthesize_trace
from repro.netflow.collector import FlowCollector
from repro.netflow.exporter import ExporterConfig, FlowExporter, Packet
from repro.netflow.records import PROTO_UDP, FlowKey
from repro.netflow.v5 import datagrams_for
from repro.routing import (
    RouteCollector,
    TracerouteSimulator,
    derive_ingress_map,
    generate_internet,
    parse_show_ip_bgp,
    parse_traceroute,
    render_show_ip_bgp,
    TopologyParams,
)
from repro.util import Prefix, SeededRng

from tests.conftest import make_detector

TARGET = Prefix.parse("198.18.0.0/16")


class TestPacketToDetectionPath:
    """Packets through a router's flow cache, over the v5 wire, into the
    collector, stamped by the port mux, assessed by the detector."""

    def test_full_path(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix, seed=31337)
        exporter = FlowExporter(ExporterConfig(idle_timeout_ms=100))

        # A spoofed single-packet flow (Slammer-like) plus a legal flow.
        spoofed_src = eia_plan[5][0].nth_address(77)   # peer 5 space...
        legal_src = eia_plan[0][0].nth_address(42)     # peer 0 space
        packets = [
            Packet(
                key=FlowKey(
                    src_addr=spoofed_src,
                    dst_addr=target_prefix.nth_address(9),
                    protocol=PROTO_UDP,
                    src_port=4444,
                    dst_port=1434,
                ),
                length=404,
                timestamp_ms=0,
            ),
            Packet(
                key=FlowKey(
                    src_addr=legal_src,
                    dst_addr=target_prefix.nth_address(10),
                    protocol=PROTO_UDP,
                    src_port=5555,
                    dst_port=53,
                ),
                length=120,
                timestamp_ms=10,
            ),
        ]
        records = []
        for packet in packets:
            records.extend(exporter.observe(packet))
        records.extend(exporter.sweep(10_000))
        assert len(records) == 2

        # ...over the wire into the collector, arriving on peer 0's port.
        collector = FlowCollector()
        stamped = [
            r.with_key(input_if=0)
            for datagram in datagrams_for(iter(records), sys_uptime=0, unix_secs=0)
            for r in collector.receive(datagram, source=9000)
        ]

        decisions = {r.key.dst_port: detector.process(r) for r in stamped}
        assert decisions[53].verdict == Verdict.LEGAL        # legal src @ peer 0
        assert decisions[1434].verdict != Verdict.LEGAL      # peer-5 src @ peer 0


class TestRoutingToEiaPath:
    """BGP table → parsed routes → ingress map → EIA preload → check."""

    def test_routing_derived_eia(self):
        rng = SeededRng(808)
        topology = generate_internet(
            TopologyParams(n_tier1=4, n_tier2=10, n_stub=24), rng=rng
        )
        prefix, origin = topology.all_prefixes()[0]
        vantages = [asn for asn in sorted(topology.nodes) if asn != origin][:18]
        collector = RouteCollector(topology, vantages)
        text = render_show_ip_bgp(collector.table_for(prefix, origin))
        mapping = derive_ingress_map(
            parse_show_ip_bgp(text), origin, prefix.nth_address(20)
        )
        assert mapping.peer_of_source

        # Use the AS-level map to initialise EIA sets: one representative
        # /24 per source AS.
        infilter = BasicInFilter(EIAConfig())
        block_of = {
            source: Prefix.from_address((44 << 24) + (source << 10), 24)
            for source in mapping.peer_of_source
        }
        infilter.initialize_from_ingress_map(
            {block_of[s]: peer for s, peer in mapping.peer_of_source.items()}
        )
        source, peer = next(iter(mapping.peer_of_source.items()))
        record_ok = _record(block_of[source].nth_address(3), peer)
        wrong_peer = peer + 1 if peer + 1 in mapping.peer_ases() else peer - 1
        record_bad = _record(block_of[source].nth_address(3), wrong_peer)
        assert not infilter.check(record_ok).suspect
        assert infilter.check(record_bad).suspect

    def test_traceroute_output_supports_eia_derivation(self):
        rng = SeededRng(809)
        topology = generate_internet(
            TopologyParams(n_tier1=4, n_tier2=10, n_stub=24), rng=rng
        )
        prefix, origin = topology.all_prefixes()[0]
        simulator = TracerouteSimulator(
            topology, rng=rng.fork("sim"), loss_probability=0.0
        )
        vantage = next(
            asn for asn in sorted(topology.nodes) if asn != origin
        )
        parsed = parse_traceroute(
            simulator.trace(vantage, prefix.nth_address(20)).render()
        )
        assert parsed.complete
        peer_router, border_router = parsed.last_hop_fqdn()
        assert peer_router != border_router


class TestDetectorLifecycle:
    def test_train_once_process_many(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix, seed=404)
        rng = SeededRng(405)
        legal = Dagflow(
            "ok", target_prefix=target_prefix, udp_port=9001,
            source_blocks=eia_plan[1], rng=rng.fork("ok"),
        )
        trace = synthesize_trace(300, rng=rng.fork("trace"))
        outcomes = [
            detector.process(lr.record.with_key(input_if=1)).verdict
            for lr in legal.replay(trace)
        ]
        assert outcomes.count(Verdict.LEGAL) == 300

    def test_mixed_attack_campaign(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix, seed=505)
        rng = SeededRng(506)
        foreign = [b for p, blocks in eia_plan.items() if p != 0 for b in blocks]
        spoofer = Dagflow(
            "spoof", target_prefix=target_prefix, udp_port=9000,
            source_blocks=foreign, rng=rng.fork("spoof"),
        )
        detected_types = set()
        for name in ("slammer", "tfn2k", "host_scan", "http_exploit"):
            flows = generate_attack(name, rng=rng.fork(name))
            for labelled in spoofer.replay(flows):
                decision = detector.process(labelled.record.with_key(input_if=0))
                if decision.is_attack:
                    detected_types.add(name)
        assert detected_types == {"slammer", "tfn2k", "host_scan", "http_exploit"}
        # Alerts reference the ingress peer for trace-back.
        assert all(a.observed_peer == 0 for a in detector.alert_sink.alerts)


def _record(src, peer):
    from repro.netflow.records import FlowRecord

    return FlowRecord(
        key=FlowKey(src_addr=src, dst_addr=1, protocol=6, dst_port=80, input_if=peer),
        packets=1,
        octets=100,
        first=0,
        last=0,
    )
