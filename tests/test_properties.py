"""Cross-module property-based tests on system invariants.

These complement the per-module suites with whole-subsystem invariants:
valley-freeness of every computed BGP path on randomly generated
topologies, packet/byte conservation through the exporter, scan-counter
consistency against a brute-force recount, and the address plan's
partition property under arbitrary parameters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ScanConfig
from repro.core.scan import ScanAnalyzer
from repro.flowgen.addressing import SubBlockSpace, route_change_allocations
from repro.netflow.exporter import ExporterConfig, FlowExporter, Packet
from repro.netflow.records import FlowKey
from repro.routing.bgp import best_paths
from repro.routing.topology import TopologyParams, generate_internet
from repro.util.rng import SeededRng


# --- BGP: every selected path is valley-free --------------------------------


@st.composite
def small_topologies(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    params = TopologyParams(
        n_tier1=draw(st.integers(min_value=2, max_value=4)),
        n_tier2=draw(st.integers(min_value=3, max_value=8)),
        n_stub=draw(st.integers(min_value=4, max_value=12)),
    )
    return generate_internet(params, rng=SeededRng(seed, "prop-topo"))


def _is_valley_free(topology, holder, path):
    """Check Gao-Rexford validity of ``(holder,) + path``.

    Legal shapes: zero or more customer->provider steps (uphill), at most
    one peer step, then zero or more provider->customer steps (downhill).
    """
    full = (holder,) + tuple(path)
    phase = "up"
    for here, there in zip(full, full[1:]):
        role = topology.adjacency(here, there).role_of(here)
        if phase == "up":
            if role == "customer":
                continue  # still climbing
            if role == "peer":
                phase = "down"
                continue
            phase = "down"  # provider->customer step starts the descent
            if role != "provider":
                return False
        else:
            if role != "provider":
                return False
    return True


@given(small_topologies(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_all_best_paths_are_valley_free(topology, pick_seed):
    rng = SeededRng(pick_seed, "prop-origin")
    origins = sorted(topology.nodes)
    origin = rng.choice(origins)
    routes = best_paths(topology, origin)
    assert origin in routes
    for holder, route in routes.items():
        if holder == origin:
            continue
        full = (holder,) + route.path
        # No loops.
        assert len(full) == len(set(full))
        # Ends at the origin.
        assert full[-1] == origin
        # Valley-free.
        assert _is_valley_free(topology, holder, route.path), (
            holder,
            route.path,
        )


@given(small_topologies(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_best_paths_cover_connected_nodes(topology, pick_seed):
    rng = SeededRng(pick_seed, "prop-origin2")
    origin = rng.choice(sorted(topology.nodes))
    routes = best_paths(topology, origin)
    # The generator always attaches every AS to the hierarchy, so every
    # node must have a route to every origin.
    assert set(routes) == set(topology.nodes)


# --- Exporter: conservation of packets and octets ---------------------------


@st.composite
def packet_batches(draw):
    count = draw(st.integers(min_value=1, max_value=80))
    packets = []
    timestamp = 0
    for _ in range(count):
        timestamp += draw(st.integers(min_value=0, max_value=2_000))
        packets.append(
            Packet(
                key=FlowKey(
                    src_addr=draw(st.integers(min_value=1, max_value=50)),
                    dst_addr=draw(st.integers(min_value=1, max_value=5)),
                    protocol=draw(st.sampled_from([6, 17])),
                    src_port=draw(st.integers(min_value=1, max_value=8)),
                    dst_port=80,
                ),
                length=draw(st.integers(min_value=20, max_value=1_500)),
                timestamp_ms=timestamp,
                tcp_flags=draw(st.sampled_from([0, 0x02, 0x10, 0x01, 0x04])),
            )
        )
    return packets


@given(packet_batches())
@settings(max_examples=40, deadline=None)
def test_exporter_conserves_packets_and_octets(batch):
    exporter = FlowExporter(
        ExporterConfig(idle_timeout_ms=500, active_timeout_ms=3_000, cache_size=16)
    )
    records = []
    for packet in batch:
        records.extend(exporter.observe(packet))
    records.extend(exporter.flush())
    assert sum(r.packets for r in records) == len(batch)
    assert sum(r.octets for r in records) == sum(p.length for p in batch)
    for record in records:
        assert record.first <= record.last


# --- Scan analysis: counters match a brute-force recount --------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),     # dst host
            st.integers(min_value=0, max_value=6),     # dst port
        ),
        min_size=1,
        max_size=120,
    )
)
@settings(max_examples=40, deadline=None)
def test_scan_counters_match_bruteforce(events):
    config = ScanConfig(buffer_size=20, network_scan_threshold=4, host_scan_threshold=4)
    analyzer = ScanAnalyzer(config)
    window = []
    for host, port in events:
        verdict = analyzer.observe(host, port)
        window.append((host, port))
        window = window[-config.buffer_size :]
        hosts_on_port = len({h for h, p in window if p == port})
        ports_on_host = len({p for h, p in window if h == host})
        expected = (
            hosts_on_port >= config.network_scan_threshold
            or ports_on_host >= config.host_scan_threshold
        )
        assert verdict.is_scan == expected, (window, host, port)


# --- Address plan: every allocation is a partition --------------------------


@given(
    st.integers(min_value=3, max_value=10),    # sources
    st.integers(min_value=4, max_value=40),    # blocks per source
    st.integers(min_value=1, max_value=2),     # change blocks (bounded by sources)
    st.integers(min_value=1, max_value=5),     # allocations
)
@settings(max_examples=30, deadline=None)
def test_route_change_allocations_partition(n_sources, per_source, change, n_allocs):
    space = SubBlockSpace()
    if n_sources * per_source > len(space) or change >= min(per_source, n_sources):
        return
    allocations = route_change_allocations(
        space,
        n_sources=n_sources,
        blocks_per_source=per_source,
        change_blocks=change,
        n_allocations=n_allocs,
    )
    assert len(allocations) == n_allocs
    for table in allocations:
        blocks = [b for allocation in table.values() for b in allocation.blocks]
        # Partition: no duplicates, right count per source.
        assert len(blocks) == len(set(blocks)) == n_sources * per_source
        for allocation in table.values():
            assert len(allocation.blocks) == per_source
