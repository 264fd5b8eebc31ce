"""Tests for valley-free best-path computation and the route collector."""

import pytest

from repro.routing.bgp import RouteCollector, best_paths
from repro.routing.topology import ASNode, ASTopology, Relationship
from repro.util.errors import RoutingError
from repro.util.ip import Prefix
from repro.util.rng import SeededRng


def diamond():
    """origin 10 -- providers 1 and 2 (peers of each other) -- customer 20.

         1 ——— 2        (peer)
        /  \\  /  \\
      10    20         (10, 20 customers of both)
    """
    topo = ASTopology()
    for asn, tier in ((1, 1), (2, 1), (10, 3), (20, 3)):
        topo.add_as(ASNode(asn=asn, tier=tier))
    topo.connect(1, 2, Relationship.PEER)
    topo.connect(10, 1, Relationship.CUSTOMER)
    topo.connect(10, 2, Relationship.CUSTOMER)
    topo.connect(20, 1, Relationship.CUSTOMER)
    topo.connect(20, 2, Relationship.CUSTOMER)
    return topo


def chain():
    """stub 30 -> transit 3 -> tier1 1 <- tier1 2 (peer) <- stub 40."""
    topo = ASTopology()
    for asn, tier in ((1, 1), (2, 1), (3, 2), (30, 3), (40, 3)):
        topo.add_as(ASNode(asn=asn, tier=tier))
    topo.connect(1, 2, Relationship.PEER)
    topo.connect(3, 1, Relationship.CUSTOMER)
    topo.connect(30, 3, Relationship.CUSTOMER)
    topo.connect(40, 2, Relationship.CUSTOMER)
    return topo


class TestBestPaths:
    def test_origin_has_empty_path(self):
        routes = best_paths(diamond(), 10)
        assert routes[10].path == ()
        assert routes[10].learned_from == "origin"

    def test_direct_provider_route(self):
        routes = best_paths(diamond(), 10)
        assert routes[1].path == (10,)
        assert routes[1].learned_from == "customer"

    def test_sibling_reaches_via_either_tier1(self):
        routes = best_paths(diamond(), 10)
        assert routes[20].path in ((1, 10), (2, 10))
        assert routes[20].learned_from == "provider"

    def test_peer_route_used_across_the_core(self):
        topo = chain()
        routes = best_paths(topo, 30)
        # AS 2 reaches the origin via its peer AS 1 (customer route at 1).
        assert routes[2].path == (1, 3, 30)
        assert routes[2].learned_from == "peer"
        # AS 40 inherits through its provider 2.
        assert routes[40].path == (2, 1, 3, 30)
        assert routes[40].learned_from == "provider"

    def test_valley_free_no_peer_to_peer_transit(self):
        # Add a third tier1 peered with both: routes must not cross two
        # peer links in sequence.
        topo = chain()
        topo.add_as(ASNode(asn=5, tier=1))
        topo.connect(5, 2, Relationship.PEER)
        routes = best_paths(topo, 40)
        # AS 5 can reach 40 via its peer 2 (2 has a customer route to 40).
        assert routes[5].path == (2, 40)
        # AS 1's route to 40 is via peer 2 as well — never via peer 5.
        assert routes[1].path == (2, 40)
        # AS 3 (customer of 1) inherits the provider route.
        assert routes[3].path == (1, 2, 40)

    def test_customer_route_preferred_over_shorter_peer_route(self):
        # Build: origin 50 is a customer of 3 and a peer of 1.  AS 1 must
        # still prefer... actually Gao-Rexford: 1 prefers its *customer*
        # chain (1 <- 3 <- 50, length 2) over the direct peer route
        # (1 ~ 50, length 1).
        topo = ASTopology()
        for asn, tier in ((1, 1), (3, 2), (50, 3)):
            topo.add_as(ASNode(asn=asn, tier=tier))
        topo.connect(3, 1, Relationship.CUSTOMER)
        topo.connect(50, 3, Relationship.CUSTOMER)
        topo.connect(50, 1, Relationship.PEER)
        routes = best_paths(topo, 50)
        assert routes[1].learned_from == "customer"
        assert routes[1].path == (3, 50)

    def test_local_pref_overrides_path_length_within_class(self):
        topo = diamond()
        # AS 20 prefers provider 2 strongly.
        topo.nodes[20].local_pref[2] = 200
        routes = best_paths(topo, 10)
        assert routes[20].path == (2, 10)
        topo.nodes[20].local_pref[2] = 100
        topo.nodes[20].local_pref[1] = 200
        routes = best_paths(topo, 10)
        assert routes[20].path == (1, 10)

    def test_tiebreak_lowest_neighbor(self):
        routes = best_paths(diamond(), 10)
        # Both providers offer equal-length routes to 20; lowest ASN wins.
        assert routes[20].path == (1, 10)

    def test_selective_announcement_restricts_first_hop(self):
        topo = diamond()
        routes = best_paths(topo, 10, allowed_first_hops=frozenset({2}))
        assert 1 not in routes or routes[1].path != (10,)
        assert routes[2].path == (10,)
        assert routes[20].path == (2, 10)

    def test_unknown_origin_rejected(self):
        with pytest.raises(RoutingError):
            best_paths(diamond(), 999)

    def test_disconnected_as_absent(self):
        topo = diamond()
        topo.add_as(ASNode(asn=99, tier=3))
        routes = best_paths(topo, 10)
        assert 99 not in routes

    def test_all_reachable_in_connected_graph(self):
        topo = chain()
        routes = best_paths(topo, 30)
        assert set(routes) == set(topo.nodes)

    def test_paths_never_contain_loops(self):
        topo = chain()
        for origin in topo.nodes:
            for asn, route in best_paths(topo, origin).items():
                full = (asn,) + route.path
                assert len(full) == len(set(full))


class TestRouteCollector:
    def test_rejects_unknown_vantage(self):
        with pytest.raises(RoutingError):
            RouteCollector(diamond(), [123])

    def test_entries_one_per_routed_vantage(self):
        topo = diamond()
        prefix = Prefix.parse("4.0.0.0/16")
        topo.nodes[10].prefixes.append(prefix)
        collector = RouteCollector(topo, [1, 2, 20])
        entries = collector.table_for(prefix, 10)
        assert len(entries) == 3
        assert {e.vantage for e in entries} == {1, 2, 20}

    def test_origin_vantage_excluded(self):
        topo = diamond()
        prefix = Prefix.parse("4.0.0.0/16")
        collector = RouteCollector(topo, [10, 1])
        entries = collector.table_for(prefix, 10)
        assert {e.vantage for e in entries} == {1}

    def test_exactly_one_best(self):
        topo = diamond()
        prefix = Prefix.parse("4.0.0.0/16")
        collector = RouteCollector(topo, [1, 2, 20])
        entries = collector.table_for(prefix, 10)
        assert sum(e.best for e in entries) == 1

    def test_cache_invalidated_by_policy_epoch(self):
        topo = diamond()
        prefix = Prefix.parse("4.0.0.0/16")
        collector = RouteCollector(topo, [20])
        (before,) = collector.table_for(prefix, 10)
        assert before.path == (20, 1, 10)
        # Re-prefer provider 2 at AS 20 and bump the epoch by hand.
        topo.nodes[20].local_pref[2] = 200
        topo.policy_epoch += 1
        (after,) = collector.table_for(prefix, 10)
        assert after.path == (20, 2, 10)

    def test_snapshot_covers_all_targets(self):
        topo = diamond()
        p1 = Prefix.parse("4.0.0.0/16")
        p2 = Prefix.parse("5.0.0.0/16")
        topo.nodes[10].prefixes.append(p1)
        topo.nodes[20].prefixes.append(p2)
        collector = RouteCollector(topo, [1, 2])
        entries = collector.snapshot([(p1, 10), (p2, 20)])
        assert {e.prefix for e in entries} == {p1, p2}
