"""Tests for show-ip-bgp rendering/parsing and ingress-map derivation.

Includes the paper's Section 3.2 worked example: target AS 1 reachable
via 4.0.0.0 (classful /8) and the more specific 4.2.101.0/24, where the
/24 redirects sources 1224 and 38 from peer 3356 to peer 6325.
"""

import pytest

from repro.routing.bgp import CollectorEntry
from repro.routing.table import (
    IngressMap,
    ParsedRoute,
    derive_ingress_map,
    parse_show_ip_bgp,
    render_show_ip_bgp,
)
from repro.util.errors import RoutingError
from repro.util.ip import Prefix, parse_ipv4

# The paper's sample table, abbreviated to the lines the example uses.
PAPER_TABLE = """\
   Network            Next Hop            Path
*  4.0.0.0            193.0.0.56          3333 9057 3356 1 i
*                     217.75.96.60        16150 8434 286 1 i
*                     141.142.12.1        1224 38 10514 3356 1 i
*  4.2.101.0/24       141.142.12.1        1224 38 6325 1 i
*                     202.249.2.86        7500 2497 1 i
*                     203.194.0.5         9942 1 i
*                     66.203.205.62       852 1 i
*                     167.142.3.6         5056 1 e
*                     206.220.240.95      10764 1 i
*                     157.130.182.254     19092 1 i
*                     203.62.252.26       1221 4637 1 i
*                     202.232.1.91        2497 1 i
"""


class TestParse:
    def test_parses_all_vantage_lines(self):
        routes = parse_show_ip_bgp(PAPER_TABLE)
        assert len(routes) == 12

    def test_classful_network_inherited_by_continuations(self):
        routes = parse_show_ip_bgp(PAPER_TABLE)
        assert routes[0].prefix == Prefix.parse("4.0.0.0/8")
        assert routes[1].prefix == Prefix.parse("4.0.0.0/8")
        assert routes[3].prefix == Prefix.parse("4.2.101.0/24")
        assert routes[4].prefix == Prefix.parse("4.2.101.0/24")

    def test_paths_and_next_hops(self):
        routes = parse_show_ip_bgp(PAPER_TABLE)
        assert routes[2].path == (1224, 38, 10514, 3356, 1)
        assert routes[2].next_hop == "141.142.12.1"

    def test_origin_codes_stripped(self):
        routes = parse_show_ip_bgp(PAPER_TABLE)
        # The "5056 1 e" external line parses like the internal ones.
        assert (5056, 1) in [r.path[:2] for r in routes]

    def test_best_marker(self):
        text = "*> 4.0.0.0            1.2.3.4             10 20 i\n"
        (route,) = parse_show_ip_bgp(text)
        assert route.best

    def test_non_route_lines_ignored(self):
        routes = parse_show_ip_bgp(
            "BGP table version is 100\n" + PAPER_TABLE + "\nTotal 12\n"
        )
        assert len(routes) == 12

    def test_bad_as_token_rejected(self):
        with pytest.raises(RoutingError):
            parse_show_ip_bgp("*  4.0.0.0    1.2.3.4    10 bogus i\n")


class TestRenderRoundTrip:
    def entries(self):
        p = Prefix.parse("4.183.0.0/16")
        return [
            CollectorEntry(prefix=p, next_hop=parse_ipv4("141.142.0.2"), path=(5, 2, 9)),
            CollectorEntry(
                prefix=p, next_hop=parse_ipv4("141.142.0.3"), path=(2, 9), best=True
            ),
        ]

    def test_round_trip(self):
        text = render_show_ip_bgp(self.entries())
        routes = parse_show_ip_bgp(text)
        assert len(routes) == 2
        assert routes[0].path == (5, 2, 9)
        assert routes[1].best
        assert all(r.prefix == Prefix.parse("4.183.0.0/16") for r in routes)

    def test_network_cell_printed_once(self):
        text = render_show_ip_bgp(self.entries())
        assert text.count("4.183.0.0/16") == 1


class TestDeriveIngressMap:
    def test_paper_worked_example(self):
        routes = parse_show_ip_bgp(PAPER_TABLE)
        mapping = derive_ingress_map(routes, 1, parse_ipv4("4.2.101.20"))
        # From the /8: 3333, 9057, 10514 -> 3356; 16150, 8434 -> 286.
        assert mapping.peer_of_source[3333] == 3356
        assert mapping.peer_of_source[9057] == 3356
        assert mapping.peer_of_source[10514] == 3356
        assert mapping.peer_of_source[16150] == 286
        assert mapping.peer_of_source[8434] == 286
        # The /24 overrides 1224 and 38 to peer 6325 (the paper's note).
        assert mapping.peer_of_source[1224] == 6325
        assert mapping.peer_of_source[38] == 6325
        # Single-hop vantages map to themselves as peers.
        assert mapping.peer_of_source[7500] == 2497
        assert mapping.peer_of_source[1221] == 4637

    def test_peer_set_matches_paper(self):
        routes = parse_show_ip_bgp(PAPER_TABLE)
        mapping = derive_ingress_map(routes, 1, parse_ipv4("4.2.101.20"))
        assert {3356, 286, 6325, 2497, 4637} <= mapping.peer_ases()

    def test_address_outside_specific_prefix_uses_covering_block(self):
        routes = parse_show_ip_bgp(PAPER_TABLE)
        mapping = derive_ingress_map(routes, 1, parse_ipv4("4.9.9.9"))
        # 4.9.9.9 is outside 4.2.101.0/24: 1224 and 38 stay on 3356.
        assert mapping.peer_of_source[1224] == 3356
        assert mapping.peer_of_source[38] == 3356

    def test_other_origins_ignored(self):
        routes = parse_show_ip_bgp(PAPER_TABLE)
        mapping = derive_ingress_map(routes, 99, parse_ipv4("4.2.101.20"))
        assert mapping.peer_of_source == {}


class TestFractionalChange:
    def test_identical_maps_no_change(self):
        a = IngressMap(origin=1, peer_of_source={10: 1, 20: 2})
        assert a.fractional_change(a) == 0.0

    def test_one_of_two_changed(self):
        a = IngressMap(origin=1, peer_of_source={10: 1, 20: 2})
        b = IngressMap(origin=1, peer_of_source={10: 1, 20: 3})
        assert a.fractional_change(b) == pytest.approx(0.5)

    def test_appearing_source_counts_as_change(self):
        a = IngressMap(origin=1, peer_of_source={10: 1})
        b = IngressMap(origin=1, peer_of_source={10: 1, 20: 2})
        assert a.fractional_change(b) == pytest.approx(0.5)

    def test_empty_maps(self):
        a = IngressMap(origin=1, peer_of_source={})
        assert a.fractional_change(a) == 0.0

    def test_symmetry(self):
        a = IngressMap(origin=1, peer_of_source={10: 1, 20: 2, 30: 3})
        b = IngressMap(origin=1, peer_of_source={10: 2, 40: 1})
        assert a.fractional_change(b) == b.fractional_change(a)
