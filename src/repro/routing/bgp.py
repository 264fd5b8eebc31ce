"""BGP best-path computation under Gao–Rexford policies.

Given an :class:`~repro.routing.topology.ASTopology`, this module computes
each AS's best path toward an origin AS, respecting the standard
valley-free export rules:

* a route learned from a **customer** is exported to every neighbor;
* a route learned from a **peer** or a **provider** is exported only to
  customers;
* preference at each AS: customer-learned > peer-learned >
  provider-learned, then higher local-pref for the announcing neighbor,
  then shorter AS path, then lowest neighbor ASN.

:class:`RouteCollector` emulates a Routeviews-style collector that peers
with many vantage ASes and records each one's best path per prefix — the
data source for the Section 3.2 validation study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.routing.topology import ASTopology
from repro.util.errors import RoutingError
from repro.util.ip import Prefix

__all__ = ["Route", "best_paths", "CollectorEntry", "RouteCollector"]

_CLASS_RANK = {"customer": 0, "peer": 1, "provider": 2, "origin": -1}


@dataclass(frozen=True)
class Route:
    """A selected route at some AS toward an origin.

    ``path`` is the AS path from (but excluding) the holder to the origin
    inclusive: at the origin itself the path is empty; at a neighbor of the
    origin it is ``(origin,)``.
    """

    learned_from: str
    path: Tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.path)


def best_paths(
    topology: ASTopology,
    origin: int,
    *,
    allowed_first_hops: Optional[FrozenSet[int]] = None,
) -> Dict[int, Route]:
    """Best valley-free path from every AS to ``origin``.

    ``allowed_first_hops`` restricts which of the origin's neighbors the
    origin announces to — the selective-announcement traffic engineering
    that makes a more-specific prefix take a different ingress than its
    covering block (the paper's 4.2.101.0/24 vs 4.0.0.0/8 example).

    Returns a mapping ASN → :class:`Route` for every AS that has a route;
    unreachable ASes are absent.
    """
    if origin not in topology.nodes:
        raise RoutingError(f"origin AS {origin} not in topology")

    def announces_to(neighbor: int) -> bool:
        return allowed_first_hops is None or neighbor in allowed_first_hops

    # --- Stage 1: customer routes (propagate up provider chains) --------
    customer_route: Dict[int, Route] = {origin: Route("origin", ())}
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > len(topology.nodes) + 2:
            raise RoutingError("customer-route relaxation failed to converge")
        for asn, node in topology.nodes.items():
            if asn == origin:
                continue
            best: Optional[Tuple[Tuple[int, int, int], Route]] = None
            for customer in topology.customers_of(asn):
                offered = customer_route.get(customer)
                if offered is None or asn in offered.path or asn == customer:
                    continue
                if customer == origin and not announces_to(asn):
                    continue
                candidate = Route("customer", (customer,) + offered.path)
                rank = (-node.pref_for(customer), candidate.length, customer)
                if best is None or rank < best[0]:
                    best = (rank, candidate)
            if best is not None:
                current = customer_route.get(asn)
                if current is None or current.path != best[1].path:
                    customer_route[asn] = best[1]
                    changed = True

    # --- Stage 2: peer routes (one lateral hop off a customer chain) ----
    peer_route: Dict[int, Route] = {}
    for asn, node in topology.nodes.items():
        if asn == origin:
            continue
        best = None
        for peer in topology.peers_of(asn):
            offered = customer_route.get(peer)
            if offered is None or asn in offered.path:
                continue
            if peer == origin and not announces_to(asn):
                continue
            candidate = Route("peer", (peer,) + offered.path)
            rank = (-node.pref_for(peer), candidate.length, peer)
            if best is None or rank < best[0]:
                best = (rank, candidate)
        if best is not None:
            peer_route[asn] = best[1]

    # --- Stage 3: provider routes (propagate down customer chains) ------
    provider_route: Dict[int, Route] = {}

    def exportable(asn: int) -> Optional[Route]:
        """What ``asn`` offers its customers: its overall best route."""
        if asn == origin:
            return customer_route[origin]
        for table in (customer_route, peer_route, provider_route):
            route = table.get(asn)
            if route is not None:
                return route
        return None

    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > len(topology.nodes) + 2:
            raise RoutingError("provider-route relaxation failed to converge")
        for asn, node in topology.nodes.items():
            if asn == origin or asn in customer_route:
                # A customer-class route always wins; skip to keep the
                # relaxation cheap (selection below would ignore this
                # provider route anyway).
                continue
            best = None
            for provider in topology.providers_of(asn):
                offered = exportable(provider)
                if offered is None or asn in offered.path or provider == asn:
                    continue
                if provider == origin:
                    if not announces_to(asn):
                        continue
                    candidate = Route("provider", (origin,))
                else:
                    candidate = Route("provider", (provider,) + offered.path)
                if asn in candidate.path[1:]:
                    continue
                rank = (-node.pref_for(provider), candidate.length, provider)
                if best is None or rank < best[0]:
                    best = (rank, candidate)
            if best is not None:
                current = provider_route.get(asn)
                if current is None or current.path != best[1].path:
                    provider_route[asn] = best[1]
                    changed = True

    # --- Final selection -------------------------------------------------
    selected: Dict[int, Route] = {}
    for asn in topology.nodes:
        route = (
            customer_route.get(asn)
            or peer_route.get(asn)
            or provider_route.get(asn)
        )
        if route is not None:
            selected[asn] = route
    return selected


@dataclass(frozen=True)
class CollectorEntry:
    """One line of collector state: a vantage session's best path."""

    prefix: Prefix
    next_hop: int
    path: Tuple[int, ...]
    best: bool = False

    @property
    def vantage(self) -> int:
        return self.path[0]

    @property
    def origin(self) -> int:
        return self.path[-1]


class RouteCollector:
    """A Routeviews-style route collector.

    The collector holds BGP sessions with ``vantages``; each session
    contributes that AS's *best* path for every prefix, mirroring the
    paper's observation that "each AS only advertises to its peers the
    best AS-level path it knows".
    """

    def __init__(self, topology: ASTopology, vantages: Sequence[int]) -> None:
        unknown = [asn for asn in vantages if asn not in topology.nodes]
        if unknown:
            raise RoutingError(f"vantage ASes not in topology: {unknown}")
        self.topology = topology
        self.vantages = list(vantages)
        self._route_cache: Dict[Tuple[int, Optional[FrozenSet[int]]], Dict[int, Route]] = {}
        self._route_epoch = -1

    def _session_address(self, vantage: int) -> int:
        # Deterministic per-session address in 141.142.0.0/16, matching the
        # flavor of real collector output.
        return Prefix.parse("141.142.0.0/16").network + (vantage % 65_000) + 1

    def table_for(
        self,
        prefix: Prefix,
        origin: int,
        *,
        allowed_first_hops: Optional[FrozenSet[int]] = None,
    ) -> List[CollectorEntry]:
        """Collector entries for one prefix."""
        if self._route_epoch != self.topology.policy_epoch:
            self._route_cache.clear()
            self._route_epoch = self.topology.policy_epoch
        cache_key = (origin, allowed_first_hops)
        routes = self._route_cache.get(cache_key)
        if routes is None:
            routes = best_paths(
                self.topology, origin, allowed_first_hops=allowed_first_hops
            )
            self._route_cache[cache_key] = routes
        entries: List[CollectorEntry] = []
        for vantage in self.vantages:
            route = routes.get(vantage)
            if route is None:
                continue
            if vantage == origin:
                continue
            entries.append(
                CollectorEntry(
                    prefix=prefix,
                    next_hop=self._session_address(vantage),
                    path=(vantage,) + route.path,
                )
            )
        if entries:
            # The collector's own best: shortest path, lowest vantage.
            best_index = min(
                range(len(entries)),
                key=lambda i: (len(entries[i].path), entries[i].path[0]),
            )
            entries[best_index] = CollectorEntry(
                prefix=entries[best_index].prefix,
                next_hop=entries[best_index].next_hop,
                path=entries[best_index].path,
                best=True,
            )
        return entries

    def snapshot(
        self,
        targets: Iterable[Tuple[Prefix, int]],
        *,
        announcements: Optional[Dict[Prefix, FrozenSet[int]]] = None,
    ) -> List[CollectorEntry]:
        """Full-table snapshot over the given (prefix, origin) pairs."""
        entries: List[CollectorEntry] = []
        for prefix, origin in targets:
            allowed = None
            if announcements is not None:
                allowed = announcements.get(prefix)
            entries.extend(
                self.table_for(prefix, origin, allowed_first_hops=allowed)
            )
        return entries
