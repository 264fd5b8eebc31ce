"""Rendering and parsing of ``show ip bgp`` tables, and ingress-map
derivation.

The Section 3.2 validation pipeline is textual on purpose: the collector
renders its state the way Routeviews dumps do, the study parses that text
back, and only then derives the peer-AS → source-AS-set mapping — the same
code path the paper ran against real ``show ip bgp`` output.

The derivation implements the paper's rule: given a best AS path
``a1 a2 ... ak origin`` for a prefix, every source AS ``ai`` on it reaches
the origin via peer AS ``ak`` (the AS adjacent to the origin), because each
AS advertises only its best path; and a more-specific prefix overrides a
covering one per source (the 4.2.101.0/24 vs 4.0.0.0/8 example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.routing.bgp import CollectorEntry
from repro.util.errors import RoutingError
from repro.util.ip import Prefix, format_ipv4

__all__ = [
    "ParsedRoute",
    "render_show_ip_bgp",
    "parse_show_ip_bgp",
    "IngressMap",
    "derive_ingress_map",
]


@dataclass(frozen=True)
class ParsedRoute:
    """One parsed table line."""

    prefix: Prefix
    next_hop: str
    path: Tuple[int, ...]
    best: bool = False

    @property
    def origin(self) -> int:
        return self.path[-1]


def render_show_ip_bgp(entries: Sequence[CollectorEntry]) -> str:
    """Render collector entries as a ``show ip bgp`` style table.

    Lines for one prefix share the Network cell (printed only on the first
    line), as real IOS output does; every path ends with the IGP origin
    code ``i``.
    """
    lines = ["   Network            Next Hop            Path"]
    last_prefix: Optional[Prefix] = None
    for entry in entries:
        marker = "*>" if entry.best else "* "
        network_cell = str(entry.prefix) if entry.prefix != last_prefix else ""
        last_prefix = entry.prefix
        path_text = " ".join(str(asn) for asn in entry.path)
        lines.append(
            f"{marker} {network_cell:<18} {format_ipv4(entry.next_hop):<19} "
            f"{path_text} i"
        )
    return "\n".join(lines) + "\n"


def parse_show_ip_bgp(text: str) -> List[ParsedRoute]:
    """Parse a ``show ip bgp`` style table back into routes.

    Handles the continuation convention (an empty Network cell inherits the
    previous line's prefix), both ``/len`` and classful bare networks, and
    the trailing origin code (``i``/``e``/``?``).
    """
    routes: List[ParsedRoute] = []
    current_prefix: Optional[Prefix] = None
    for raw_line in text.splitlines():
        line = raw_line.rstrip()
        if not line or line.lstrip().startswith("Network"):
            continue
        if not line.startswith("*"):
            continue
        best = line.startswith("*>")
        body = line[2:].strip()
        tokens = body.split()
        if not tokens:
            continue
        index = 0
        if "." in tokens[0] and not tokens[0].isdigit():
            # A Network cell is present (otherwise the line starts at the
            # Next Hop column, which is also dotted — disambiguate by
            # column position: a continuation line's first dotted token is
            # the next hop, so check whether a second dotted token follows).
            if len(tokens) > 1 and "." in tokens[1]:
                current_prefix = Prefix.parse_classful(tokens[0])
                index = 1
        if current_prefix is None:
            raise RoutingError("table line before any Network cell")
        if index >= len(tokens) or "." not in tokens[index]:
            raise RoutingError(f"missing next hop in line {raw_line!r}")
        next_hop = tokens[index]
        path_tokens = tokens[index + 1 :]
        if path_tokens and path_tokens[-1] in {"i", "e", "?"}:
            path_tokens = path_tokens[:-1]
        if not path_tokens:
            continue  # a local route with an empty path — not a vantage line
        try:
            path = tuple(int(tok) for tok in path_tokens)
        except ValueError:
            raise RoutingError(f"non-numeric AS in path of line {raw_line!r}") from None
        routes.append(
            ParsedRoute(
                prefix=current_prefix, next_hop=next_hop, path=path, best=best
            )
        )
    return routes


@dataclass
class IngressMap:
    """The peer-AS → source-AS-set mapping for one target network."""

    origin: int
    #: source ASN → the peer AS its traffic enters the target through.
    peer_of_source: Dict[int, int]

    def peer_ases(self) -> Set[int]:
        return set(self.peer_of_source.values())

    def fractional_change(self, other: "IngressMap") -> float:
        """Fraction of source ASes whose ingress peer differs vs ``other``.

        Sources present in only one reading count as changed; the
        denominator is the union of sources, so the value is in [0, 1].
        """
        sources = set(self.peer_of_source) | set(other.peer_of_source)
        if not sources:
            return 0.0
        changed = sum(
            1
            for source in sources
            if self.peer_of_source.get(source) != other.peer_of_source.get(source)
        )
        return changed / len(sources)


def derive_ingress_map(
    routes: Iterable[ParsedRoute],
    origin: int,
    target_address: int,
) -> IngressMap:
    """Derive the ingress mapping for ``target_address`` of AS ``origin``.

    Only prefixes covering the target address participate.  For each
    source AS the most specific covering prefix on which it appears wins;
    within one prefix the suffix of any best-advertised path through that
    source determines its peer (ties broken toward the longer observed
    suffix, i.e. the vantage closest to the collector, deterministically).
    """
    by_prefix: Dict[Prefix, Dict[int, int]] = {}
    for route in routes:
        if route.origin != origin or not route.prefix.contains(target_address):
            continue
        mapping = by_prefix.setdefault(route.prefix, {})
        if len(route.path) < 2:
            continue
        peer = route.path[-2]
        # Every AS on the path upstream of the peer is a source that, per
        # the best-path advertisement argument, reaches the origin via
        # `peer` for this prefix.  The peer itself is not a source (the
        # paper's worked example keeps the two sets disjoint).
        for source in route.path[:-2]:
            mapping.setdefault(source, peer)
    merged: Dict[int, int] = {}
    for prefix in sorted(by_prefix, key=lambda p: p.length):
        # Increasing specificity: later (more specific) prefixes override.
        merged.update(by_prefix[prefix])
    return IngressMap(origin=origin, peer_of_source=merged)
