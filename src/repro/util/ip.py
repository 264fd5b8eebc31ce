"""IPv4 address and prefix arithmetic.

Everything in the repro library that touches an address goes through this
module: addresses are plain ``int`` values in ``[0, 2**32)`` internally, and
:class:`Prefix` models a CIDR block.  :class:`PrefixTrie` provides
longest-prefix matching, which both the BGP best-path selection and the EIA
set implementation rely on.

The integer representation keeps flow processing allocation-free on the hot
path; dotted-quad strings only appear at the presentation boundary
(``show ip bgp`` rendering, traceroute output, IDMEF alerts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, TypeVar, Generic

from repro.util.errors import AddressError

__all__ = [
    "MAX_IPV4",
    "parse_ipv4",
    "format_ipv4",
    "Prefix",
    "PrefixTrie",
]

MAX_IPV4 = 2**32 - 1

_T = TypeVar("_T")


def parse_ipv4(text: str) -> int:
    """Parse a dotted-quad IPv4 address into its integer value.

    >>> parse_ipv4("4.2.101.20")
    67265812
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"expected 4 octets in IPv4 address, got {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"non-numeric octet in IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet {octet} out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Render an integer as a dotted-quad IPv4 address.

    >>> format_ipv4(67265812)
    '4.2.101.20'
    """
    if not 0 <= value <= MAX_IPV4:
        raise AddressError(f"IPv4 value {value!r} out of range")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 CIDR prefix such as ``4.2.101.0/24``.

    ``network`` is stored with host bits cleared; construction rejects
    prefixes whose host bits are set so two equal blocks always compare equal.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length {self.length} out of range")
        if not 0 <= self.network <= MAX_IPV4:
            raise AddressError(f"network {self.network!r} out of range")
        if self.network & ~self.mask():
            raise AddressError(
                f"host bits set in {format_ipv4(self.network)}/{self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"``; a bare address parses as a /32.

        Truncated classful forms like ``4.0.0.0`` (no mask) are treated as
        /32; use :meth:`parse_classful` for Routeviews-style bare networks.
        """
        if "/" in text:
            addr_part, _, len_part = text.partition("/")
            if not len_part.isdigit():
                raise AddressError(f"bad prefix length in {text!r}")
            length = int(len_part)
        else:
            addr_part, length = text, 32
        network = parse_ipv4(addr_part)
        mask = _mask_for(length)
        if network & ~mask:
            raise AddressError(f"host bits set in prefix {text!r}")
        return cls(network, length)

    @classmethod
    def parse_classful(cls, text: str) -> "Prefix":
        """Parse a Routeviews-style network that may omit its mask.

        ``show ip bgp`` output drops the mask for classful networks:
        ``4.0.0.0`` means ``4.0.0.0/8``.  With an explicit ``/len`` this is
        identical to :meth:`parse`.
        """
        if "/" in text:
            return cls.parse(text)
        network = parse_ipv4(text)
        first_octet = network >> 24
        if first_octet < 128:
            length = 8
        elif first_octet < 192:
            length = 16
        else:
            length = 24
        mask = _mask_for(length)
        if network & ~mask:
            raise AddressError(f"host bits set in classful network {text!r}")
        return cls(network, length)

    @classmethod
    def from_address(cls, address: int, length: int = 32) -> "Prefix":
        """Build the prefix of the given length containing ``address``."""
        mask = _mask_for(length)
        return cls(address & mask, length)

    def mask(self) -> int:
        """The netmask as an integer."""
        return _mask_for(self.length)

    def contains(self, address: int) -> bool:
        """True when ``address`` falls inside this block."""
        return (address & self.mask()) == self.network

    def covers(self, other: "Prefix") -> bool:
        """True when ``other`` is equal to or nested inside this block."""
        return self.length <= other.length and self.contains(other.network)

    def first_address(self) -> int:
        """Lowest address in the block (the network address)."""
        return self.network

    def last_address(self) -> int:
        """Highest address in the block (the broadcast address for subnets)."""
        return self.network | ~self.mask() & MAX_IPV4

    def size(self) -> int:
        """Number of addresses in the block."""
        return 1 << (32 - self.length)

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Iterate the ``new_length`` subnets of this block, in order."""
        if new_length < self.length or new_length > 32:
            raise AddressError(
                f"cannot split /{self.length} into /{new_length} subnets"
            )
        step = 1 << (32 - new_length)
        for network in range(self.network, self.last_address() + 1, step):
            yield Prefix(network, new_length)

    def nth_address(self, index: int) -> int:
        """The ``index``-th address of the block, for deterministic picks."""
        if not 0 <= index < self.size():
            raise AddressError(f"address index {index} outside /{self.length}")
        return self.network + index

    def __contains__(self, address: object) -> bool:
        if isinstance(address, int):
            return self.contains(address)
        if isinstance(address, Prefix):
            return self.covers(address)
        return NotImplemented  # type: ignore[return-value]

    def __str__(self) -> str:
        return f"{format_ipv4(self.network)}/{self.length}"


def _mask_for(length: int) -> int:
    if not 0 <= length <= 32:
        raise AddressError(f"prefix length {length} out of range")
    if length == 0:
        return 0
    return (MAX_IPV4 << (32 - length)) & MAX_IPV4


class _TrieNode(Generic[_T]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_TrieNode[_T]"]] = [None, None]
        self.value: Optional[_T] = None
        self.has_value = False


class PrefixTrie(Generic[_T]):
    """A binary trie mapping CIDR prefixes to values.

    Supports exact insert/delete/lookup plus longest-prefix match, the
    primitive underlying both routing-table lookups and EIA-set membership.
    Iteration yields ``(prefix, value)`` pairs in network order.
    """

    def __init__(self) -> None:
        self._root: _TrieNode[_T] = _TrieNode()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def insert(self, prefix: Prefix, value: _T) -> None:
        """Insert or replace the value stored at ``prefix``."""
        node = self._root
        for bit in _bits(prefix):
            child = node.children[bit]
            if child is None:
                child = _TrieNode()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._count += 1
        node.value = value
        node.has_value = True

    def get(self, prefix: Prefix, default: Optional[_T] = None) -> Optional[_T]:
        """Exact-match lookup of ``prefix``."""
        node = self._find(prefix)
        if node is not None and node.has_value:
            return node.value
        return default

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._find(prefix)
        return node is not None and node.has_value

    def remove(self, prefix: Prefix) -> bool:
        """Remove ``prefix``; returns True when it was present."""
        node = self._find(prefix)
        if node is None or not node.has_value:
            return False
        node.has_value = False
        node.value = None
        self._count -= 1
        return True

    def longest_match(self, address: int) -> Optional[Tuple[Prefix, _T]]:
        """The most specific stored prefix containing ``address``, if any."""
        if not 0 <= address <= MAX_IPV4:
            raise AddressError(f"address {address!r} out of range")
        node = self._root
        best: Optional[Tuple[Prefix, _T]] = None
        network = 0
        for depth in range(33):
            if node.has_value:
                best = (Prefix(network, depth), node.value)  # type: ignore[arg-type]
            if depth == 32:
                break
            bit = (address >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            network |= bit << (31 - depth)
            node = child
        return best

    def items(self) -> Iterator[Tuple[Prefix, _T]]:
        """All stored (prefix, value) pairs in network order."""
        stack: List[Tuple[_TrieNode[_T], int, int]] = [(self._root, 0, 0)]
        while stack:
            node, network, depth = stack.pop()
            if node.has_value:
                yield Prefix(network, depth), node.value  # type: ignore[misc]
            # Push bit 1 first so bit 0 pops first => network order.
            if depth < 32:
                one = node.children[1]
                if one is not None:
                    stack.append((one, network | (1 << (31 - depth)), depth + 1))
                zero = node.children[0]
                if zero is not None:
                    stack.append((zero, network, depth + 1))

    def __iter__(self) -> Iterator[Tuple[Prefix, _T]]:
        return self.items()

    def prefixes(self) -> List[Prefix]:
        """All stored prefixes in network order."""
        return [prefix for prefix, _ in self.items()]

    def update(self, entries: Iterable[Tuple[Prefix, _T]]) -> None:
        """Bulk insert."""
        for prefix, value in entries:
            self.insert(prefix, value)

    def to_dict(self) -> Dict[Prefix, _T]:
        """Snapshot the trie contents as a plain dict."""
        return dict(self.items())

    def _find(self, prefix: Prefix) -> Optional[_TrieNode[_T]]:
        node = self._root
        for bit in _bits(prefix):
            child = node.children[bit]
            if child is None:
                return None
            node = child
        return node


def _bits(prefix: Prefix) -> Iterator[int]:
    for depth in range(prefix.length):
        yield (prefix.network >> (31 - depth)) & 1
