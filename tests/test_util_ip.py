"""Tests for IPv4 parsing, Prefix arithmetic, and the prefix trie."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import AddressError
from repro.util.ip import MAX_IPV4, Prefix, PrefixTrie, format_ipv4, parse_ipv4

addresses = st.integers(min_value=0, max_value=MAX_IPV4)
prefix_lengths = st.integers(min_value=0, max_value=32)


@st.composite
def prefixes(draw):
    length = draw(prefix_lengths)
    address = draw(addresses)
    return Prefix.from_address(address, length)


class TestParseFormat:
    def test_parse_dotted_quad(self):
        assert parse_ipv4("4.2.101.20") == (4 << 24) + (2 << 16) + (101 << 8) + 20

    def test_format_known_value(self):
        assert format_ipv4(parse_ipv4("141.142.12.1")) == "141.142.12.1"

    def test_zero_and_max(self):
        assert parse_ipv4("0.0.0.0") == 0
        assert parse_ipv4("255.255.255.255") == MAX_IPV4

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3", ""]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            parse_ipv4(bad)

    @pytest.mark.parametrize("bad", [-1, MAX_IPV4 + 1])
    def test_format_rejects_out_of_range(self, bad):
        with pytest.raises(AddressError):
            format_ipv4(bad)

    @given(addresses)
    def test_round_trip(self, value):
        assert parse_ipv4(format_ipv4(value)) == value


class TestPrefix:
    def test_parse_with_length(self):
        p = Prefix.parse("4.2.101.0/24")
        assert p.network == parse_ipv4("4.2.101.0")
        assert p.length == 24

    def test_parse_bare_address_is_host_route(self):
        assert Prefix.parse("1.2.3.4").length == 32

    def test_parse_rejects_host_bits(self):
        with pytest.raises(AddressError):
            Prefix.parse("4.2.101.1/24")

    def test_parse_classful(self):
        assert Prefix.parse_classful("4.0.0.0") == Prefix.parse("4.0.0.0/8")
        assert Prefix.parse_classful("141.142.0.0") == Prefix.parse("141.142.0.0/16")
        assert Prefix.parse_classful("203.0.113.0") == Prefix.parse("203.0.113.0/24")

    def test_contains_boundaries(self):
        p = Prefix.parse("10.0.0.0/8")
        assert p.contains(parse_ipv4("10.0.0.0"))
        assert p.contains(parse_ipv4("10.255.255.255"))
        assert not p.contains(parse_ipv4("11.0.0.0"))
        assert not p.contains(parse_ipv4("9.255.255.255"))

    def test_covers(self):
        big = Prefix.parse("10.0.0.0/8")
        small = Prefix.parse("10.32.0.0/11")
        assert big.covers(small)
        assert not small.covers(big)
        assert big.covers(big)

    def test_size_and_addresses(self):
        p = Prefix.parse("192.168.4.0/30")
        assert p.size() == 4
        assert p.first_address() == parse_ipv4("192.168.4.0")
        assert p.last_address() == parse_ipv4("192.168.4.3")
        assert p.nth_address(2) == parse_ipv4("192.168.4.2")

    def test_nth_address_bounds(self):
        p = Prefix.parse("192.168.4.0/30")
        with pytest.raises(AddressError):
            p.nth_address(4)
        with pytest.raises(AddressError):
            p.nth_address(-1)

    def test_subnets(self):
        p = Prefix.parse("214.0.0.0/8")
        subs = list(p.subnets(11))
        assert len(subs) == 8
        assert subs[1] == Prefix.parse("214.32.0.0/11")
        assert subs[-1] == Prefix.parse("214.224.0.0/11")

    def test_subnets_rejects_coarser(self):
        with pytest.raises(AddressError):
            list(Prefix.parse("10.0.0.0/16").subnets(8))

    def test_dunder_contains(self):
        p = Prefix.parse("10.0.0.0/8")
        assert parse_ipv4("10.1.2.3") in p
        assert Prefix.parse("10.0.0.0/16") in p

    def test_str(self):
        assert str(Prefix.parse("4.2.101.0/24")) == "4.2.101.0/24"

    def test_ordering_is_total(self):
        a = Prefix.parse("4.0.0.0/8")
        b = Prefix.parse("4.0.0.0/16")
        assert sorted([b, a]) == [a, b]

    @given(prefixes())
    def test_subnet_split_partitions(self, prefix):
        if prefix.length > 28:
            return
        subs = list(prefix.subnets(prefix.length + 2))
        assert len(subs) == 4
        assert subs[0].first_address() == prefix.first_address()
        assert subs[-1].last_address() == prefix.last_address()
        for first, second in zip(subs, subs[1:]):
            assert first.last_address() + 1 == second.first_address()

    @given(prefixes(), addresses)
    def test_contains_matches_range(self, prefix, address):
        expected = prefix.first_address() <= address <= prefix.last_address()
        assert prefix.contains(address) == expected


class TestPrefixTrie:
    def test_empty(self):
        trie = PrefixTrie()
        assert len(trie) == 0
        assert not trie
        assert trie.longest_match(0) is None

    def test_insert_get_exact(self):
        trie = PrefixTrie()
        p = Prefix.parse("10.0.0.0/8")
        trie.insert(p, "ten")
        assert trie.get(p) == "ten"
        assert p in trie
        assert Prefix.parse("10.0.0.0/9") not in trie

    def test_longest_match_prefers_specific(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("4.0.0.0/8"), "eight")
        trie.insert(Prefix.parse("4.2.101.0/24"), "twentyfour")
        match = trie.longest_match(parse_ipv4("4.2.101.20"))
        assert match == (Prefix.parse("4.2.101.0/24"), "twentyfour")
        match = trie.longest_match(parse_ipv4("4.9.9.9"))
        assert match == (Prefix.parse("4.0.0.0/8"), "eight")

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(Prefix(0, 0), "default")
        assert trie.longest_match(parse_ipv4("203.0.113.7"))[1] == "default"

    def test_remove(self):
        trie = PrefixTrie()
        p = Prefix.parse("10.0.0.0/8")
        trie.insert(p, 1)
        assert trie.remove(p)
        assert not trie.remove(p)
        assert trie.longest_match(parse_ipv4("10.0.0.1")) is None

    def test_replace_value(self):
        trie = PrefixTrie()
        p = Prefix.parse("10.0.0.0/8")
        trie.insert(p, 1)
        trie.insert(p, 2)
        assert len(trie) == 1
        assert trie.get(p) == 2

    def test_items_in_network_order(self):
        trie = PrefixTrie()
        entries = [
            Prefix.parse("192.0.2.0/24"),
            Prefix.parse("4.0.0.0/8"),
            Prefix.parse("4.2.101.0/24"),
            Prefix.parse("10.0.0.0/8"),
        ]
        for index, prefix in enumerate(entries):
            trie.insert(prefix, index)
        listed = trie.prefixes()
        assert listed == sorted(entries)

    def test_host_route(self):
        trie = PrefixTrie()
        host = Prefix.from_address(parse_ipv4("1.2.3.4"), 32)
        trie.insert(host, "host")
        assert trie.longest_match(parse_ipv4("1.2.3.4"))[1] == "host"
        assert trie.longest_match(parse_ipv4("1.2.3.5")) is None

    def test_longest_match_rejects_bad_address(self):
        with pytest.raises(AddressError):
            PrefixTrie().longest_match(-5)

    @given(st.lists(st.tuples(prefixes(), st.integers()), max_size=40), addresses)
    @settings(max_examples=60)
    def test_longest_match_agrees_with_linear_scan(self, entries, probe):
        trie = PrefixTrie()
        reference = {}
        for prefix, value in entries:
            trie.insert(prefix, value)
            reference[prefix] = value
        expected = None
        for prefix, value in reference.items():
            if prefix.contains(probe):
                if expected is None or prefix.length > expected[0].length:
                    expected = (prefix, value)
        assert trie.longest_match(probe) == expected

    @given(st.lists(prefixes(), unique=True, max_size=30))
    @settings(max_examples=60)
    def test_insert_then_iterate_round_trips(self, entry_list):
        trie = PrefixTrie()
        for index, prefix in enumerate(entry_list):
            trie.insert(prefix, index)
        assert len(trie) == len(entry_list)
        assert dict(trie.items()) == {
            prefix: index for index, prefix in enumerate(entry_list)
        }
