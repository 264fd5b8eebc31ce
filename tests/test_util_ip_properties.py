"""Randomized PrefixTrie properties against a brute-force reference.

The trie backs both the EIA reverse index and the BGP routing table, so
its exact-match and longest-match semantics are load-bearing for the
whole detector.  A plain ``dict`` of ``Prefix -> value`` plus an O(n)
scan is an obviously correct model of both; these tests drive random
interleaved insert/remove/replace sequences through trie and model and
require every observable — membership, exact lookup, longest match,
covering match, network-ordered iteration — to agree at every step.
"""

from typing import Dict, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.ip import Prefix, PrefixTrie


def _reference_longest_match(
    model: Dict[Prefix, int], address: int
) -> Optional[Tuple[Prefix, int]]:
    best = None
    for prefix, value in model.items():
        if prefix.contains(address):
            if best is None or prefix.length > best[0].length:
                best = (prefix, value)
    return best


@st.composite
def prefixes(draw):
    # Skew lengths toward the short, overlapping end so longest-match
    # actually has to disambiguate nested blocks.
    length = draw(st.sampled_from([0, 4, 8, 8, 11, 11, 12, 16, 20, 24, 32]))
    address = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return Prefix.from_address(address, length)


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        kind = draw(st.sampled_from(["insert", "remove", "replace"]))
        ops.append((kind, draw(prefixes()), draw(st.integers(0, 1000))))
    return ops


class TestTrieAgainstReference:
    @given(operations(), st.lists(st.integers(0, 2**32 - 1), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_interleaved_mutations_agree_with_model(self, ops, probes):
        trie: PrefixTrie[int] = PrefixTrie()
        model: Dict[Prefix, int] = {}
        touched = []
        for kind, prefix, value in ops:
            touched.append(prefix)
            if kind == "remove":
                assert trie.remove(prefix) == (model.pop(prefix, None) is not None)
            else:  # insert and replace are the same trie operation
                trie.insert(prefix, value)
                model[prefix] = value
            assert len(trie) == len(model)
        for prefix in touched:
            assert (prefix in trie) == (prefix in model)
            assert trie.get(prefix) == model.get(prefix)
        for address in probes + [p.network for p in touched]:
            assert trie.longest_match(address) == _reference_longest_match(
                model, address
            )

    @given(operations())
    @settings(max_examples=100, deadline=None)
    def test_iteration_matches_model_in_network_order(self, ops):
        trie: PrefixTrie[int] = PrefixTrie()
        model: Dict[Prefix, int] = {}
        for kind, prefix, value in ops:
            if kind == "remove":
                trie.remove(prefix)
                model.pop(prefix, None)
            else:
                trie.insert(prefix, value)
                model[prefix] = value
        listed = list(trie.items())
        assert listed == sorted(listed, key=lambda item: (item[0].network, item[0].length))
        assert dict(listed) == model

    @given(operations())
    @settings(max_examples=50, deadline=None)
    def test_remove_everything_empties_the_trie(self, ops):
        trie: PrefixTrie[int] = PrefixTrie()
        inserted = set()
        for kind, prefix, value in ops:
            if kind != "remove":
                trie.insert(prefix, value)
                inserted.add(prefix)
        for prefix in inserted:
            assert trie.remove(prefix)
        assert len(trie) == 0
        assert not trie
        for prefix in inserted:
            assert trie.longest_match(prefix.network) is None
