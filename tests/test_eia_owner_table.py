"""The EIA owner table against a trie-free oracle.

``BasicInFilter`` answers its check from a block -> expected-peer table
that its one mutation point keeps right: a prefix of the longest stored
length is written through, any other length and a restore clear the
table.  The model here knows none of that.  It keeps ``{prefix: owner}``
(last insert wins, one block one owner) and answers a check by trying
every stored prefix — the same memo-free question
``tests/reference_chain.py`` asks of ``BasicInFilter.check`` — and the
state machine asserts after every step that the two agree for every
stored network and its neighbours, at every peer — and that the
checkpoint state (the plan, the moves, the pending counters) equals a
rendering of the model, which keeps the plan beside its owners.
"""

from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.config import EIAConfig
from repro.core.eia import BasicInFilter, EIAVerdict
from repro.netflow.records import FlowKey, FlowRecord
from repro.obs import MetricsRegistry
from repro.util.errors import StateError
from repro.util.ip import MAX_IPV4, Prefix

_GRANULARITY = 12
_THRESHOLD = 2
_CAPACITY = 6
_PEERS = (0, 3, 7)
#: A peer no rule ever inserts at: every check there is a suspect.
_STRANGER = 9

#: A small universe, so blocks nest and collide: a few /8s, and under
#: each the lengths around the learning rule's own (shorter, equal,
#: longer, much longer).
_LENGTHS = (8, 11, 12, 13, 24)
addresses = st.builds(
    lambda top, rest: ((10 + top) << 24) | rest,
    st.integers(0, 2),
    st.one_of(
        st.integers(0, (1 << 24) - 1),
        st.builds(lambda hi, lo: (hi << 19) | lo, st.integers(0, 31), st.integers(0, 3)),
    ),
)
prefixes = st.builds(Prefix.from_address, addresses, st.sampled_from(_LENGTHS))
peers = st.sampled_from(_PEERS)


def _record(address: int, peer: int) -> FlowRecord:
    return FlowRecord(
        key=FlowKey(
            src_addr=address, dst_addr=0xC6120001, protocol=6, dst_port=80,
            input_if=peer,
        ),
        packets=1, octets=100, first=0, last=0,
    )


def _new_filter() -> BasicInFilter:
    infilter = BasicInFilter(
        EIAConfig(granularity=_GRANULARITY, learning_threshold=_THRESHOLD),
        registry=MetricsRegistry(),
    )
    # Small enough that the capacity clear happens inside a run.
    infilter.table.capacity = _CAPACITY
    return infilter


class OwnerTableMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.infilter = _new_filter()
        self.owners: Dict[Prefix, int] = {}
        self.pending: Dict[Tuple[int, Prefix], int] = {}
        #: What the training-phase rules wrote, and the peers they named.
        self.plan: Dict[Prefix, int] = {}
        self.planned: Set[int] = set()

    # -- the oracle -----------------------------------------------------------

    def expected(self, address: int) -> Optional[int]:
        best: Optional[Prefix] = None
        for prefix in self.owners:
            if prefix.contains(address) and (
                best is None or prefix.length > best.length
            ):
                best = prefix
        return self.owners[best] if best is not None else None

    def covered_at(self, peer: int, address: int) -> bool:
        return any(
            owner == peer and prefix.contains(address)
            for prefix, owner in self.owners.items()
        )

    # -- the mutations --------------------------------------------------------

    @rule(peer=peers, blocks=st.lists(prefixes, min_size=1, max_size=3))
    def preload(self, peer: int, blocks: List[Prefix]) -> None:
        self.infilter.preload(peer, blocks)
        self.planned.add(peer)
        for block in blocks:
            self.owners[block] = self.plan[block] = peer

    @rule(mapping=st.dictionaries(prefixes, peers, min_size=1, max_size=3))
    def ingress_map(self, mapping: Dict[Prefix, int]) -> None:
        self.infilter.initialize_from_ingress_map(mapping)
        self.planned.update(mapping.values())
        self.owners.update(mapping)
        self.plan.update(mapping)

    @rule(flows=st.lists(st.tuples(addresses, peers), min_size=1, max_size=4))
    def train_from_flows(self, flows: List[Tuple[int, int]]) -> None:
        self.infilter.initialize_from_flows(
            [_record(address, peer) for address, peer in flows]
        )
        for address, peer in flows:
            self.planned.add(peer)
            if not self.covered_at(peer, address):
                block = Prefix.from_address(address, _GRANULARITY)
                self.owners[block] = self.plan[block] = peer

    @rule(peer=peers, block=prefixes)
    def absorb(self, peer: int, block: Prefix) -> None:
        """A replayed absorption delta of any length: shorter and longer
        than the longest stored both happen."""
        previous = self.expected(block.network)
        assert self.infilter.apply_absorption(peer, block) == previous
        self.owners[block] = peer

    @rule(peer=peers, address=addresses)
    def benign_suspect(self, peer: int, address: int) -> None:
        block = Prefix.from_address(address, _GRANULARITY)
        count = self.pending.pop((peer, block), 0) + 1
        absorbed = self.infilter.learn(peer, address)
        if count >= _THRESHOLD:
            assert absorbed == block
            self.owners[block] = peer
        else:
            assert absorbed is None
            self.pending[(peer, block)] = count

    @rule(address=addresses, peer=st.sampled_from(_PEERS + (_STRANGER,)))
    def check(self, address: int, peer: int) -> None:
        self.assert_check(address, peer)

    @rule(same_object=st.booleans())
    def save_and_load(self, same_object: bool) -> None:
        state = self.infilter.state_dict()
        if not same_object:
            self.infilter = _new_filter()
        self.infilter.load_state(state)
        assert self.infilter.state_dict() == state
        assert not self.infilter.table.entries  # restored cold

    # -- what must hold after every step --------------------------------------

    def assert_check(self, address: int, peer: int) -> None:
        expected = self.expected(address)
        got = self.infilter.check(_record(address, peer))
        assert (got.expected_peer, got.observed_peer) == (expected, peer)
        if expected is None:
            assert got.verdict == EIAVerdict.UNKNOWN_SOURCE
        elif expected == peer:
            assert got.verdict == EIAVerdict.LEGAL and not got.suspect
        else:
            assert got.verdict == EIAVerdict.WRONG_INGRESS

    @invariant()
    def table_answers_like_the_oracle(self) -> None:
        for prefix in list(self.owners):
            for address in (
                prefix.network - 1,
                prefix.network,
                prefix.network + prefix.size() - 1,
                prefix.network + prefix.size(),
            ):
                if 0 <= address <= MAX_IPV4:
                    for peer in _PEERS + (_STRANGER,):
                        self.assert_check(address, peer)
        assert len(self.infilter.table.entries) <= _CAPACITY

    @invariant()
    def one_block_one_owner(self) -> None:
        for peer in self.infilter.peers():
            assert set(self.infilter.eia_set(peer).prefixes()) == {
                prefix for prefix, owner in self.owners.items() if owner == peer
            }
        assert self.infilter.pending_counts() == self.pending
        assert self.infilter.pending_size() == len(self.pending)
        longest = max((p.length for p in self.owners), default=0)
        assert self.infilter.memo_shift == 32 - longest

    @invariant()
    def checkpoint_state_is_the_models(self) -> None:
        """What a save writes, rendered from the model alone: the plan
        as the training-phase rules left it, and as moves every owner
        that differs from its block's plan."""
        plan: Dict[int, List[str]] = {peer: [] for peer in self.planned}
        for prefix, peer in self.plan.items():
            plan[peer].append(str(prefix))
        assert self.infilter.state_dict() == {
            "plan": {str(peer): sorted(plan[peer]) for peer in plan},
            "moves": {
                str(prefix): owner
                for prefix, owner in self.owners.items()
                if self.plan.get(prefix) != owner
            },
            "pending": [
                [peer, block, count]
                for peer, block, count in sorted(
                    (peer, str(block), count)
                    for (peer, block), count in self.pending.items()
                )
            ],
        }


TestOwnerTableMachine = OwnerTableMachine.TestCase
TestOwnerTableMachine.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)


# -- restores: what a checkpoint may not say ------------------------------------


def _answers(infilter: BasicInFilter, addresses_: List[int]) -> List[Tuple]:
    return [
        (address, peer, infilter.check(_record(address, peer)))
        for address in addresses_
        for peer in (3, 7, _STRANGER)
    ]


def test_a_block_trained_at_two_peers_checks_the_same_after_a_restore():
    """Peer 7 then peer 3 see one /12 in training.  Live, the last insert
    owns it; a restore used to rebuild the index in peer-number order and
    hand it to peer 7, because both sets still listed it."""
    source = (10 << 24) | 0x345678
    infilter = _new_filter()
    infilter.initialize_from_flows([_record(source, 7), _record(source + 1, 3)])
    block = Prefix.from_address(source, _GRANULARITY)
    assert infilter.eia_set(3).prefixes() == [block]
    assert infilter.eia_set(7).prefixes() == []  # moved, not copied
    probes = [source, source + 1, block.network, block.network - 1]
    before = _answers(infilter, probes)
    assert infilter.check(_record(source, 3)).verdict == EIAVerdict.LEGAL
    assert infilter.check(_record(source, 7)).verdict == EIAVerdict.WRONG_INGRESS

    restored = _new_filter()
    restored.load_state(infilter.state_dict())
    assert _answers(restored, probes) == before
    assert restored.state_dict() == infilter.state_dict()


def _restorable() -> BasicInFilter:
    """Sets at peers 3 and 7, a pending counter at 7, a warm table."""
    infilter = _new_filter()
    infilter.preload(3, [Prefix.parse("10.0.0.0/8")])
    infilter.preload(7, [Prefix.parse("12.0.0.0/8")])
    infilter.learn(7, (10 << 24) | 0x100001)
    return infilter


def _assert_refused(infilter: BasicInFilter, state: dict, match: str) -> None:
    kept = infilter.state_dict()
    probes = [(10 << 24) | 0x100001, 11 << 24, 12 << 24]
    before = _answers(infilter, probes)
    warm = dict(infilter.table.entries)
    assert warm
    with pytest.raises(StateError, match=match):
        infilter.load_state(state)
    # Refused means untouched: sets, counters and the warm table.
    assert infilter.state_dict() == kept
    assert dict(infilter.table.entries) == warm
    assert _answers(infilter, probes) == before


@pytest.mark.parametrize("prefix", ["10.32.0.0/11", "10.16.0.0/13", "10.16.1.0/24"])
def test_load_state_refuses_a_pending_block_of_another_length(prefix):
    infilter = _restorable()
    state = infilter.state_dict()
    state["plan"] = {"0": ["11.0.0.0/8"]}
    state["pending"].append([3, prefix, 1])
    _assert_refused(infilter, state, prefix.replace(".", r"\."))


def test_load_state_refuses_a_block_listed_under_two_peers():
    """Both sets would list it while the owner index kept one peer, and
    a later move would take it from one set only."""
    infilter = _restorable()
    state = infilter.state_dict()
    state["plan"]["7"].insert(0, "10.0.0.0/8")
    _assert_refused(infilter, state, r"10\.0\.0\.0/8 .*peers 3 and 7")


@pytest.mark.parametrize("key", ["03", "x", " 3"])
def test_load_state_refuses_a_plan_key_that_is_not_a_peer_number(key):
    """A key that parses to another spelling of a peer would not save
    back to the same bytes; one that does not parse names no peer."""
    infilter = _restorable()
    state = infilter.state_dict()
    state["plan"][key] = state["plan"].pop("3")
    _assert_refused(infilter, state, f"plan key {key!r} is not a peer number")


def test_load_state_refuses_a_move_to_the_planned_peer():
    """A block learned back at its planned peer is no longer a move: a
    save would drop the entry, and the file would not round-trip."""
    infilter = _restorable()
    state = infilter.state_dict()
    state["moves"]["10.0.0.0/8"] = 3
    _assert_refused(infilter, state, r"10\.0\.0\.0/8 is moved to peer 3")
