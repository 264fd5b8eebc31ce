"""Expected-IP-Address (EIA) sets and the Basic InFilter check.

The Basic InFilter (Section 3) keeps, per peer AS, the set of source
address blocks whose traffic is expected to enter through that peer.  An
incoming flow is *legal* when the peer AS whose EIA set contains its
source address is the peer it actually arrived through; otherwise it is
*suspect* — either it arrived through the wrong peer (``WRONG_INGRESS``)
or no peer expects it at all (``UNKNOWN_SOURCE``).

EIA sets may be initialised from subnet lists, from a training run over
live flows, or from routing data (the traceroute/BGP mechanisms of
Section 3); and they adapt online through the learning rule of
Section 5.2: a source persistently observed (and assessed benign) at an
unexpected peer is absorbed into that peer's set.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.config import EIAConfig
from repro.core.state import (
    Section,
    SectionTable,
    StateDict,
    section_state,
    stamps,
    stateful,
)
from repro.fastpath.plane import MISSING, FastPath
from repro.netflow.records import FlowRecord
from repro.obs import Gauge, MetricsRegistry, get_logger, get_registry
from repro.util.errors import ConfigError, StateError
from repro.util.ip import Prefix, PrefixTrie

__all__ = ["EIAVerdict", "EIACheck", "EIASet", "BasicInFilter"]

log = get_logger(__name__)


class EIAVerdict:
    """Outcome classes of the EIA check."""

    LEGAL = "legal"
    WRONG_INGRESS = "wrong_ingress"
    UNKNOWN_SOURCE = "unknown_source"


@dataclass(frozen=True)
class EIACheck:
    """Result of checking one flow against the EIA sets.

    ``expected_peer`` is the peer AS whose EIA set contains the source
    (None when no set does); ``observed_peer`` is where the flow actually
    entered.
    """

    verdict: str
    observed_peer: int
    expected_peer: Optional[int]

    @property
    def suspect(self) -> bool:
        return self.verdict != EIAVerdict.LEGAL


@stateful("eia_set")
class EIASet:
    """The expected source address blocks of one peer AS.

    The set is *effective* state: the blocks planned at the peer that
    were not moved away, plus the blocks moved to it.  A checkpoint
    saves the plan and the moves (see :class:`BasicInFilter`), not the
    sets; the set's own :meth:`state_dict` is its blocks, walked out of
    the trie and sorted.
    """

    def __init__(self, peer: int) -> None:
        self.peer = peer
        self._trie: PrefixTrie[bool] = PrefixTrie()

    def add(self, prefix: Prefix) -> None:
        """Add an expected source block."""
        self._trie.insert(prefix, True)

    def discard(self, prefix: Prefix) -> bool:
        """Remove a block; True when it was present."""
        return self._trie.remove(prefix)

    def contains(self, address: int) -> bool:
        """True when some stored block covers ``address``."""
        return self._trie.longest_match(address) is not None

    def prefixes(self) -> List[Prefix]:
        return self._trie.prefixes()

    def __len__(self) -> int:
        return len(self._trie)

    def __contains__(self, address: int) -> bool:
        return self.contains(address)

    def state_dict(self) -> StateDict:
        return {
            "peer": self.peer,
            "prefixes": sorted(str(prefix) for prefix in self.prefixes()),
        }

    def load_state(self, state: StateDict) -> None:
        self.peer = int(state["peer"])
        self._trie = PrefixTrie()
        for text in state["prefixes"]:
            self._trie.insert(Prefix.parse(text), True)


@stateful("eia")
class BasicInFilter:
    """Per-peer EIA sets plus the Section 5.2 check and learning rules.

    A block's owner has one of two origins, kept apart.  The **plan**
    (block -> peer) is what the training phase hands over (Section
    5.1.3(a): :meth:`preload`, :meth:`initialize_from_flows`,
    :meth:`initialize_from_ingress_map`).  The **moves** (block -> peer)
    are what the learning rule changed (Section 5.2:
    :meth:`apply_absorption`): each block whose learned owner differs
    from its planned one.  A block's effective owner is its move if it
    has one, else its plan, so the last write wins: a preload clears the
    block's move, and a block moved back to its planned peer leaves the
    moves.

    The per-peer sets, the reverse index (source block → owning peer)
    and the owner table in front of it hold the effective owners.  The
    index makes the check O(32) per flow regardless of how many peers
    exist, and the table answers a block it has seen before in one dict
    probe.  One block has one owner: inserting it at a peer takes it
    from the peer that held it.

    A checkpoint writes the plan into its base, beside the model, and
    the moves and the pending counters into its head.  Each of the three
    has one stamp (from :data:`~repro.core.state.stamps`); ``plan_stamp``
    is public because a writer rewrites the base when it moves.
    """

    def __init__(
        self,
        config: Optional[EIAConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else EIAConfig()
        self._sets: Dict[int, EIASet] = {}
        self._owner: PrefixTrie[int] = PrefixTrie()
        # Block -> planned peer, and every planned peer (one planned with
        # no block still has its set); plan_stamp is renewed when either
        # changes.
        self._plan: Dict[Prefix, int] = {}
        self._planned_peers: Set[int] = set()
        self.plan_stamp = next(stamps)
        # Block -> learned peer, never the block's planned one.  A moved
        # block's checkpoint text is formatted once: at most one entry
        # per block ever moved, derived.
        self._moves: Dict[Prefix, int] = {}
        self._moves_stamp = next(stamps)
        self._move_text: Dict[Prefix, str] = {}
        # (peer, source address >> _pending_shift) -> benign observations,
        # for the learning rule; a Prefix only when an absorption fires.
        # Where it changes (learn, load_state) its stamp is zeroed, and
        # state_sections() issues a fresh one: learn is per-record work,
        # a constant store is all it can pay.
        self._pending: Dict[Tuple[int, int], int] = {}
        self._pending_stamp = 0
        self._pending_shift = 32 - self.config.granularity
        # address >> _pending_shift -> that block's checkpoint text; at
        # most 2**granularity entries, derived, filled by state_dict().
        self._pending_text: Dict[int, str] = {}
        #: Right-shift collapsing an address onto its verdict-sharing
        #: block: 32 minus the longest stored prefix length.  Two
        #: addresses agreeing above the shift have the same expected
        #: peer, so ``address >> memo_shift`` is a sound table key (with
        #: nothing stored the shift is 32 and the one key says ``None``).
        self.memo_shift = 32
        #: ``address >> memo_shift`` -> expected peer (``None``: no peer
        #: expects the block), kept right by :meth:`_insert` rather than
        #: dropped when the sets change.  Derived like the shift: never
        #: checkpointed, cold after :meth:`load_state`.
        self.table: FastPath[int, Optional[int]] = FastPath(registry=registry)
        # One EIACheck per (expected, observed): that pair is its content.
        self._checks: Dict[Tuple[Optional[int], int], EIACheck] = {}
        registry = registry if registry is not None else get_registry()
        self._m_blocks = registry.gauge(
            "infilter_eia_blocks",
            "Expected source blocks currently in one peer AS's EIA set.",
            ("peer",),
        )
        self._block_gauges: Dict[int, Gauge] = {}
        self._m_absorptions = registry.counter(
            "infilter_eia_absorptions_total",
            "Section 5.2 learning-rule absorptions of route-changed blocks.",
        )

    # -- initialisation ----------------------------------------------------

    def ensure_peer(self, peer: int) -> EIASet:
        """The EIA set for ``peer``, created empty on first reference."""
        eia = self._sets.get(peer)
        if eia is None:
            self._sets[peer] = eia = EIASet(peer)
        return eia

    def peers(self) -> List[int]:
        return sorted(self._sets)

    def eia_set(self, peer: int) -> EIASet:
        try:
            return self._sets[peer]
        except KeyError:
            raise ConfigError(f"no EIA set exists for peer AS {peer}") from None

    def preload(self, peer: int, prefixes: Iterable[Prefix]) -> None:
        """Initialise a peer's EIA set by hand from subnet masks (5.1.3a)."""
        eia = self._planned(peer)
        for prefix in prefixes:
            self._plan_block(eia, prefix)

    def initialize_from_flows(self, records: Iterable[FlowRecord]) -> None:
        """Training-phase initialisation from observed traffic (5.1.3a).

        Each record's source block (at the configured granularity) is
        added to the EIA set of the peer it arrived through — the
        flow-data variant of the training phase.
        """
        for record in records:
            eia = self._planned(record.key.input_if)
            if not eia.contains(record.key.src_addr):
                self._plan_block(
                    eia,
                    Prefix.from_address(
                        record.key.src_addr, self.config.granularity
                    ),
                )

    def initialize_from_ingress_map(self, mapping: Dict[Prefix, int]) -> None:
        """Initialisation from routing-derived data (Sections 3.1/3.2):
        a map of source blocks to their expected ingress peer."""
        for prefix, peer in mapping.items():
            self._plan_block(self._planned(peer), prefix)

    def plan(self) -> Dict[Prefix, int]:
        """Snapshot of the plan: block -> planned peer."""
        return dict(self._plan)

    def moves(self) -> Dict[Prefix, int]:
        """Snapshot of the moves: block -> learned peer, for each block
        whose learned owner is not its planned one."""
        return dict(self._moves)

    def _planned(self, peer: int) -> EIASet:
        """:meth:`ensure_peer` for the training phase: ``peer`` joins
        the plan."""
        if peer not in self._planned_peers:
            self._planned_peers.add(peer)
            self.plan_stamp = next(stamps)
        return self.ensure_peer(peer)

    def _plan_block(self, eia: EIASet, prefix: Prefix) -> None:
        """``prefix`` is planned at ``eia``'s peer, and owned there."""
        if self._plan.get(prefix) != eia.peer:
            self._plan[prefix] = eia.peer
            self.plan_stamp = next(stamps)
        if self._moves.pop(prefix, None) is not None:
            self._moves_stamp = next(stamps)
        self._insert(eia, prefix)

    def _insert(self, eia: EIASet, prefix: Prefix) -> None:
        """The one place the sets change: ``prefix`` moves to ``eia``.

        A prefix of the longest stored length is exactly one table key
        that nothing more specific can shadow: its new owner is written
        through.  Any other length shrinks the key shift or may cover
        keys held by more-specifics, and clears the table.
        """
        previous = self._owner.get(prefix)
        if previous is not None and previous != eia.peer:
            loser = self._sets[previous]
            loser.discard(prefix)
            self._set_gauge(loser)
        eia.add(prefix)
        self._owner.insert(prefix, eia.peer)
        shift = 32 - prefix.length
        if shift == self.memo_shift:
            self.table.put(prefix.network >> shift, eia.peer)
        else:
            self.memo_shift = min(self.memo_shift, shift)
            self.table.invalidate()
        self._set_gauge(eia)

    def _set_gauge(self, eia: EIASet) -> None:
        gauge = self._block_gauges.get(eia.peer)
        if gauge is None:
            gauge = self._m_blocks.labels(peer=eia.peer)
            self._block_gauges[eia.peer] = gauge
        gauge.set(len(eia))

    # -- the check ----------------------------------------------------------

    def expected_peer_for(self, address: int) -> Optional[int]:
        """The peer AS whose EIA set covers ``address`` (``ASIP(φ)``):
        from the owner table, from the trie (once per block) on a miss."""
        key = address >> self.memo_shift
        owner = self.table.entries.get(key, MISSING)
        if owner is MISSING:
            owner = self._walk(address)
            self.table.fill(key, owner)
        else:
            self.table.note_hits(1)
        return owner  # type: ignore[no-any-return]

    def _walk(self, address: int) -> Optional[int]:
        match = self._owner.longest_match(address)
        return match[1] if match is not None else None

    def check(self, record: FlowRecord) -> EIACheck:
        """The Basic InFilter assessment of one flow (Section 5.2)."""
        return self.check_for(
            self.expected_peer_for(record.key.src_addr), record.key.input_if
        )

    def check_for(self, expected: Optional[int], observed: int) -> EIACheck:
        """The (shared) result for a source expected at ``expected`` that
        arrived through ``observed``."""
        check = self._checks.get((expected, observed))
        if check is None:
            if expected is None:
                verdict = EIAVerdict.UNKNOWN_SOURCE
            elif expected == observed:
                verdict = EIAVerdict.LEGAL
            else:
                verdict = EIAVerdict.WRONG_INGRESS
            if len(self._checks) >= self.table.capacity:
                self._checks.clear()
            check = self._checks[(expected, observed)] = EIACheck(
                verdict, observed, expected
            )
        return check

    # -- online learning ----------------------------------------------------

    def note_benign(self, record: FlowRecord) -> bool:
        """Record a benign-assessed suspect flow; absorb after threshold.

        Implements Section 5.2(a): ``IP(φ)`` is added to the EIA set of
        ``ASφ`` once the number of (benign) flows from that source block
        at that peer exceeds the learning threshold.  Returns True when
        the absorption happened on this call.
        """
        return self.learn(record.key.input_if, record.key.src_addr) is not None

    def learn(self, peer: int, address: int) -> Optional[Prefix]:
        """:meth:`note_benign` on the two numbers it reads, returning the
        block it absorbed (``None`` when it only counted)."""
        key = (peer, address >> self._pending_shift)
        count = self._pending.get(key, 0) + 1
        self._pending_stamp = 0
        if count < self.config.learning_threshold:
            self._pending[key] = count
            return None
        self._pending.pop(key, None)
        block = Prefix.from_address(address, self.config.granularity)
        self.apply_absorption(peer, block)
        return block

    def apply_absorption(self, peer: int, block: Prefix) -> Optional[int]:
        """Absorb ``block`` into ``peer``'s EIA set, returning the old owner.

        Absorption *moves* the block: the old owner no longer expects it,
        reflecting that the route genuinely changed.  A block absorbed
        back into its planned peer is no longer a move.
        """
        previous = self.table.entries.get(block.network >> self.memo_shift, MISSING)
        if previous is MISSING:
            previous = self._walk(block.network)
        if self._plan.get(block) == peer:
            if self._moves.pop(block, None) is not None:
                self._moves_stamp = next(stamps)
        elif self._moves.get(block) != peer:
            self._moves[block] = peer
            self._moves_stamp = next(stamps)
        self._insert(self.ensure_peer(peer), block)
        self._m_absorptions.inc()
        if log.isEnabledFor(logging.INFO):
            log.info(
                "EIA absorption: block moved to peer",
                extra={"block": str(block), "peer": peer, "previous_peer": previous},
            )
        return previous  # type: ignore[no-any-return]

    def pending_counts(self) -> Dict[Tuple[int, Prefix], int]:
        """Snapshot of not-yet-absorbed source observations (for tests)."""
        return {
            (peer, self._pending_block(block)): count
            for (peer, block), count in self._pending.items()
        }

    def pending_size(self) -> int:
        """How many (peer, block) counters the learning rule holds."""
        return len(self._pending)

    def _pending_block(self, block: int) -> Prefix:
        return Prefix(block << self._pending_shift, self.config.granularity)

    def _pending_text_of(self, block: int) -> str:
        text = self._pending_text.get(block)
        if text is None:
            text = self._pending_text[block] = str(self._pending_block(block))
        return text

    # -- the stage-state protocol --------------------------------------------

    def state_dict(self) -> StateDict:
        """The plan, the moves and the learning rule's pending counters.

        The effective sets, the reverse owner index, the owner table in
        front of it and the memo shift are derived (plan overlaid with
        moves) and are rebuilt on load rather than stored: a checkpoint
        is byte-identical whether the table is hot or cold, and a
        restored detector starts it cold.  A peer's set survives a
        restore when the peer is planned or holds a moved block.
        """
        state = section_state(self.state_sections())
        state["plan"] = self.plan_state()
        return state

    def state_sections(self) -> SectionTable:
        """:meth:`state_dict` but the plan, as a section table: the moves
        keyed on their stamp, the pending counters on theirs.  An
        absorption changes the moves only when the block's learned owner
        is new."""
        if not self._pending_stamp:
            self._pending_stamp = next(stamps)
        return {
            "moves": Section(self._moves_stamp, self._moves_state),
            "pending": Section(self._pending_stamp, self._pending_state),
        }

    def plan_state(self) -> StateDict:
        """The plan, as a checkpoint base holds it: each planned peer's
        blocks, sorted (a peer planned with none has an empty list)."""
        blocks: Dict[int, List[str]] = {peer: [] for peer in self._planned_peers}
        for prefix, peer in self._plan.items():
            blocks[peer].append(str(prefix))
        return {str(peer): sorted(texts) for peer, texts in blocks.items()}

    def _moves_state(self) -> Dict[str, int]:
        texts = self._move_text
        state: Dict[str, int] = {}
        for block, peer in self._moves.items():
            text = texts.get(block)
            if text is None:
                text = texts[block] = str(block)
            state[text] = peer
        return state

    def _pending_state(self) -> List[List[Any]]:
        """Rows ``[peer, "a.b.c.d/len", count]``, sorted."""
        return [
            [peer, text, count]
            for peer, text, count in sorted(
                (peer, self._pending_text_of(block), count)
                for (peer, block), count in self._pending.items()
            )
        ]

    def load_state(self, state: StateDict) -> None:
        # What can refuse comes first: a refused restore changes nothing.
        pending: Dict[Tuple[int, int], int] = {}
        for peer, text, count in state["pending"]:
            prefix = Prefix.parse(text)
            if prefix.length != self.config.granularity:
                raise StateError(
                    f"pending entry {text} at peer {peer}: the learning"
                    f" rule counts /{self.config.granularity} blocks"
                )
            pending[(int(peer), prefix.network >> self._pending_shift)] = int(
                count
            )
        plan: Dict[Prefix, int] = {}
        planned_peers: Set[int] = set()
        for peer_text, texts in state["plan"].items():
            peer = _peer_number(peer_text)
            planned_peers.add(peer)
            for text in texts:
                prefix = Prefix.parse(text)
                holder = plan.setdefault(prefix, peer)
                if holder != peer:
                    raise StateError(
                        f"EIA block {prefix} is planned at peers {holder}"
                        f" and {peer}: one block has one owner"
                    )
        moves: Dict[Prefix, int] = {}
        for text, peer in state["moves"].items():
            prefix = Prefix.parse(text)
            moves[prefix] = int(peer)
            if plan.get(prefix) == moves[prefix]:
                raise StateError(
                    f"EIA block {prefix} is moved to peer {peer}, the peer"
                    " it is planned at"
                )
        sets = {
            peer: EIASet(peer) for peer in planned_peers.union(moves.values())
        }
        owner: PrefixTrie[int] = PrefixTrie()
        memo_shift = 32
        for prefix, peer in {**plan, **moves}.items():
            sets[peer].add(prefix)
            owner.insert(prefix, peer)
            memo_shift = min(memo_shift, 32 - prefix.length)
        self._sets = sets
        self._owner = owner
        self._plan = plan
        self._planned_peers = planned_peers
        self.plan_stamp = next(stamps)
        self._moves = moves
        self._moves_stamp = next(stamps)
        self._pending = pending
        self._pending_stamp = 0
        # A restore rewrites everything the table answers from.
        self.table.invalidate()
        self.memo_shift = memo_shift
        for eia in sets.values():
            self._set_gauge(eia)


def _peer_number(text: str) -> int:
    """A plan key: the decimal text of a peer number, nothing else (any
    other spelling would not save back to the same bytes)."""
    message = f"EIA plan key {text!r} is not a peer number"
    try:
        peer = int(text)
    except ValueError:
        raise StateError(message) from None
    if str(peer) != text:
        raise StateError(message)
    return peer
