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

import bisect
import logging
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

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

    Besides the trie it answers from, the set keeps its checkpoint text:
    the sorted canonical strings :meth:`state_dict` returns.  The three
    mutation points keep that list current — :meth:`add` inserts a block
    new to the set, :meth:`discard` deletes, :meth:`load_state` renders
    once — so a save copies a list instead of walking the trie and
    formatting every block.  The text is derived from the trie: a
    restore renders it from the trie it parsed, not from the list it was
    given.  ``texts`` (block -> its text) is where a block's text is
    formatted once; :class:`BasicInFilter` shares one across its sets,
    so a block that moves between peers is not formatted again.

    ``stamp`` (from :data:`~repro.core.state.stamps`) is renewed at the
    same three points, so a checkpoint writer re-renders the set only
    when it changed.
    """

    def __init__(self, peer: int, texts: Optional[Dict[Prefix, str]] = None) -> None:
        self.peer = peer
        self._trie: PrefixTrie[bool] = PrefixTrie()
        self._text: List[str] = []
        self._block_texts: Dict[Prefix, str] = texts if texts is not None else {}
        self.stamp = next(stamps)

    def _text_of(self, prefix: Prefix) -> str:
        text = self._block_texts.get(prefix)
        if text is None:
            text = self._block_texts[prefix] = str(prefix)
        return text

    def add(self, prefix: Prefix) -> None:
        """Add an expected source block."""
        size = len(self._trie)
        self._trie.insert(prefix, True)
        if len(self._trie) != size:
            bisect.insort(self._text, self._text_of(prefix))
            self.stamp = next(stamps)

    def discard(self, prefix: Prefix) -> bool:
        """Remove a block; True when it was present."""
        if not self._trie.remove(prefix):
            return False
        del self._text[bisect.bisect_left(self._text, self._text_of(prefix))]
        self.stamp = next(stamps)
        return True

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
        return {"peer": self.peer, "prefixes": list(self._text)}

    def load_state(self, state: StateDict) -> None:
        self.peer = int(state["peer"])
        self._trie = PrefixTrie()
        for text in state["prefixes"]:
            self._trie.insert(Prefix.parse(text), True)
        self._text = sorted(self._text_of(prefix) for prefix in self._trie.prefixes())
        self.stamp = next(stamps)


@stateful("eia")
class BasicInFilter:
    """Per-peer EIA sets plus the Section 5.2 check and learning rules.

    The reverse index (source block → owning peer) makes the check O(32)
    per flow regardless of how many peers exist, and the owner table in
    front of it answers a block it has seen before in one dict probe.
    One block has one owner: inserting it at a peer takes it from the
    peer that held it.
    """

    def __init__(
        self,
        config: Optional[EIAConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else EIAConfig()
        self._sets: Dict[int, EIASet] = {}
        # Block -> checkpoint text, shared by the sets: derived, and no
        # larger than the owner index (a block moves, it never leaves).
        self._block_texts: Dict[Prefix, str] = {}
        self._owner: PrefixTrie[int] = PrefixTrie()
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
            self._sets[peer] = eia = EIASet(peer, self._block_texts)
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
        eia = self.ensure_peer(peer)
        for prefix in prefixes:
            self._insert(eia, prefix)

    def initialize_from_flows(self, records: Iterable[FlowRecord]) -> None:
        """Training-phase initialisation from observed traffic (5.1.3a).

        Each record's source block (at the configured granularity) is
        added to the EIA set of the peer it arrived through — the
        flow-data variant of the training phase.
        """
        for record in records:
            peer = record.key.input_if
            block = Prefix.from_address(record.key.src_addr, self.config.granularity)
            eia = self.ensure_peer(peer)
            if not eia.contains(record.key.src_addr):
                self._insert(eia, block)

    def initialize_from_ingress_map(self, mapping: Dict[Prefix, int]) -> None:
        """Initialisation from routing-derived data (Sections 3.1/3.2):
        a map of source blocks to their expected ingress peer."""
        for prefix, peer in mapping.items():
            self._insert(self.ensure_peer(peer), prefix)

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
        reflecting that the route genuinely changed.
        """
        previous = self.table.entries.get(block.network >> self.memo_shift, MISSING)
        if previous is MISSING:
            previous = self._walk(block.network)
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
        """EIA sets plus the learning rule's pending counters.

        The reverse owner index is derived (every block in every set owns
        its entry) and is rebuilt on load rather than stored.  The owner
        table in front of it and the memo shift are likewise derived and
        excluded: a checkpoint is byte-identical whether the table is hot
        or cold, and a restored detector starts it cold.  Rendering costs
        what changed: each set hands over the text it keeps current, and
        a pending block is formatted once per block ever counted.
        """
        return section_state(self.state_sections())

    def state_sections(self) -> SectionTable:
        """:meth:`state_dict` as a section table: one leaf per EIA set,
        keyed on the set's stamp, and one for the pending counters,
        keyed on theirs.  An absorption changes two set stamps and the
        pending one; every other set keeps its text."""
        if not self._pending_stamp:
            self._pending_stamp = next(stamps)
        sets = self._sets
        return {
            "peers": {
                str(peer): Section(sets[peer].stamp, sets[peer].state_dict)
                for peer in self.peers()
            },
            "pending": Section(self._pending_stamp, self._pending_state),
        }

    def _pending_state(self) -> List[StateDict]:
        return [
            {"peer": peer, "prefix": prefix, "count": count}
            for peer, prefix, count in sorted(
                (peer, self._pending_text_of(block), count)
                for (peer, block), count in self._pending.items()
            )
        ]

    def load_state(self, state: StateDict) -> None:
        # What can refuse comes first: a refused restore changes nothing.
        pending: Dict[Tuple[int, int], int] = {}
        for entry in state["pending"]:
            prefix = Prefix.parse(entry["prefix"])
            if prefix.length != self.config.granularity:
                raise StateError(
                    f"pending entry {entry['prefix']} at peer {entry['peer']}:"
                    f" the learning rule counts /{self.config.granularity}"
                    " blocks"
                )
            key = (int(entry["peer"]), prefix.network >> self._pending_shift)
            pending[key] = int(entry["count"])
        sets: Dict[int, EIASet] = {}
        texts: Dict[Prefix, str] = {}
        owner: PrefixTrie[int] = PrefixTrie()
        memo_shift = 32
        for peer_text, section in state["peers"].items():
            eia = EIASet(int(peer_text), texts)
            eia.load_state(section)
            if str(eia.peer) != peer_text:
                raise StateError(
                    f"EIA section {peer_text!r} holds the set of peer"
                    f" {eia.peer}"
                )
            for prefix in eia.prefixes():
                holder = owner.get(prefix)
                if holder is not None:
                    raise StateError(
                        f"EIA block {prefix} is listed under peers {holder}"
                        f" and {eia.peer}: one block has one owner"
                    )
                owner.insert(prefix, eia.peer)
                memo_shift = min(memo_shift, 32 - prefix.length)
            sets[eia.peer] = eia
        self._sets = sets
        self._block_texts = texts
        self._pending = pending
        self._pending_stamp = 0
        self._owner = owner
        # A restore rewrites everything the table answers from.
        self.table.invalidate()
        self.memo_shift = memo_shift
        for eia in sets.values():
            self._set_gauge(eia)
