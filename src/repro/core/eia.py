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

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import EIAConfig
from repro.core.state import StateDict, stateful
from repro.netflow.records import FlowRecord
from repro.obs import MetricsRegistry, get_logger, get_registry
from repro.util.errors import ConfigError
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
    """The expected source address blocks of one peer AS."""

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

    The reverse index (source block → owning peer) makes the check O(32)
    per flow regardless of how many peers exist.
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
        # (peer, block) -> benign observations, for the learning rule.
        self._pending: Dict[Tuple[int, Prefix], int] = {}
        #: Monotonic counter bumped by every mutation that can change a
        #: ``check()`` outcome (preload, training init, absorption,
        #: checkpoint restore).  Derived bookkeeping for epoch-guarded
        #: caches (``repro.fastpath``); never checkpointed.
        self.mutation_epoch = 0
        #: Right-shift collapsing an address onto its verdict-sharing
        #: block: 32 minus the longest stored prefix length.  Two
        #: addresses agreeing above the shift get identical :meth:`check`
        #: results for a given ingress, so ``address >> memo_shift`` is a
        #: sound verdict-memo key.  With no prefixes stored the shift is 32
        #: and every address shares one key, which is exactly right (every
        #: check is ``UNKNOWN_SOURCE``).  Also derived; never checkpointed.
        self.memo_shift = 32
        registry = registry if registry is not None else get_registry()
        self._m_blocks = registry.gauge(
            "infilter_eia_blocks",
            "Expected source blocks currently in one peer AS's EIA set.",
            ("peer",),
        )
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
        eia.add(prefix)
        self._owner.insert(prefix, eia.peer)
        self.mutation_epoch += 1
        self.memo_shift = min(self.memo_shift, 32 - prefix.length)
        self._m_blocks.labels(peer=eia.peer).set(len(eia))

    # -- the check ----------------------------------------------------------

    def expected_peer_for(self, address: int) -> Optional[int]:
        """The peer AS whose EIA set covers ``address`` (``ASIP(φ)``)."""
        match = self._owner.longest_match(address)
        return match[1] if match is not None else None

    def check(self, record: FlowRecord) -> EIACheck:
        """The Basic InFilter assessment of one flow (Section 5.2)."""
        observed = record.key.input_if
        expected = self.expected_peer_for(record.key.src_addr)
        if expected is None:
            verdict = EIAVerdict.UNKNOWN_SOURCE
        elif expected == observed:
            verdict = EIAVerdict.LEGAL
        else:
            verdict = EIAVerdict.WRONG_INGRESS
        return EIACheck(verdict=verdict, observed_peer=observed, expected_peer=expected)

    # -- online learning ----------------------------------------------------

    def note_benign(self, record: FlowRecord) -> bool:
        """Record a benign-assessed suspect flow; absorb after threshold.

        Implements Section 5.2(a): ``IP(φ)`` is added to the EIA set of
        ``ASφ`` once the number of (benign) flows from that source block
        at that peer exceeds the learning threshold.  Returns True when
        the absorption happened on this call.
        """
        peer = record.key.input_if
        block = Prefix.from_address(record.key.src_addr, self.config.granularity)
        key = (peer, block)
        count = self._pending.get(key, 0) + 1
        if count >= self.config.learning_threshold:
            self._pending.pop(key, None)
            self.apply_absorption(peer, block)
            return True
        self._pending[key] = count
        return False

    def apply_absorption(self, peer: int, block: Prefix) -> Optional[int]:
        """Absorb ``block`` into ``peer``'s EIA set, returning the old owner.

        Absorption *moves* the block: the old owner no longer expects it,
        reflecting that the route genuinely changed.  Exposed so shard
        replicas (``repro.engine``) can replay absorption deltas decided
        by the authoritative detector without re-running the learning
        rule.
        """
        eia = self.ensure_peer(peer)
        previous = self.expected_peer_for(block.network)
        if previous is not None and previous != peer:
            self._sets[previous].discard(block)
            self._m_blocks.labels(peer=previous).set(
                len(self._sets[previous])
            )
        self._insert(eia, block)
        self._m_absorptions.inc()
        log.info(
            "EIA absorption: block moved to peer",
            extra={
                "block": str(block),
                "peer": peer,
                "previous_peer": previous,
            },
        )
        return previous

    def pending_counts(self) -> Dict[Tuple[int, Prefix], int]:
        """Snapshot of not-yet-absorbed source observations (for tests)."""
        return dict(self._pending)

    # -- the stage-state protocol --------------------------------------------

    def state_dict(self) -> StateDict:
        """EIA sets plus the learning rule's pending counters.

        The reverse owner index is derived (every block in every set owns
        its entry) and is rebuilt on load rather than stored.  The
        mutation epoch and memo shift are likewise derived cache
        bookkeeping and deliberately excluded: a checkpoint must be
        byte-identical whether the verdict memo is hot or cold, and a
        restored detector always starts its caches cold.
        """
        return {
            "peers": {
                str(peer): self._sets[peer].state_dict()
                for peer in self.peers()
            },
            "pending": [
                {"peer": peer, "prefix": str(prefix), "count": count}
                for (peer, prefix), count in sorted(
                    self._pending.items(),
                    key=lambda item: (item[0][0], str(item[0][1])),
                )
            ],
        }

    def load_state(self, state: StateDict) -> None:
        self._sets = {}
        self._owner = PrefixTrie()
        self._pending = {}
        # A restore rewrites everything check() depends on: advance the
        # epoch so any attached verdict memo self-invalidates.
        self.mutation_epoch += 1
        self.memo_shift = 32
        for peer_text, section in state["peers"].items():
            peer = int(peer_text)
            eia = self.ensure_peer(peer)
            eia.load_state(section)
            for prefix in eia.prefixes():
                self._owner.insert(prefix, peer)
                self.memo_shift = min(self.memo_shift, 32 - prefix.length)
            self._m_blocks.labels(peer=peer).set(len(eia))
        for entry in state["pending"]:
            key = (int(entry["peer"]), Prefix.parse(entry["prefix"]))
            self._pending[key] = int(entry["count"])
