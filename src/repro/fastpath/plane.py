"""The verdict memo: memoised verdicts with epoch invalidation.

:class:`FastPath` is the EIA verdict memo every detector carries: a
bounded dict of per-(source block, ingress) verdicts, an *epoch* guard
that drops the whole memo the moment the authoritative EIA state
reports a mutation (learning-rule absorption, preload, checkpoint
restore, route churn), and the hit/miss/invalidation counters the
tuning guide (``docs/performance.md``) is written around.

The bound is the NNS memos' policy — a plain dict cleared when it
reaches capacity — not an LRU: the batch commit loop probes the dict
directly (:meth:`FastPath.entries`), and recency bookkeeping is exactly
the per-hit cost that probe exists to avoid.  The default capacity sits
far above any deployment's (block, peer) key space, so the clear is a
backstop, not a working-set policy.

Deliberately generic and dependency-light: the plane never imports
:mod:`repro.core` — the pipeline hands in opaque keys and cached
values (its own :class:`~repro.core.eia.EIACheck` objects) plus the
epoch integer, so there is no import cycle and no chance of the cache
layer second-guessing detection semantics.  It also deliberately does
**not** implement the stage-state protocol: a memo is derived data, a
restored detector always starts cold, and checkpoints stay
byte-identical whether the cache is hot or cold.
"""

from __future__ import annotations

from typing import Dict, Generic, Optional, TypeVar

from repro.obs import MetricsRegistry, get_registry
from repro.util.errors import ConfigError

__all__ = ["DEFAULT_MEMO_CAPACITY", "FastPath"]

K = TypeVar("K")
V = TypeVar("V")

#: Default verdict-memo bound.  At two ints per key and one frozen
#: EIACheck per value this is a few tens of MB worst case — sized so a
#: serving daemon absorbing the Figure 15 attack mix never reaches it
#: (see docs/performance.md for the sizing argument).
DEFAULT_MEMO_CAPACITY = 131_072


class FastPath(Generic[K, V]):
    """Epoch-guarded verdict memo.

    ``lookup`` must be passed the authoritative state's current
    mutation epoch on every probe; a mismatch invalidates the whole
    memo before the probe, so a stale verdict can never be served
    across an EIA mutation.  This is the "explicit invalidation on
    absorption and route-churn epochs" contract from the design issue —
    the owner does not need to remember to call anything when state
    changes, it only needs to keep bumping its epoch.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_MEMO_CAPACITY,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"memo capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: Dict[K, V] = {}
        self._epoch: Optional[int] = None
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        registry = registry if registry is not None else get_registry()
        self._m_hits = registry.counter(
            "infilter_fastpath_cache_hits_total",
            "Verdict-memo hits on the fastpath batch plane.",
        )
        self._m_misses = registry.counter(
            "infilter_fastpath_cache_misses_total",
            "Verdict-memo misses on the fastpath batch plane.",
        )
        self._m_invalidations = registry.counter(
            "infilter_fastpath_invalidations_total",
            "Wholesale memo invalidations (EIA mutation epochs).",
        )

    # -- verdict memo --------------------------------------------------------

    @property
    def epoch(self) -> Optional[int]:
        """The state epoch the memo contents are valid for."""
        return self._epoch

    def entries(self, epoch: int) -> Dict[K, V]:
        """The memo's dict, valid for ``epoch``, for direct probing.

        Crossing into a new epoch drops every entry first — the memo
        can only ever answer for the epoch it was filled under.  The
        batch commit loop holds the returned dict across rows and
        reports what it answered from it through :meth:`note_hits`; it
        must come back here whenever the authoritative epoch may have
        moved (after every row it commits), or it serves a verdict from
        before the mutation.
        """
        if epoch != self._epoch:
            self.invalidate()
            self._epoch = epoch
        return self._entries

    def note_hits(self, count: int) -> None:
        """Account ``count`` direct probes of :meth:`entries` that hit."""
        self._hits += count
        self._m_hits.inc(count)

    def lookup(self, key: K, epoch: int) -> Optional[V]:
        """The memoised verdict for ``key`` at ``epoch``; None on miss.

        Same epoch rule as :meth:`entries` (inlined: one call per probe).
        """
        if epoch != self._epoch:
            self.invalidate()
            self._epoch = epoch
        value = self._entries.get(key)
        if value is None:
            self._misses += 1
            self._m_misses.inc()
            return None
        self._hits += 1
        self._m_hits.inc()
        return value

    def store(self, key: K, value: V, epoch: int) -> None:
        """Memoise a freshly computed verdict for ``epoch``.

        A store that disagrees with the memo's epoch is dropped rather
        than poisoning a future epoch's probes.  A full memo is cleared
        (in place: a held :meth:`entries` dict stays the live one).
        """
        if epoch != self._epoch:
            return
        entries = self._entries
        if len(entries) >= self.capacity and key not in entries:
            self._evictions += len(entries)
            entries.clear()
        entries[key] = value

    def invalidate(self) -> int:
        """Drop the memo wholesale; returns the number of entries dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        if dropped:
            self._invalidations += 1
            self._m_invalidations.inc()
        return dropped

    # -- stats surface -------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Memo counters for CLI/report surfaces (not the obs registry)."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "invalidations": self._invalidations,
        }
