"""The verdict memo: memoised verdicts with epoch invalidation.

:class:`FastPath` is the EIA verdict memo every detector carries: a
bounded :class:`~repro.fastpath.lru.VerdictLRU` of per-(source block,
ingress) verdicts, an *epoch* guard that drops the whole memo the
moment the authoritative EIA state reports a mutation (learning-rule
absorption, preload, checkpoint restore, route churn), and the
hit/miss/invalidation counters the tuning guide
(``docs/performance.md``) is written around.

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

from repro.fastpath.lru import VerdictLRU
from repro.obs import MetricsRegistry, get_registry

__all__ = ["DEFAULT_MEMO_CAPACITY", "FastPath"]

K = TypeVar("K")
V = TypeVar("V")

#: Default verdict-memo bound.  At two ints per key and one frozen
#: EIACheck per value this is a few tens of MB worst case — sized so a
#: serving daemon absorbing the Figure 15 attack mix never evicts the
#: legal working set (see docs/performance.md for the sizing argument).
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
        self.memo: VerdictLRU[K, V] = VerdictLRU(capacity)
        self._epoch: Optional[int] = None
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

    def lookup(self, key: K, epoch: int) -> Optional[V]:
        """The memoised verdict for ``key`` at ``epoch``; None on miss.

        Crossing into a new epoch drops every entry first — the memo
        can only ever answer for the epoch it was filled under.
        """
        if epoch != self._epoch:
            self.invalidate()
            self._epoch = epoch
        value = self.memo.get(key)
        if value is None:
            self._m_misses.inc()
            return None
        self._m_hits.inc()
        return value

    def store(self, key: K, value: V, epoch: int) -> None:
        """Memoise a freshly computed verdict for ``epoch``.

        A store that disagrees with the memo's epoch is dropped rather
        than poisoning a future epoch's probes.
        """
        if epoch != self._epoch:
            return
        self.memo.put(key, value)

    def invalidate(self) -> int:
        """Drop the memo wholesale; returns the number of entries dropped."""
        dropped = self.memo.invalidate_all()
        if dropped:
            self._m_invalidations.inc()
        return dropped

    # -- stats surface -------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Memo counters for CLI/report surfaces (not the obs registry)."""
        hits, misses, evictions, invalidations = self.memo.counters()
        return {
            "size": len(self.memo),
            "capacity": self.memo.capacity,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "invalidations": invalidations,
        }
