"""The owner table: a bounded, write-through block -> answer table.

:class:`FastPath` is the table :class:`~repro.core.eia.BasicInFilter`
answers its check from: one entry per source block (``address >>
memo_shift``) holding the peer AS the block is expected through.  The
filter keeps it right instead of forgetting it: an insert that names one
block and its new owner is *written through* (:meth:`FastPath.put`);
only a change that may touch many blocks at once — a prefix length that
moves the key shift or covers more-specifics, a restore — clears it
(:meth:`FastPath.invalidate`).  The bound is the NNS memos' policy, a
plain dict cleared at capacity, not an LRU: the batch commit loop probes
:attr:`FastPath.entries` directly, and recency bookkeeping is the
per-hit cost that probe exists to avoid.

Generic and dependency-light: the plane never imports :mod:`repro.core`
(its owner hands in opaque keys and values), and it does **not**
implement the stage-state protocol — the table is derived data, a
restored detector starts cold, and checkpoints are byte-identical
whether it is hot or cold.
"""

from __future__ import annotations

from typing import Any, Dict, Generic, Optional, TypeVar

from repro.obs import MetricsRegistry, get_registry
from repro.util.errors import ConfigError

__all__ = ["DEFAULT_MEMO_CAPACITY", "MISSING", "FastPath"]

K = TypeVar("K")
V = TypeVar("V")

#: Default table bound: a few MB of ints worst case, far above any
#: deployment's block space (docs/performance.md has the sizing argument).
DEFAULT_MEMO_CAPACITY = 131_072

#: What a direct probe of :attr:`FastPath.entries` passes as the default:
#: ``None`` is a legitimate answer (no peer expects the block).
MISSING: Any = object()


class FastPath(Generic[K, V]):
    """Bounded write-through table with the memo counters.

    The owner probes :attr:`entries` directly (``entries.get(key,
    MISSING)``) and reports what it found through :meth:`note_hits` and
    :meth:`fill`.  The dict is cleared in place, never rebound: a
    reference held across rows stays the live table.
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
        self.entries: Dict[K, V] = {}
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
            "Wholesale clears (prefix-length change, restore, capacity).",
        )

    def note_hits(self, count: int) -> None:
        """Account ``count`` direct probes of :attr:`entries` that hit."""
        self._hits += count
        self._m_hits.inc(count)

    def fill(self, key: K, value: V) -> None:
        """A probe missed and the owner worked the answer out: count the
        miss and keep the answer."""
        self._misses += 1
        self._m_misses.inc()
        self.put(key, value)

    def put(self, key: K, value: V) -> None:
        """Write ``key``'s current answer through.

        A full table is cleared first (in place), unless ``key`` is
        already in it — an overwrite is not growth.
        """
        if len(self.entries) >= self.capacity and key not in self.entries:
            self._evictions += self.invalidate()
        self.entries[key] = value

    def invalidate(self) -> int:
        """Clear the table wholesale; returns the number of entries dropped."""
        dropped = len(self.entries)
        self.entries.clear()
        if dropped:
            self._invalidations += 1
            self._m_invalidations.inc()
        return dropped

    # -- stats surface -------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Table counters for CLI/report surfaces (not the obs registry)."""
        return {
            "size": len(self.entries),
            "capacity": self.capacity,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "invalidations": self._invalidations,
        }
