"""Deterministic source-prefix routing of flow records to shards.

The cluster partitions a record stream across N worker processes by the
flow's *source block* — the source address masked at the EIA learning
granularity.  Routing on the source block (rather than the full address
or the flow key) is what keeps the cluster exact: every flow that could
contribute to, or be affected by, one EIA absorption carries the same
block and therefore lands on the same worker.

The hash is a fixed-constant integer mix (splitmix64's finalizer) over
the masked address.  Python's built-in ``hash`` on ``str``/``bytes`` is
randomised per process and must never be used here: shard assignment has
to agree between the director and a restarted supervisor, and between
two runs of the same trace.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.netflow.records import FlowRecord
from repro.util.errors import ConfigError

__all__ = ["ShardRouter"]


def _mix64(value: int) -> int:
    """splitmix64's finalizer: a fixed avalanche over 64 bits."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


class ShardRouter:
    """Maps flow records to shard indices by masked source address."""

    def __init__(self, shards: int, granularity: int) -> None:
        if shards < 1:
            raise ConfigError(f"shard count must be >= 1, got {shards}")
        if not 0 <= granularity <= 32:
            raise ConfigError(
                f"routing granularity must be in [0, 32], got {granularity}"
            )
        self.shards = shards
        self.granularity = granularity
        self._shift = 32 - granularity

    def shard_for_address(self, src_addr: int) -> int:
        """The shard owning the source block that covers ``src_addr``."""
        return _mix64(src_addr >> self._shift) % self.shards

    def shard_for(self, record: FlowRecord) -> int:
        return self.shard_for_address(record.key.src_addr)

    def partition(self, records: Sequence[FlowRecord]) -> List[List[int]]:
        """Indices of ``records`` per shard, preserving stream order.

        Returns one index list per shard; concatenating them in shard
        order is a permutation of ``range(len(records))``, and within a
        shard the indices ascend, so each worker sees its records in the
        order the stream produced them.
        """
        buckets: List[List[int]] = [[] for _ in range(self.shards)]
        for index, record in enumerate(records):
            buckets[self.shard_for_address(record.key.src_addr)].append(index)
        return buckets
