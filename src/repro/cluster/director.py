"""The flow director: shard-affine datagram steering without decoding.

The front end of the cluster receives real NetFlow v5 datagrams and must
hand every record to the worker that owns its source block — the
splitmix64 source-block assignment of
:class:`repro.cluster.router.ShardRouter`, which is what makes the
cluster exact: every flow that can contribute to, or be affected by, one
EIA absorption lands on one worker.

The director never decodes a record.  A v5 record's source address is
the first four bytes of its fixed 48-byte wire slice, so routing is a
byte-slice, an integer mix, and a table append; per-shard output
datagrams are re-framed with a synthetic header carrying a **per-shard
flow sequence** so each worker's collector sees a gapless stream and
transport loss stays observable end to end.

For supervised restart the director keeps an append-only log of every
routed record slice per shard.  ``pause(shard)`` parks a crashed shard
(slices keep accumulating in the log, nothing is sent), and
``replay(shard, cursor)`` re-frames and re-sends everything from the
worker's checkpoint cursor onward — the worker's fresh collector
baselines on the first datagram it sees, so the resumed stream is
seamless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.cluster.router import ShardRouter
from repro.netflow.v5 import (
    HEADER_LEN,
    HEADER_STRUCT,
    MAX_RECORDS_PER_DATAGRAM,
    NETFLOW_V5_VERSION,
    RECORD_LEN,
)
from repro.obs import MetricsRegistry, get_logger, get_registry
from repro.util.errors import ClusterError

__all__ = ["DirectorStats", "FlowDirector"]

log = get_logger(__name__)

#: ``sendto``-shaped callable the supervisor wires to its UDP transport.
SendFn = Callable[[bytes, Tuple[str, int]], None]


@dataclass(frozen=True)
class DirectorStats:
    """What the director received, steered, and refused."""

    datagrams: int
    datagrams_invalid: int
    records_routed: int
    records_replayed: int
    per_shard_routed: Tuple[int, ...]


class FlowDirector:
    """Steers raw v5 record slices to their owning shard worker."""

    def __init__(
        self,
        router: ShardRouter,
        *,
        send: SendFn,
        registry: Optional[MetricsRegistry] = None,
        keep_log: bool = True,
    ) -> None:
        self.router = router
        self._send = send
        self._keep_log = keep_log
        shards = router.shards
        self._targets: List[Optional[Tuple[str, int]]] = [None] * shards
        #: Records routed to each shard so far == that shard's next
        #: outgoing flow sequence number == its replay-log length.
        self._routed: List[int] = [0] * shards
        self._log: List[List[bytes]] = [[] for _ in range(shards)]
        self._paused: List[bool] = [False] * shards
        self._datagrams = 0
        self._invalid = 0
        self._replayed = 0
        registry = registry if registry is not None else get_registry()
        self._m_datagrams = registry.counter(
            "infilter_cluster_datagrams_total",
            "Datagrams at the cluster front, by routing outcome.",
            ("outcome",),
        )
        self._m_routed = registry.counter(
            "infilter_cluster_records_routed_total",
            "Records steered to each shard worker by the flow director.",
            ("worker",),
        )
        self._m_replayed = registry.counter(
            "infilter_cluster_records_replayed_total",
            "Records re-sent to a restarted worker from the replay log.",
            ("worker",),
        )

    # -- accounting ----------------------------------------------------------

    def stats(self) -> DirectorStats:
        return DirectorStats(
            datagrams=self._datagrams,
            datagrams_invalid=self._invalid,
            records_routed=sum(self._routed),
            records_replayed=self._replayed,
            per_shard_routed=tuple(self._routed),
        )

    def routed_to(self, shard: int) -> int:
        """Records routed to ``shard`` so far (its stream cursor)."""
        return self._routed[shard]

    # -- wiring --------------------------------------------------------------

    def set_target(self, shard: int, address: Tuple[str, int]) -> None:
        """Point ``shard``'s output at a worker's ingest socket."""
        self._targets[shard] = address

    def pause(self, shard: int) -> None:
        """Park a shard: keep logging its records, send nothing."""
        self._paused[shard] = True

    def resume(self, shard: int) -> None:
        """Unpark a shard (call after :meth:`replay` has caught it up)."""
        self._paused[shard] = False

    # -- the data path -------------------------------------------------------

    def route_datagram(self, data: bytes) -> int:
        """Steer one front datagram; returns the records routed.

        Only NetFlow v5 is steered — the director cannot slice what it
        cannot frame, so v1 and malformed datagrams count as invalid and
        are dropped here rather than poisoning a worker's stream.
        """
        self._datagrams += 1
        if len(data) < HEADER_LEN or data[0:2] != b"\x00\x05":
            self._invalid += 1
            self._m_datagrams.labels(outcome="invalid").inc()
            return 0
        count = int.from_bytes(data[2:4], "big")
        if len(data) != HEADER_LEN + count * RECORD_LEN or count == 0:
            self._invalid += 1
            self._m_datagrams.labels(outcome="invalid").inc()
            return 0
        shards = self.router.shards
        buckets: List[List[bytes]] = [[] for _ in range(shards)]
        offset = HEADER_LEN
        for _ in range(count):
            record = data[offset:offset + RECORD_LEN]
            offset += RECORD_LEN
            src_addr = int.from_bytes(record[0:4], "big")
            buckets[self.router.shard_for_address(src_addr)].append(record)
        for shard, slices in enumerate(buckets):
            if not slices:
                continue
            if self._keep_log:
                self._log[shard].extend(slices)
            if not self._paused[shard]:
                self._emit(shard, slices, self._routed[shard])
            self._routed[shard] += len(slices)
            self._m_routed.labels(worker=str(shard)).inc(len(slices))
        self._m_datagrams.labels(outcome="routed").inc()
        return count

    def replay(self, shard: int, from_cursor: int) -> int:
        """Re-send ``shard``'s log from ``from_cursor``; returns the count.

        Called with the restarted worker's checkpoint cursor while the
        shard is paused: everything the previous incarnation had not yet
        checkpointed — plus whatever arrived during the restart — goes
        out again, framed with sequence numbers continuing from the
        cursor so the fresh collector sees one gapless stream.
        """
        if not self._keep_log:
            return 0
        backlog = self._log[shard][from_cursor:]
        if from_cursor + len(backlog) != self._routed[shard]:
            raise ClusterError(
                f"replay log for shard {shard} is inconsistent:"
                f" cursor {from_cursor} + backlog {len(backlog)}"
                f" != routed {self._routed[shard]}"
            )
        if backlog:
            self._emit(shard, backlog, from_cursor)
        self._replayed += len(backlog)
        self._m_replayed.labels(worker=str(shard)).inc(len(backlog))
        return len(backlog)

    def _emit(self, shard: int, slices: List[bytes], sequence: int) -> None:
        target = self._targets[shard]
        if target is None:
            raise ClusterError(f"shard {shard} has no worker target")
        for start in range(0, len(slices), MAX_RECORDS_PER_DATAGRAM):
            chunk = slices[start:start + MAX_RECORDS_PER_DATAGRAM]
            # A synthetic header: record timestamps live entirely inside
            # the 48-byte record slices, so zeroed header clocks decode
            # identically; the per-shard sequence keeps loss observable.
            header = HEADER_STRUCT.pack(
                NETFLOW_V5_VERSION, len(chunk), 0, 0, 0,
                sequence + start, 0, 0, 0,
            )
            self._send(header + b"".join(chunk), target)
