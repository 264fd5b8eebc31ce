"""The bounded ingest queue between the UDP listener and the committer.

UDP delivers datagrams at whatever rate the network produces them; the
commit plane drains at whatever rate the detector sustains.  The queue
is the only coupling between the two, and it is explicitly *bounded*:
when ingest outruns commit the queue sheds load by policy instead of
growing without limit, and every shed is counted so operators can see
exactly what was sacrificed (``infilter_serve_shed_total``).

What it stores is decoded *datagrams*, not records: one entry per
admitted datagram — its column block, the row range still queued, and
the instant it arrived.  What it counts is *records*, everywhere:
``len(queue)``, ``capacity``, the shed policies and every statistic
behave exactly as if the rows had been put one at a time (a datagram
larger than the free space is admitted or evicted row by row, and a
commit batch that ends mid-datagram takes only the rows it has room
for).

The queue is single-loop: producers call :meth:`put_batch` from
event-loop callbacks (the datagram protocol), the one consumer awaits
:meth:`get_batch`.  No locks are needed because asyncio callbacks and
coroutine steps interleave only at await points.

A commit batch is what has arrived, not what a timer let in.  The
datagram transport reads one datagram per event-loop pass, so
:meth:`get_batch` yields pass by pass while each pass admits rows: a
backlog already in the socket joins the batch, a lone datagram commits
within a few passes, and under saturation the batch fills to its cap
and batches commit back to back.  Below capacity the batches size
themselves — a longer commit lets more datagrams queue for the next.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import asyncio

from repro.fastpath.columnar import RecordRow, RowBatch, RowColumns
from repro.netflow.records import FlowRecord
from repro.obs import MetricsRegistry, get_registry
from repro.serve.config import SHED_DROP_OLDEST, SHED_POLICIES
from repro.util.errors import ConfigError, ServeError

__all__ = ["QueuedBatch", "QueueStats", "IngestQueue"]


class QueuedBatch(RowBatch):
    """The rows of one commit batch, each slice with its ingest instant.

    ``enqueued_s`` parallels ``slices``: the monotonic
    (``perf_counter``) instant the slice's datagram was admitted, used
    only to measure ingest-to-verdict latency — observability, not
    simulation input, so it never feeds a detector decision.
    """

    __slots__ = ("enqueued_s",)

    def __init__(self) -> None:
        super().__init__()
        self.enqueued_s: List[float] = []


@dataclass
class QueueStats:
    """What the queue admitted and what it sacrificed."""

    enqueued: int = 0
    dequeued: int = 0
    shed: int = 0
    #: Highest depth ever observed, for capacity tuning.
    high_watermark: int = 0


class IngestQueue:
    """Bounded record queue with an explicit load-shedding policy.

    ``drop-oldest`` evicts rows from the head to admit the newest (the
    detector tracks the live edge of the traffic); ``reject-newest``
    refuses the incoming rows that do not fit (everything already
    admitted commits in order).  Both count into ``stats.shed`` and the
    shed counter metric, labelled by policy.
    """

    def __init__(
        self,
        capacity: int,
        *,
        shed_policy: str = SHED_DROP_OLDEST,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        if shed_policy not in SHED_POLICIES:
            raise ConfigError(
                f"shed_policy must be one of {'/'.join(SHED_POLICIES)},"
                f" got {shed_policy!r}"
            )
        self.capacity = capacity
        self.shed_policy = shed_policy
        self.stats = QueueStats()
        # (columns, start, stop, enqueued_s): the rows [start, stop) of
        # one datagram still queued.  _depth is their total.
        self._items: Deque[Tuple[RowColumns, int, int, float]] = deque()
        self._depth = 0
        self._closed = False
        self._wakeup: Optional[asyncio.Event] = None
        registry = registry if registry is not None else get_registry()
        self._m_enqueued = registry.counter(
            "infilter_serve_records_enqueued_total",
            "Flow records admitted to the ingest queue.",
        )
        self._m_shed = registry.counter(
            "infilter_serve_shed_total",
            "Flow records sacrificed by the bounded-queue shed policy.",
            ("policy",),
        ).labels(policy=shed_policy)
        self._m_depth = registry.gauge(
            "infilter_serve_queue_depth",
            "Flow records currently queued between listener and committer.",
        )

    def __len__(self) -> int:
        return self._depth

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called (drain mode)."""
        return self._closed

    def _event(self) -> asyncio.Event:
        # Created lazily so the queue can be built outside a running
        # loop (asyncio.Event binds to the loop it is first awaited on).
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        return self._wakeup

    def put_batch(self, columns: RowColumns) -> int:
        """Admit one decoded datagram; returns how many rows got in.

        Row for row what putting them one at a time would do.  A full
        queue invokes the shed policy: ``drop-oldest`` admits every row
        and evicts as many from the head (rows of this very datagram
        when it alone exceeds the capacity); ``reject-newest`` admits
        the rows that fit and counts the rest as shed.  Putting into a
        closed queue is a contract violation — the listener must be
        stopped before the drain.
        """
        if self._closed:
            raise ServeError("cannot enqueue into a closed ingest queue")
        stats = self.stats
        admitted = len(columns)
        overflow = self._depth + admitted - self.capacity
        if overflow > 0:
            stats.shed += overflow
            self._m_shed.inc(overflow)
            if self.shed_policy != SHED_DROP_OLDEST:
                admitted -= overflow
                overflow = 0
        if admitted:
            self._items.append((columns, 0, admitted, time.perf_counter()))
            self._depth += admitted
            stats.enqueued += admitted
            self._m_enqueued.inc(admitted)
            if overflow > 0:
                self._discard_head(overflow)
            if self._depth > stats.high_watermark:
                stats.high_watermark = self._depth
            self._m_depth.set(self._depth)
            self._event().set()
        return admitted

    def put(self, record: FlowRecord) -> bool:
        """Admit one record (a one-row batch); False when it was shed."""
        return self.put_batch(RecordRow(record)) == 1

    def _discard_head(self, rows: int) -> None:
        """Evict the ``rows`` oldest queued rows (drop-oldest)."""
        items = self._items
        self._depth -= rows
        while rows:
            columns, start, stop, enqueued_s = items[0]
            if stop - start <= rows:
                items.popleft()
                rows -= stop - start
            else:
                items[0] = (columns, start + rows, stop, enqueued_s)
                rows = 0

    def close(self) -> None:
        """Enter drain mode: no new records, consumers see the rest.

        After close, :meth:`get_batch` keeps returning queued records
        until the queue is empty, then returns an empty batch — the
        consumer's signal that the drain is complete.
        """
        self._closed = True
        self._event().set()

    def take_nowait(self, limit: int) -> QueuedBatch:
        """Dequeue up to ``limit`` records without waiting.

        A datagram with more rows than the batch has room for is split:
        the rest stays at the head for the next batch.
        """
        taken = QueuedBatch()
        items = self._items
        room = limit
        while items and room > 0:
            columns, start, stop, enqueued_s = items[0]
            if stop - start > room:
                items[0] = (columns, start + room, stop, enqueued_s)
                stop = start + room
            else:
                items.popleft()
            taken.append(columns, start, stop)
            taken.enqueued_s.append(enqueued_s)
            room -= stop - start
        if taken:
            self._depth -= len(taken)
            self.stats.dequeued += len(taken)
            self._m_depth.set(self._depth)
        if not items and not self._closed:
            self._event().clear()
        return taken

    async def get_batch(self, max_batch: int) -> QueuedBatch:
        """Await the next micro-batch (empty batch = closed and drained).

        Waits until at least one record is queued (or the queue closes),
        then yields to the event loop for as long as each pass admits
        more rows.  The batch is taken at the first pass that admits
        none, as soon as ``max_batch`` rows (or the whole capacity) are
        queued, or when the queue closes.  Arrivals are counted by
        ``stats.enqueued``: drop-oldest shedding keeps the depth flat
        while rows still arrive.
        """
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        while not self._items:
            if self._closed:
                return QueuedBatch()
            event = self._event()
            event.clear()
            await event.wait()
        full = min(max_batch, self.capacity)
        seen = -1
        while (
            self._depth < full
            and self.stats.enqueued != seen
            and not self._closed
        ):
            seen = self.stats.enqueued
            await asyncio.sleep(0)
        return self.take_nowait(max_batch)
