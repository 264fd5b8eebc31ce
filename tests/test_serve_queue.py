"""Tests for the serve configuration and the bounded ingest queue.

The queue is the backpressure boundary of the daemon: these tests pin
down the two shed policies, the close-then-drain contract that graceful
shutdown depends on, how a micro-batch gathers what has arrived (loop
pass by loop pass, never on a timer), and — under
bursty concurrent producers — the exact reconciliation of each policy's
counters with the record-fate totals in :class:`ServeReport`.
"""

from __future__ import annotations

import socket
from collections import deque
from dataclasses import asdict

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EnhancedInFilter, PipelineConfig
from repro.fastpath.columnar import RecordColumns, decode_v5_columnar
from repro.netflow.records import PROTO_UDP, FlowKey, FlowRecord
from repro.netflow.v5 import datagrams_for, encode_datagram
from repro.obs import MetricsRegistry
from repro.serve import ServeDaemon
from repro.serve.config import (
    SHED_DROP_OLDEST,
    SHED_REJECT_NEWEST,
    ServeConfig,
)
from repro.serve.queue import IngestQueue, QueueStats
from repro.util.errors import ConfigError, ServeError


def record(index=0):
    return FlowRecord(
        key=FlowKey(
            src_addr=index + 1, dst_addr=9, protocol=PROTO_UDP, dst_port=9_000
        ),
        packets=1,
        octets=64,
        first=0,
        last=10,
    )


def make_queue(capacity=4, **kwargs):
    return IngestQueue(capacity, registry=MetricsRegistry(), **kwargs)


class TestServeConfig:
    def test_defaults_are_valid(self):
        config = ServeConfig()
        assert config.shed_policy == SHED_DROP_OLDEST
        assert config.checkpoint_every == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"port": -1},
            {"port": 70_000},
            {"queue_capacity": 0},
            {"shed_policy": "drop-some"},
            {"batch_size": 0},
            {"checkpoint_every": -1},
            {"checkpoint_every": 5},  # without a checkpoint_path
            {"http_port": 70_000},
            {"max_records": 0},
            {"idle_exit_s": 0.0},
        ],
    )
    def test_rejects_contradictory_configs(self, kwargs):
        with pytest.raises(ConfigError):
            ServeConfig(**kwargs)

    def test_reload_path_defaults_to_checkpoint_path(self):
        config = ServeConfig(checkpoint_every=2, checkpoint_path="ckpt.json")
        assert config.effective_reload_path == "ckpt.json"
        explicit = ServeConfig(reload_path="other.json")
        assert explicit.effective_reload_path == "other.json"
        assert ServeConfig().effective_reload_path is None


class TestIngestQueue:
    def test_rejects_bad_construction(self):
        with pytest.raises(ConfigError):
            make_queue(capacity=0)
        with pytest.raises(ConfigError):
            make_queue(shed_policy="coin-flip")

    def test_put_admits_and_counts(self):
        queue = make_queue()
        assert queue.put(record()) is True
        assert len(queue) == 1
        assert queue.stats.enqueued == 1
        assert queue.stats.high_watermark == 1

    def test_drop_oldest_evicts_the_head(self):
        queue = make_queue(capacity=2, shed_policy=SHED_DROP_OLDEST)
        for i in range(3):
            assert queue.put(record(i)) is True
        assert queue.stats.shed == 1
        # The head (record 0) was sacrificed; the live edge survives.
        kept = [r.key.src_addr for r in queue.take_nowait(10).records()]
        assert kept == [2, 3]

    def test_reject_newest_refuses_the_incoming_record(self):
        queue = make_queue(capacity=2, shed_policy=SHED_REJECT_NEWEST)
        assert queue.put(record(0)) is True
        assert queue.put(record(1)) is True
        assert queue.put(record(2)) is False
        assert queue.stats.shed == 1
        kept = [r.key.src_addr for r in queue.take_nowait(10).records()]
        assert kept == [1, 2]

    def test_put_after_close_is_a_contract_violation(self):
        queue = make_queue()
        queue.close()
        with pytest.raises(ServeError):
            queue.put(record())
        with pytest.raises(ServeError):
            queue.put_batch(RecordColumns([record(), record(1)]))

    def test_take_nowait_respects_limit_and_counts(self):
        queue = make_queue(capacity=8)
        for i in range(5):
            queue.put(record(i))
        first = queue.take_nowait(3)
        assert [r.key.src_addr for r in first.records()] == [1, 2, 3]
        assert queue.stats.dequeued == 3
        assert len(queue) == 2

    def test_get_batch_rejects_bad_max_batch(self):
        queue = make_queue()

        async def main():
            await queue.get_batch(0)

        with pytest.raises(ConfigError):
            asyncio.run(main())

    def test_get_batch_wakes_on_put(self):
        async def main():
            queue = make_queue()

            async def producer():
                await asyncio.sleep(0.01)
                queue.put(record(7))

            task = asyncio.ensure_future(producer())
            batch = await asyncio.wait_for(queue.get_batch(8), timeout=5)
            await task
            return batch

        batch = asyncio.run(main())
        assert [r.key.src_addr for r in batch.records()] == [8]

    @staticmethod
    def _gather(queue, max_batch, arrivals):
        """``get_batch(max_batch)`` while a producer puts ``arrivals[i]``
        records on the i-th loop pass after the first record; returns
        the batch's source addresses and the producer's passes so far.
        The producer is finite, so a gather that never stopped on its
        own would still end, with the whole stream."""

        async def main():
            queue.put(record(0))
            passes = 0

            async def producer():
                nonlocal passes
                sent = 1
                for count in arrivals:
                    passes += 1
                    for _ in range(count):
                        queue.put(record(sent))
                        sent += 1
                    await asyncio.sleep(0)

            task = asyncio.ensure_future(producer())
            batch = await queue.get_batch(max_batch)
            taken_at = passes
            task.cancel()
            return [r.key.src_addr for r in batch.records()], taken_at

        return asyncio.run(main())

    def test_rows_put_on_consecutive_passes_join_one_batch(self):
        rows, _passes = self._gather(make_queue(capacity=64), 64, [1, 2, 1])
        assert rows == [1, 2, 3, 4, 5]

    def test_batch_is_taken_at_the_first_pass_that_admits_nothing(self):
        queue = make_queue(capacity=64)
        rows, passes = self._gather(queue, 64, [1, 0, 1, 1])
        # Taken on the producer's second pass, the one that put nothing:
        # the rows due after it belong to the next batch.
        assert rows == [1, 2]
        assert passes == 2

    def test_max_batch_caps_the_batch(self):
        queue = make_queue(capacity=64)
        rows, passes = self._gather(queue, 4, [2, 2, 2])
        # Full on the second pass: taken there, with the rest queued.
        assert rows == [1, 2, 3, 4]
        assert passes == 2
        assert len(queue) == 1

    def test_close_during_the_gather_returns_the_queued_rows(self):
        async def main():
            queue = make_queue(capacity=16)
            queue.put(record(0))

            async def closer():
                # Runs on the first pass the gather yields to.
                queue.put(record(1))
                queue.close()

            task = asyncio.ensure_future(closer())
            first = await queue.get_batch(8)
            await task
            second = await queue.get_batch(8)
            return first, second

        first, second = asyncio.run(main())
        assert [r.key.src_addr for r in first.records()] == [1, 2]
        assert not second

    def test_drop_oldest_below_max_batch_terminates_the_gather(self):
        """Producers that admit rows on every pass, into a queue smaller
        than the batch: the gather stops once the whole capacity is
        queued, with the live edge when shedding evicted the head."""
        queue = make_queue(capacity=4, shed_policy=SHED_DROP_OLDEST)
        rows, passes = self._gather(queue, 8, [1] * 1_000)
        assert (rows, passes, queue.stats.shed) == ([1, 2, 3, 4], 3, 0)
        queue = make_queue(capacity=4, shed_policy=SHED_DROP_OLDEST)
        rows, passes = self._gather(queue, 8, [5] * 1_000)
        assert (rows, passes, queue.stats.shed) == ([3, 4, 5, 6], 1, 2)

    def test_close_then_drain_then_empty_batch(self):
        async def main():
            queue = make_queue(capacity=8)
            for i in range(5):
                queue.put(record(i))
            queue.close()
            batches = []
            while True:
                batch = await queue.get_batch(2)
                if not batch:
                    break
                batches.append([r.key.src_addr for r in batch.records()])
            return batches, queue.stats

        batches, stats = asyncio.run(main())
        # Everything admitted before the close is still delivered, in
        # order; only then does the empty drain marker appear.
        assert batches == [[1, 2], [3, 4], [5]]
        assert stats.dequeued == 5

    def test_get_batch_on_closed_empty_queue_returns_immediately(self):
        async def main():
            queue = make_queue()
            queue.close()
            return await asyncio.wait_for(queue.get_batch(4), timeout=5)

        batch = asyncio.run(main())
        assert not batch and len(batch) == 0

    def test_enqueued_timestamps_are_monotonic(self):
        queue = make_queue(capacity=8)
        for i in range(3):
            queue.put(record(i))
        batch = queue.take_nowait(8)
        stamps = batch.enqueued_s
        # One stamp per slice (here: per one-row put), oldest first.
        assert len(stamps) == len(batch.slices) == 3
        assert stamps == sorted(stamps)


class _RecordAtATimeQueue:
    """The queue as it was before it moved datagrams: a deque of
    records, one ``put`` per record.  The reference the datagram queue
    must be indistinguishable from, row for row."""

    def __init__(self, capacity, shed_policy):
        self.capacity = capacity
        self.shed_policy = shed_policy
        self.stats = QueueStats()
        self.items = deque()
        self.closed = False

    def __len__(self):
        return len(self.items)

    def put(self, item):
        if self.closed:
            raise ServeError("cannot enqueue into a closed ingest queue")
        if len(self.items) >= self.capacity:
            self.stats.shed += 1
            if self.shed_policy == SHED_DROP_OLDEST:
                self.items.popleft()
            else:
                return False
        self.items.append(item)
        self.stats.enqueued += 1
        self.stats.high_watermark = max(
            self.stats.high_watermark, len(self.items)
        )
        return True

    def take_nowait(self, limit):
        taken = []
        while self.items and len(taken) < limit:
            taken.append(self.items.popleft())
        self.stats.dequeued += len(taken)
        return taken


_QUEUE_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(min_value=1, max_value=30)),
        st.tuples(st.just("take"), st.integers(min_value=1, max_value=70)),
    ),
    min_size=1,
    max_size=40,
)


class TestQueueAgainstItsOldSelf:
    @given(
        capacity=st.one_of(
            st.integers(min_value=1, max_value=40),  # smaller than a datagram
            st.integers(min_value=41, max_value=600),
        ),
        shed_policy=st.sampled_from([SHED_DROP_OLDEST, SHED_REJECT_NEWEST]),
        steps=_QUEUE_STEPS,
    )
    @settings(max_examples=150, deadline=None)
    def test_datagram_puts_equal_record_puts(self, capacity, shed_policy, steps):
        """Any interleaving of datagram puts (1–30 rows, decoded by the
        real columnar decoder) and ``take_nowait(limit)``: same rows out
        in the same order, same depth, same statistics after every step
        as the record-at-a-time queue fed the same rows one by one."""
        queue = make_queue(capacity, shed_policy=shed_policy)
        reference = _RecordAtATimeQueue(capacity, shed_policy)
        sent = 0
        for action, size in steps:
            if action == "put":
                rows = [record(sent + i) for i in range(size)]
                sent += size
                _header, columns = decode_v5_columnar(
                    encode_datagram(
                        rows, sys_uptime=0, unix_secs=0, flow_sequence=sent
                    )
                )
                admitted = queue.put_batch(columns)
                assert admitted == sum(reference.put(row) for row in rows)
            else:
                batch = queue.take_nowait(size)
                want = reference.take_nowait(size)
                assert batch.records() == want
                assert len(batch) == len(want) and bool(batch) == bool(want)
                assert len(batch.enqueued_s) == len(batch.slices)
            assert len(queue) == len(reference)
            assert asdict(queue.stats) == asdict(reference.stats)
        # One-row admission is the same code path and the same answer.
        assert queue.put(record(sent)) == reference.put(record(sent))
        assert len(queue) == len(reference)
        assert asdict(queue.stats) == asdict(reference.stats)
        assert queue.take_nowait(capacity).records() == reference.take_nowait(
            capacity
        )
        queue.close()
        reference.closed = True
        for closed in (queue, reference):
            with pytest.raises(ServeError):
                closed.put(record())


class TestShedPoliciesUnderBurst:
    """Bursty concurrent producers vs the two shed policies.

    The accounting identities under test:

    * drop-oldest admits every offer and evicts the head, so
      ``enqueued == offered`` and ``delivered == enqueued - shed``;
    * reject-newest refuses the incoming record, so
      ``enqueued == offered - shed`` and ``delivered == enqueued``;
    * under both, ``delivered + shed == offered`` — no record's fate is
      ever double- or un-counted, whatever the producer/consumer
      interleaving.
    """

    def _run_burst(self, shed_policy, *, producers=4, bursts=6, burst=8):
        async def main():
            queue = make_queue(capacity=5, shed_policy=shed_policy)
            offered = refused = 0
            delivered = []

            async def producer(seed):
                nonlocal offered, refused
                for index in range(bursts):
                    # A burst lands synchronously — no yield inside —
                    # exactly like one datagram's records arriving in a
                    # single protocol callback.
                    for i in range(burst):
                        admitted = queue.put(
                            record(seed * 10_000 + index * 100 + i)
                        )
                        offered += 1
                        if not admitted:
                            refused += 1
                    await asyncio.sleep(0)

            async def consumer():
                while True:
                    batch = await queue.get_batch(4)
                    if not batch:
                        return
                    delivered.extend(batch.records())
                    await asyncio.sleep(0)

            task = asyncio.ensure_future(consumer())
            await asyncio.gather(
                *(producer(seed) for seed in range(producers))
            )
            queue.close()
            await asyncio.wait_for(task, timeout=30)
            return queue.stats, offered, refused, len(delivered)

        return asyncio.run(main())

    def test_drop_oldest_burst_reconciles(self):
        stats, offered, refused, delivered = self._run_burst(
            SHED_DROP_OLDEST
        )
        assert refused == 0  # drop-oldest never refuses the offer
        assert stats.shed > 0  # capacity 5 vs bursts of 8 must shed
        assert stats.enqueued == offered
        assert delivered == stats.dequeued == offered - stats.shed
        assert delivered + stats.shed == offered

    def test_reject_newest_burst_reconciles(self):
        stats, offered, refused, delivered = self._run_burst(
            SHED_REJECT_NEWEST
        )
        assert stats.shed > 0
        assert refused == stats.shed  # every shed was a refused put
        assert stats.enqueued == offered - stats.shed
        assert delivered == stats.dequeued == stats.enqueued
        assert delivered + stats.shed == offered


class TestShedReconciliationWithServeReport:
    """The queue identities surface intact in ``ServeReport``.

    A Basic-InFilter daemon with a 8-record queue is blasted with
    30-record datagrams (each protocol callback offers 30 records to a
    queue of 8, so shedding is certain), then drained; the report's
    record-fate totals must reconcile exactly per policy.
    """

    def _run_daemon(self, shed_policy):
        detector = EnhancedInFilter(PipelineConfig.basic())
        config = ServeConfig(
            host="127.0.0.1",
            port=0,
            queue_capacity=8,
            batch_size=4,
            shed_policy=shed_policy,
            idle_exit_s=0.5,
        )
        records = [record(i) for i in range(300)]

        async def main():
            daemon = ServeDaemon(
                detector, config, registry=MetricsRegistry()
            )
            task = asyncio.ensure_future(daemon.run())
            await asyncio.wait_for(daemon.wait_started(), timeout=10)
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                sent = 0
                for datagram in datagrams_for(
                    records, sys_uptime=0, unix_secs=0
                ):
                    sock.sendto(datagram, daemon.address)
                    sent += 1
                    if sent % 4 == 0:
                        await asyncio.sleep(0)
            finally:
                sock.close()
            return await asyncio.wait_for(task, timeout=60)

        return asyncio.run(main())

    def test_drop_oldest_report_reconciles(self):
        report = self._run_daemon(SHED_DROP_OLDEST)
        assert report.records_shed > 0
        # Every collected record was admitted; the shed ones were
        # evicted later, so committed = enqueued - shed.
        assert report.records_enqueued == report.records_collected
        assert (
            report.records_committed
            == report.records_enqueued - report.records_shed
        )
        assert (
            report.records_committed + report.records_shed
            == report.records_collected
        )

    def test_reject_newest_report_reconciles(self):
        report = self._run_daemon(SHED_REJECT_NEWEST)
        assert report.records_shed > 0
        # Shed records were never admitted, so enqueued undercounts
        # collected by exactly the shed total and everything admitted
        # commits.
        assert (
            report.records_enqueued
            == report.records_collected - report.records_shed
        )
        assert report.records_committed == report.records_enqueued
        assert (
            report.records_committed + report.records_shed
            == report.records_collected
        )
