"""The serve path's patch points, guarded in tier 1.

``benchmarks/e2e`` measures the serve path per layer by replacing
methods on a built daemon's *instances* (and three module/class
attributes) with timing wrappers — see ``benchmarks/e2e/trace.py`` —
and drives ``route -> take_nowait -> commit`` synchronously.  That only
works while every layer reaches the next through its owner at call
time; a bound method cached in an ``__init__``, or a hot path that
stops calling one of these names, silently zeroes a benchmark line.
The benchmark is not in ``testpaths``; this file is what notices.
"""

import asyncio
import contextlib
from collections import Counter

import pytest

import repro.serve.listener as listener_module
from repro.core.alerts import IdmefAlert
from repro.fastpath.columnar import ColumnarBatch
from repro.flowgen import Dagflow, generate_attack, synthesize_trace
from repro.netflow.v5 import datagrams_for
from repro.obs import MetricsRegistry
from repro.serve import ServeConfig, ServeDaemon
from repro.util import SeededRng
from repro.util.ip import parse_ipv4

from tests.conftest import make_detector

_BATCH_SIZE = 64


@pytest.fixture(scope="module")
def mixed_datagrams(eia_plan, target_prefix):
    """Legal flows through peer 0, then a Slammer flood from foreign
    blocks through peer 2, two of its sources moved outside the
    preloaded plan: every stage of the chain gets work, and the owner
    table — which the preload wrote the plan's blocks through — still
    has blocks to miss on."""
    rng = SeededRng(8086, "trace-points")
    legal = Dagflow(
        "legal", target_prefix=target_prefix, udp_port=9000,
        source_blocks=eia_plan[0], rng=rng.fork("legal"),
    )
    foreign = [
        block for peer, blocks in eia_plan.items() if peer != 2 for block in blocks
    ]
    attack = Dagflow(
        "attack", target_prefix=target_prefix, udp_port=9002,
        source_blocks=foreign, rng=rng.fork("attack"),
    )
    records = [
        lr.record.with_key(input_if=0)
        for lr in legal.replay(synthesize_trace(300, rng=rng.fork("t")))
    ] + [
        lr.record.with_key(input_if=2)
        for lr in attack.replay(generate_attack("slammer", rng=rng.fork("a")))
    ][:200]
    for index, unplanned in ((-90, "203.0.113.9"), (-5, "100.64.7.7")):
        records[index] = records[index].with_key(src_addr=parse_ipv4(unplanned))
    return list(datagrams_for(records, sys_uptime=0, unix_secs=0)), len(records)


@contextlib.contextmanager
def counting_wrappers(daemon: ServeDaemon):
    """Install a counting wrapper at every point the benchmark patches;
    yields the counts by name."""
    calls: Counter = Counter()
    under_commit: Counter = Counter()
    committing = [False]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if committing[0]:
                under_commit[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def commit_wrapper(fn):
        def wrapper(*args, **kwargs):
            calls["worker.commit"] += 1
            committing[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                committing[0] = False

        return wrapper

    detector = daemon.detector
    router, queue, worker = daemon.router, daemon.queue, daemon.worker
    for owner, attribute, name in (
        (router, "route", "router.route"),
        (router.collector, "receive_decoded", "collector.receive_decoded"),
        (queue, "put", "queue.put"),
        (queue, "take_nowait", "queue.take_nowait"),
        (detector, "process_batch", "detector.process_batch"),
        (detector.infilter, "check", "infilter.check"),
        (detector.scan, "observe", "scan.observe"),
        (detector, "assess_memoised", "detector.assess_memoised"),
        (detector.alert_sink, "consume", "alert_sink.consume"),
    ):
        setattr(owner, attribute, counted(name, getattr(owner, attribute)))
    worker.commit = commit_wrapper(worker.commit)
    decode = listener_module.decode_v5_columnar
    records = ColumnarBatch.records
    for_flow = IdmefAlert.__dict__["for_flow"]
    listener_module.decode_v5_columnar = counted("decode_v5_columnar", decode)
    ColumnarBatch.records = counted("ColumnarBatch.records", records)
    IdmefAlert.for_flow = staticmethod(
        counted("IdmefAlert.for_flow", IdmefAlert.for_flow)
    )
    try:
        yield calls, under_commit
    finally:
        listener_module.decode_v5_columnar = decode
        ColumnarBatch.records = records
        IdmefAlert.for_flow = for_flow


def _daemon(eia_plan, target_prefix) -> ServeDaemon:
    detector = make_detector(eia_plan, target_prefix, seed=8086, n_train=600)
    return ServeDaemon(
        detector, ServeConfig(port=0, batch_size=_BATCH_SIZE),
        registry=MetricsRegistry(),
    )


def test_every_patch_point_fires_on_the_synchronous_drive(
    eia_plan, target_prefix, mixed_datagrams
):
    datagrams, n_records = mixed_datagrams
    daemon = _daemon(eia_plan, target_prefix)
    batches = 0
    with counting_wrappers(daemon) as (calls, under_commit):
        router, queue, worker = daemon.router, daemon.queue, daemon.worker
        routed = 0
        for datagram in datagrams:
            routed += router.route(datagram, 40_000)
            # The queue counts records, whatever it stores.
            assert len(queue) == routed - worker.committed
            while len(queue) >= _BATCH_SIZE:
                batch = queue.take_nowait(_BATCH_SIZE)
                assert len(batch) == _BATCH_SIZE and batch
                worker.commit(batch)
                batches += 1
                assert worker.committed == batches * _BATCH_SIZE
        rest = queue.take_nowait(_BATCH_SIZE)
        assert len(rest) == n_records - worker.committed
        worker.commit(rest)
        batches += 1
    assert routed == n_records == worker.committed == worker.cursor
    assert len(queue) == 0 and not queue.take_nowait(_BATCH_SIZE)
    alerts = len(daemon.detector.alert_sink.alerts)
    assert alerts > 0

    # Once per datagram, once per batch: exact.
    assert calls["router.route"] == len(datagrams)
    assert calls["decode_v5_columnar"] == len(datagrams)
    assert calls["collector.receive_decoded"] == len(datagrams)
    assert calls["queue.take_nowait"] == batches + 1
    assert calls["worker.commit"] == batches
    assert calls["detector.process_batch"] == batches
    # Per row the owner table cannot clear: every stage was reached
    # through its owner — the check once per block the table had to
    # learn, the two unplanned sources among them — and every alert
    # through both emit points.
    memo = daemon.detector.fastpath.stats()
    assert memo["hits"] + memo["misses"] == n_records
    assert calls["infilter.check"] == memo["misses"] >= 2
    # Once per suspect row each, the scan stage's own alerts aside: the
    # benchmark reads its NNS memo hit ratio as 1 - searches / these.
    stats = daemon.detector.stats
    assert calls["scan.observe"] == stats.suspects > 0
    assert calls["detector.assess_memoised"] == (
        stats.suspects - stats.attacks_by_stage["scan"]
    ) > 0
    assert calls["alert_sink.consume"] == calls["IdmefAlert.for_flow"] == alerts
    for name in (
        "infilter.check", "scan.observe", "detector.assess_memoised",
        "alert_sink.consume", "IdmefAlert.for_flow", "detector.process_batch",
    ):
        assert under_commit[name] == calls[name], name
    # The datagram path admits whole datagrams: the one-row ``put`` is
    # there for the benchmark's wrapper to take, and stays idle.
    assert calls["queue.put"] == 0
    # ``ColumnarBatch.records`` is a child span of ``serve.route`` in the
    # benchmark's tree: a call from under ``commit`` would count its time
    # twice.  The commit loop materialises by index, and route not at all.
    assert calls["ColumnarBatch.records"] == 0


def test_the_running_worker_reaches_commit_through_the_instance(
    eia_plan, target_prefix, mixed_datagrams
):
    """The live benchmark stands a probe where ``worker.commit`` stood
    and lets ``CommitWorker.run`` call it."""
    datagrams, _n_records = mixed_datagrams
    daemon = _daemon(eia_plan, target_prefix)
    seen = []
    commit = daemon.worker.commit

    def probe(batch):
        seen.append(len(batch))
        commit(batch)

    daemon.worker.commit = probe
    queued = sum(daemon.router.route(datagram, 40_000) for datagram in datagrams[:5])
    daemon.queue.close()
    asyncio.run(daemon.worker.run())
    assert sum(seen) == queued == daemon.worker.committed
    assert seen == [_BATCH_SIZE] * (queued // _BATCH_SIZE) + [queued % _BATCH_SIZE]
