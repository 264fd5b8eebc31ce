"""The live run: a real ``ServeDaemon`` over UDP loopback, one sender.

One process, one thread, one socket: the sender is a coroutine on the
daemon's own event loop, so its cost is part of what is measured — on a
2-core host a second process would compete for the core the reference
kernel calibrates.  Four steps per run:

1. cold set-up, repeated, each repeat on the ticking reference clock;
2. *paced* phase, open loop: datagrams on a fixed schedule, each timed
   from its **due** time to the return of the ``commit`` that covered
   its last record; a reference kernel every 50 ms tells how fast the
   host was at each commit, and the process's CPU clock how much of the
   latency was work; read as five equal segments (one second
   each at the benchmark's run length), the first of them warm-up;
3. *saturation* phase, closed loop, on the ticking clock: a credit
   window keeps the socket buffer from running dry without shedding or
   kernel drops;
4. ``CommitWorker.checkpoint()`` on the final state, repeated for two
   seconds and at least five times.

``ServeConfig`` is the default (batch 256, linger 20 ms, fastpath on)
but for an ephemeral port, a checkpoint path, and the receive buffer
the credit window needs (see :data:`CREDIT_WINDOW`).
"""

from __future__ import annotations

import asyncio
import os
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import EnhancedInFilter
from repro.netflow.records import FlowRecord
from repro.serve import ServeConfig, ServeDaemon, ServeReport
from repro.util.rng import derive_seed

from .refclock import RefClock
from .workloads import RECORDS_PER_DATAGRAM, Sizes, Workload, build_detector

__all__ = [
    "SETUP_REPEATS",
    "CHECKPOINT_REPEATS",
    "CREDIT_WINDOW",
    "LiveRun",
    "run_live",
    "percentile",
    "paced_segments",
    "reference_clock_latency",
    "segment_percentiles",
]

SETUP_REPEATS = 5
#: Checkpoints are repeated at least this often, and for at least this
#: long.  One checkpoint is a few long C calls (``json.dumps``) the timer
#: cannot cut, so a repeat has three or four segments and its normalised
#: time moves ~10% with the host's flips; the small ``legal`` checkpoint
#: gets ten or more repeats for its median, the large ones five.
CHECKPOINT_REPEATS = 5
CHECKPOINT_MIN_S = 2.0
#: Most records in flight (sent, not yet committed) during saturation.
#: The worker commits back to back while 256 records are queued and then
#: lingers 20 ms, during which the loop does nothing but receive; a
#: window the receive path works through in less than that leaves the
#: loop idle for the rest — idle that shrinks when the host slows, which
#: no clock can normalise.  8,192 records are ~70 ms of receive work
#: today (no idle until ingest is 3.5x faster), and need a socket buffer
#: above the 208 KiB default: 273 datagrams of 2,304 bytes of kernel
#: memory each.
CREDIT_WINDOW = 8_192
RECV_BUFFER_BYTES = 1 << 20
#: The paced phase runs a reference kernel this often: enough to know
#: the host's speed at every commit, rare enough (a 2-4 ms kernel in
#: 50 ms) to leave the latencies it sits between alone.
PACED_KERNEL_PERIOD_S = 0.05
#: The paced phase is read as this many equal segments: one second each
#: at the benchmark's run length.  The first is warm-up (lazy NNS scale
#: builds) and is dropped.
PACED_SEGMENTS = 5
#: How long the run waits for records that never arrive before it gives
#: up and reports them lost.
STALL_TIMEOUT_S = 5.0


@dataclass
class LiveRun:
    """Everything the live run measured, raw."""

    clock: RefClock
    report: ServeReport
    detector: EnhancedInFilter
    records_sent: int
    #: Raw (preload_s, train_s) of every set-up repeat.
    setup_steps: List[Tuple[float, float]]
    #: When the paced schedule started (``perf_counter`` seconds).
    paced_origin: float = 0.0
    #: Per paced datagram: due time, sender lateness, due->commit entry,
    #: due->commit return (seconds; None when never committed).
    paced_due: List[float] = field(default_factory=list)
    paced_late: List[float] = field(default_factory=list)
    paced_wait: List[Optional[float]] = field(default_factory=list)
    paced_latency: List[Optional[float]] = field(default_factory=list)
    #: Per paced datagram: the clock's stamp at its send; then, between
    #: the send and the verdict, the seconds the daemon's thread was on
    #: the CPU outside the reference kernels and the seconds the kernels
    #: took; and the number of the kernel before the verdict.
    paced_sent: List[Tuple[float, float]] = field(default_factory=list)
    paced_on_cpu: List[float] = field(default_factory=list)
    paced_in_kernels: List[float] = field(default_factory=list)
    paced_kernel: List[int] = field(default_factory=list)
    paced_batches: List[int] = field(default_factory=list)
    children_cpu_s: float = 0.0
    checkpoint_path: str = ""
    checkpoint_bytes: int = 0


class _CommitProbe:
    """Stands where ``CommitWorker.commit`` stood.

    The one place every record passes at a batch boundary: it stamps
    the paced datagrams, counts the saturation work into the clock's
    open segment, and wakes the sender.
    """

    def __init__(self, daemon: ServeDaemon, clock: RefClock, run: LiveRun) -> None:
        self._commit: Callable[[list], None] = daemon.worker.commit
        self._worker = daemon.worker
        self._clock = clock
        self._run = run
        self.progress = asyncio.Event()
        self.paced = False
        self._stamped = 0
        self._paced_base = 0

    def start_paced(self) -> None:
        self.paced = True
        self._paced_base = self._worker.committed

    def __call__(self, batch: list) -> None:
        entered = time.perf_counter()
        self._commit(batch)
        if self.paced:
            done = time.perf_counter()
            run = self._run
            run.paced_batches.append(len(batch))
            covered = min(
                (self._worker.committed - self._paced_base) // RECORDS_PER_DATAGRAM,
                len(run.paced_due),
            )
            kernel = self._clock.last_kernel
            cpu, in_kernels = self._clock.stamp()
            for index in range(self._stamped, covered):
                due = run.paced_due[index]
                sent_cpu, sent_in_kernels = run.paced_sent[index]
                run.paced_wait[index] = entered - due
                run.paced_latency[index] = done - due
                run.paced_on_cpu[index] = cpu - sent_cpu
                run.paced_in_kernels[index] = in_kernels - sent_in_kernels
                run.paced_kernel[index] = kernel
            self._stamped = max(self._stamped, covered)
        else:
            self._clock.add_work(len(batch))
        self.progress.set()


async def _start_daemon(
    train: Sequence[FlowRecord], config: ServeConfig, clock: RefClock,
    repeat: int, steps: List[Tuple[float, float]],
) -> Tuple[ServeDaemon, "asyncio.Task[ServeReport]"]:
    """One cold set-up, timed as repeat ``repeat`` of ``setup``."""
    marks: Dict[str, float] = {}
    with clock.ticking("setup", repeat):
        start = time.perf_counter()
        detector = build_detector(
            train, on_step=lambda step: marks.__setitem__(step, time.perf_counter())
        )
        daemon = ServeDaemon(detector, config, registry=detector.registry)
        task = asyncio.ensure_future(daemon.run())
        await daemon.wait_started()
    steps.append((marks["preload"] - start, marks["train"] - marks["preload"]))
    return daemon, task


async def _wait_committed(
    daemon: ServeDaemon, probe: _CommitProbe, target: int
) -> bool:
    """Wait until ``target`` records are committed; False on a stall."""
    while daemon.worker.committed < target:
        probe.progress.clear()
        try:
            await asyncio.wait_for(probe.progress.wait(), STALL_TIMEOUT_S)
        except asyncio.TimeoutError:
            return False
    return True


async def _paced_phase(
    daemon: ServeDaemon, probe: _CommitProbe, sender: socket.socket,
    datagrams: Sequence[bytes], rate: int, seed: int, run: LiveRun,
) -> None:
    # One datagram per slot of the rate, at a seeded random point of the
    # slot's first half.  Evenly spaced sends phase-lock with the worker's
    # ~25 ms linger+commit cycle and the percentiles jump between a few
    # values; a whole slot of jitter lets two flood_nns datagrams land
    # within one cycle a sixth of the time, right where its p90 sits.
    interval = RECORDS_PER_DATAGRAM / rate
    jitter = random.Random(derive_seed(seed, "bench-paced-schedule"))
    origin = run.paced_origin = time.perf_counter() + 0.05
    run.paced_due = [
        origin + (index + jitter.random() / 2) * interval
        for index in range(len(datagrams))
    ]
    run.paced_wait = [None] * len(datagrams)
    run.paced_latency = [None] * len(datagrams)
    run.paced_on_cpu = [0.0] * len(datagrams)
    run.paced_in_kernels = [0.0] * len(datagrams)
    run.paced_kernel = [0] * len(datagrams)
    probe.start_paced()
    base = daemon.worker.committed
    with run.clock.ticking("paced", period=PACED_KERNEL_PERIOD_S):
        for due, datagram in zip(run.paced_due, datagrams):
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            run.paced_late.append(time.perf_counter() - due)
            run.paced_sent.append(run.clock.stamp())
            sender.send(datagram)
        await _wait_committed(
            daemon, probe, base + len(datagrams) * RECORDS_PER_DATAGRAM
        )
    probe.paced = False


async def _saturation_phase(
    daemon: ServeDaemon, probe: _CommitProbe, sender: socket.socket,
    datagrams: Sequence[bytes], clock: RefClock,
) -> None:
    worker = daemon.worker
    base = worker.committed
    sent = 0
    limit = CREDIT_WINDOW - RECORDS_PER_DATAGRAM
    with clock.ticking("sat"):
        for datagram in datagrams:
            while sent - (worker.committed - base) > limit:
                if not await _wait_committed(daemon, probe, worker.committed + 1):
                    return
            sender.send(datagram)
            sent += RECORDS_PER_DATAGRAM
        await _wait_committed(daemon, probe, base + sent)


async def _live(
    workload: Workload, sizes: Sizes, train: Sequence[FlowRecord],
    paced: Sequence[bytes], sat: Sequence[bytes], checkpoint_path: str,
    seed: int,
) -> LiveRun:
    clock = RefClock()
    config = ServeConfig(
        port=0, checkpoint_path=checkpoint_path, recv_buffer_bytes=RECV_BUFFER_BYTES
    )
    steps: List[Tuple[float, float]] = []
    children_before = sum(os.times()[2:4])
    for repeat in range(SETUP_REPEATS - 1):
        spare, task = await _start_daemon(train, config, clock, repeat, steps)
        spare.request_shutdown()
        await task
    daemon, task = await _start_daemon(
        train, config, clock, SETUP_REPEATS - 1, steps
    )
    run = LiveRun(
        clock=clock,
        report=daemon.report(),
        detector=daemon.detector,
        records_sent=sizes.total_records,
        setup_steps=steps,
        checkpoint_path=checkpoint_path,
    )
    probe = _CommitProbe(daemon, clock, run)
    daemon.worker.commit = probe  # type: ignore[method-assign]
    assert daemon.address is not None
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sender.connect(daemon.address)
        await _paced_phase(
            daemon, probe, sender, paced, workload.paced_rate, seed, run
        )
        await _saturation_phase(daemon, probe, sender, sat, clock)
    finally:
        sender.close()
    daemon.request_shutdown()
    run.report = await task
    repeat = 0
    checkpoints_start = time.perf_counter()
    while (
        repeat < CHECKPOINT_REPEATS
        or time.perf_counter() - checkpoints_start < CHECKPOINT_MIN_S
    ):
        with clock.ticking("checkpoint", repeat):
            daemon.worker.checkpoint()
        repeat += 1
    run.checkpoint_bytes = os.path.getsize(checkpoint_path)
    run.children_cpu_s = sum(os.times()[2:4]) - children_before
    return run


def run_live(
    workload: Workload, sizes: Sizes, train: Sequence[FlowRecord],
    paced: Sequence[bytes], sat: Sequence[bytes], checkpoint_path: str,
    *, seed: int,
) -> LiveRun:
    return asyncio.run(
        _live(workload, sizes, train, paced, sat, checkpoint_path, seed)
    )


# -- reading a LiveRun ---------------------------------------------------------


def percentile(values: Sequence[float], quantile: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(quantile * len(ordered)))]


def paced_segments(run: LiveRun, paced_s: float) -> List[List[int]]:
    """Indices of the paced datagrams by segment of their due time: the
    :data:`PACED_SEGMENTS` equal segments of the schedule, less the
    first (warm-up)."""
    length = paced_s / PACED_SEGMENTS
    segments: List[List[int]] = [[] for _ in range(PACED_SEGMENTS)]
    for index, due in enumerate(run.paced_due):
        segment = int((due - run.paced_origin) / length)
        segments[min(segment, PACED_SEGMENTS - 1)].append(index)
    return segments[1:]


def reference_clock_latency(run: LiveRun) -> List[Optional[float]]:
    """Each paced datagram's due -> verdict latency with the time the
    daemon's thread was on the CPU put on the reference clock, the time
    it slept left as the wall clock read it, and the reference kernels
    that ran meanwhile taken out.

    The sleep (linger, waiting for the next due time) is timer-bound and
    the same on any host.  The rest is work — receive and decode, the
    commit that gave the verdict, an earlier commit the datagram waited
    behind, the sender running late because of any of these — a third to
    a half of the latency, and it stretches 1.5-2x when the host is
    slow.  On-CPU time is the process's CPU clock between send and
    verdict; the sender's lateness counts as on-CPU too, the loop being
    busy is what makes it late.
    """
    out: List[Optional[float]] = []
    for latency, late, on_cpu, in_kernels, kernel in zip(
        run.paced_latency, run.paced_late, run.paced_on_cpu,
        run.paced_in_kernels, run.paced_kernel,
    ):
        if latency is None:
            out.append(None)
        else:
            wall, cpu = run.clock.scales_at(kernel)
            asleep = latency - in_kernels - late - on_cpu
            out.append(asleep + late * wall + on_cpu * cpu)
    return out


def segment_percentiles(
    run: LiveRun, paced_s: float, values: Sequence[Optional[float]], quantile: float
) -> List[float]:
    """Each kept segment's percentile of ``values``, in time order.  A
    datagram that never committed has no value; the run fails elsewhere."""
    per_segment = []
    for indices in paced_segments(run, paced_s):
        present = [values[i] for i in indices if values[i] is not None]
        if present:
            per_segment.append(percentile(present, quantile))  # type: ignore[arg-type]
    return per_segment
