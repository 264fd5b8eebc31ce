"""The reference-normalised clock.

On a small shared guest the same pure-Python loop runs 1.5-2x slower
for a few hundred milliseconds to minutes at a time, so raw wall or CPU
seconds move with the neighbours, not with the code.  :class:`RefClock`
interleaves the measured work with a fixed *reference kernel* — the kind
of work the serve path does (columnar ``struct`` unpack of 48-byte
records, frozen-dataclass rows, a deque hop, tuple-keyed dict stores and
lookups) — and divides every timed segment by the neighbouring kernel
timings.  The result is expressed in seconds of a quiet host through the
pinned constant :data:`REF_KERNEL_QUIET_S`, which is written here and
never recalibrated at run time: two runs of one tree share the unit
whatever the host did meanwhile.

What the clock cannot do: a workload whose code slows by a different
factor than the kernel's when the host is busy (the NNS search's
cache-resident tables are the case measured, see the README) keeps a
part of the host's noise.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import struct
import time
from dataclasses import dataclass
from collections import OrderedDict, deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "REF_KERNEL_QUIET_S",
    "KERNEL_PERIOD_S",
    "ref_kernel",
    "Segment",
    "RefClock",
]

#: The kernel's minimum wall time over 600 executions on the recording
#: host (2 vCPU Firecracker guest, CPython 3.11.7), idle.  A unit, not a
#: measurement: changing it rescales every normalised metric.
REF_KERNEL_QUIET_S = 0.001860

#: :meth:`RefClock.ticking` runs a kernel this long after the last one ended.
KERNEL_PERIOD_S = 0.015

_RECORD = struct.Struct("!IIIHHIIIIHHBBBBHHBBH")
_N_ROWS = 30
_BLOB = bytes((37 * i + 11) % 251 for i in range(_RECORD.size * _N_ROWS))
_KERNEL_ROUNDS = 30


@dataclass(frozen=True)
class _Key:
    src: int
    dst: int
    port: int


@dataclass(frozen=True)
class _Row:
    key: _Key
    packets: int
    octets: int

    def __post_init__(self) -> None:
        if self.packets < 0 or self.octets < 0:
            raise ValueError("negative counter")


def ref_kernel() -> int:
    """About 2 ms of serve-path-shaped pure-Python work: a columnar
    unpack of 48-byte records, frozen-dataclass rows, a deque hop, and
    tuple-keyed dict stores and lookups.  Fixed: never touches repro."""
    table: "OrderedDict[Tuple[int, int], _Row]" = OrderedDict()
    queue: Deque[_Row] = deque()
    view = memoryview(_BLOB)
    hits = 0
    for round_index in range(_KERNEL_ROUNDS):
        rows = list(_RECORD.iter_unpack(view))
        columns = tuple(zip(*rows))
        if min(columns[5]) < 0:
            raise ValueError("unreachable")
        for src, dst, port, packets, octets in zip(
            columns[0], columns[1], columns[9], columns[5], columns[6]
        ):
            queue.append(
                _Row(_Key(src ^ round_index, dst, port), packets, octets)
            )
        while queue:
            row = queue.popleft()
            key = (row.key.src >> 11, row.key.port)
            if key in table:
                table.move_to_end(key)
                hits += 1
            else:
                table[key] = row
    return hits


@dataclass(frozen=True)
class Segment:
    """The work between two consecutive kernels."""

    label: str
    #: Which repeat of a repeated one-shot the segment belongs to.
    repeat: int
    #: Index of the kernel that ran just before the segment; the one
    #: just after it is ``kernel + 1``.
    kernel: int
    wall_s: float
    cpu_s: float
    #: Units of work (records) attributed to the segment.
    work: int


class RefClock:
    """Kernel-bracketed segments and their quiet-host equivalents.

    Two ways to cut segments: the caller laps at its own boundaries
    (``begin`` ... ``lap``, what the synchronous drives do after every
    commit), or :meth:`ticking` laps from a timer signal every
    :data:`KERNEL_PERIOD_S`, inside whatever the main thread is running
    — which is how a 400 ms ``train()`` or a live event loop gets the
    same 15 ms granularity without being touched.
    """

    def __init__(self) -> None:
        #: (wall_s, cpu_s) of every kernel execution, in order.
        self.kernels: List[Tuple[float, float]] = []
        #: Wall and CPU seconds all kernels so far took together.
        self.kernel_wall_s = 0.0
        self.kernel_cpu_s = 0.0
        self.segments: List[Segment] = []
        self._wall = 0.0
        self._cpu = 0.0
        self._work = 0
        self._ticking: Optional[Tuple[str, int]] = None
        self._period = KERNEL_PERIOD_S

    def begin(self) -> None:
        """Run a kernel and open a segment (whatever came before is not timed)."""
        self._work = 0
        self._kernel()

    def add_work(self, units: int) -> None:
        """Attribute ``units`` of work to the open segment."""
        self._work += units

    def lap(self, label: str, repeat: int = 0) -> None:
        """Close the open segment under ``label``, run a kernel, reopen."""
        wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        self.segments.append(
            Segment(label, repeat, len(self.kernels) - 1, wall, cpu, self._work)
        )
        self._work = 0
        self._kernel()

    @contextlib.contextmanager
    def ticking(
        self, label: str, repeat: int = 0, period: float = KERNEL_PERIOD_S
    ) -> Iterator[None]:
        """Time the body as ``label``, cut into kernel-period segments by
        a one-shot ``SIGALRM`` timer re-armed after every kernel.  Main
        thread only; the handler runs between two bytecodes of whatever
        the thread is doing (a long C call delays it to the call's end).
        """
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._ticking = (label, repeat)
        self._period = period
        self.begin()
        signal.setitimer(signal.ITIMER_REAL, period)
        try:
            yield
        finally:
            self._ticking = None
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.lap(label, repeat)
            signal.signal(signal.SIGALRM, previous)

    def _on_alarm(self, signum: int, frame: object) -> None:
        if self._ticking is None:
            return
        self.lap(*self._ticking)
        signal.setitimer(signal.ITIMER_REAL, self._period)

    def _kernel(self) -> None:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        ref_kernel()
        wall1 = time.perf_counter()
        cpu1 = time.process_time()
        self.kernels.append((wall1 - wall0, cpu1 - cpu0))
        self.kernel_wall_s += wall1 - wall0
        self.kernel_cpu_s += cpu1 - cpu0
        self._wall = wall1
        self._cpu = cpu1

    # -- read side -----------------------------------------------------------

    def labelled(self, label: str) -> List[Segment]:
        return [s for s in self.segments if s.label == label]

    def normalised(self, segment: Segment) -> Tuple[float, float]:
        """The segment's (wall, cpu) seconds on the reference clock.

        Scaled by the median of the two kernels on each side: the host
        flips between fast and slow for a few hundred milliseconds at a
        time, so four neighbours see the same host as the segment, and
        one kernel hit by an interrupt does not set the scale.
        """
        wall, cpu = self.scales_at(segment.kernel)
        return segment.wall_s * wall, segment.cpu_s * cpu

    def scales_at(self, kernel: int) -> Tuple[float, float]:
        """(wall, cpu) factors to reference-clock seconds for work done
        just after kernel number ``kernel`` ran."""
        window = self.kernels[max(0, kernel - 1):kernel + 3]
        return (
            REF_KERNEL_QUIET_S / statistics.median(k[0] for k in window),
            REF_KERNEL_QUIET_S / statistics.median(k[1] for k in window),
        )

    def stamp(self) -> Tuple[float, float]:
        """(CPU seconds of the process outside the kernels, wall seconds
        inside them) so far: two stamps bracket an interval whose busy
        time and kernel time are their differences."""
        return time.process_time() - self.kernel_cpu_s, self.kernel_wall_s

    @property
    def last_kernel(self) -> int:
        """Number of the most recent kernel."""
        return len(self.kernels) - 1

    def totals(self, label: str, repeat: Optional[int] = None) -> Dict[str, float]:
        """Sums over one label (one repeat of it, if given): raw and
        normalised wall/cpu seconds, work, segment count."""
        out = {
            "wall_s": 0.0, "cpu_s": 0.0, "norm_wall_s": 0.0,
            "norm_cpu_s": 0.0, "work": 0.0, "segments": 0.0,
        }
        for segment in self.labelled(label):
            if repeat is not None and segment.repeat != repeat:
                continue
            wall, cpu = self.normalised(segment)
            out["wall_s"] += segment.wall_s
            out["cpu_s"] += segment.cpu_s
            out["norm_wall_s"] += wall
            out["norm_cpu_s"] += cpu
            out["work"] += segment.work
            out["segments"] += 1
        return out

    def repeats(self, label: str) -> List[Dict[str, float]]:
        """:meth:`totals` of every repeat of a repeated one-shot."""
        indices = sorted({s.repeat for s in self.labelled(label)})
        return [self.totals(label, repeat) for repeat in indices]

    def median_repeat(self, label: str, field: str = "norm_wall_s") -> float:
        """Median over the repeats of one field of their totals."""
        return statistics.median(r[field] for r in self.repeats(label))

    def kernel_walls(self, label: str) -> List[float]:
        """Wall timings of the kernels bracketing the label's segments."""
        indices = set()
        for segment in self.labelled(label):
            indices.update((segment.kernel, segment.kernel + 1))
        return [self.kernels[i][0] for i in sorted(indices)]
