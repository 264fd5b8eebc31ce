"""The traced run: the same datagrams, driven synchronously, layer by layer.

``DatagramRouter.route`` -> ``IngestQueue.take_nowait`` ->
``CommitWorker.commit`` on a daemon that is built but never run: no
event loop, no socket.  Driven twice on identically built detectors —
once bare, once with wrappers around each layer's public calls — so the
wrappers' own cost is a reported number (``trace.overhead_ratio``), and
the live saturation figure minus the bare drive is what asyncio and the
socket cost (``serve.loop_residual_ns_per_record``).

The wrappers live here, in the benchmark's own files; the program is not
instrumented.  One *cycle* (the datagrams routed for a batch, the take,
the commit) is a span with start, end and id; ``take``, ``commit`` and
``process_batch`` are child spans of it; per-datagram and per-record
calls are aggregated into the cycle as count + total.  A reference
kernel runs after every cycle, so each cycle has its own scale.
"""

from __future__ import annotations

import contextlib
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.serve.listener as listener_module
from repro.core.alerts import IdmefAlert
from repro.fastpath.columnar import ColumnarBatch
from repro.netflow.records import FlowRecord
from repro.serve import ServeConfig, ServeDaemon

from .refclock import RefClock, Segment
from .workloads import RECORDS_PER_DATAGRAM, build_detector

__all__ = [
    "PARENT",
    "PY_CALLS_RECORDS",
    "Tracer",
    "SyncDrive",
    "sync_drive",
    "count_py_calls",
]

#: The exporter identity the synchronous drives present to the collector.
_SOURCE_PORT = 40_000

#: How many records the Python-call count covers.
PY_CALLS_RECORDS = 6_000

#: The span tree: every wrapped call's parent.  ``cycle`` is the root;
#: its self time is the drive loop itself (the ``driver`` remainder).
PARENT: Dict[str, str] = {
    "serve.route": "cycle",
    "fastpath.decode": "serve.route",
    "fastpath.records": "serve.route",
    "netflow.collector": "serve.route",
    "serve.queue_put": "netflow.collector",
    "serve.queue_take": "cycle",
    "serve.commit": "cycle",
    "core.process_batch": "serve.commit",
    "core.eia_check": "core.process_batch",
    "core.scan": "core.process_batch",
    "core.nns_assess": "core.process_batch",
    "core.nns_search": "core.nns_assess",
    "core.alert_build": "core.process_batch",
    "core.alert_consume": "core.process_batch",
}

#: Calls made once per cycle: kept as spans with their own start and end.
_BATCH_LEVEL = ("serve.queue_take", "serve.commit", "core.process_batch")


class Tracer:
    """Wrappers around the layers' public calls, and what they saw."""

    def __init__(self) -> None:
        #: name -> [count, total_ns] inside the open cycle.
        self._calls: Dict[str, List[int]] = {name: [0, 0] for name in PARENT}
        #: name -> (start_ns, end_ns) of the batch-level calls.
        self._spans: Dict[str, Tuple[int, int]] = {}
        self._cycle_start = 0
        #: Finished cycles, in order (see :meth:`close_cycle`).
        self.cycles: List[Dict[str, Any]] = []

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        slot = self._calls[name]
        clock = time.perf_counter_ns
        if name in _BATCH_LEVEL:
            spans = self._spans

            def spanned(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                result = fn(*args, **kwargs)
                end = clock()
                slot[0] += 1
                slot[1] += end - start
                spans[name] = (start, end)
                return result

            return spanned

        def counted(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = fn(*args, **kwargs)
            slot[0] += 1
            slot[1] += clock() - start
            return result

        return counted

    @contextlib.contextmanager
    def installed(self, daemon: ServeDaemon) -> Iterator[None]:
        """Wrap the layers of ``daemon``; undo the three patches that
        reach beyond its own objects (a module global, two class
        attributes) on the way out."""
        detector = daemon.detector
        router, queue, worker = daemon.router, daemon.queue, daemon.worker
        for owner, attribute, name in (
            (router, "route", "serve.route"),
            (router.collector, "receive_decoded", "netflow.collector"),
            (queue, "put", "serve.queue_put"),
            (queue, "take_nowait", "serve.queue_take"),
            (worker, "commit", "serve.commit"),
            (detector, "process_batch", "core.process_batch"),
            (detector.infilter, "check", "core.eia_check"),
            (detector.scan, "observe", "core.scan"),
            (detector, "assess_memoised", "core.nns_assess"),
            (detector.alert_sink, "consume", "core.alert_consume"),
        ):
            setattr(owner, attribute, self._wrap(name, getattr(owner, attribute)))
        assert detector.model is not None
        for subcluster in detector.model.subclusters.values():
            structure = subcluster.structure
            structure.nearest = self._wrap(  # type: ignore[method-assign]
                "core.nns_search", structure.nearest
            )
        decode = listener_module.decode_v5_columnar
        records = ColumnarBatch.records
        for_flow = IdmefAlert.__dict__["for_flow"]
        listener_module.decode_v5_columnar = self._wrap("fastpath.decode", decode)
        ColumnarBatch.records = self._wrap(  # type: ignore[method-assign]
            "fastpath.records", records
        )
        IdmefAlert.for_flow = staticmethod(  # type: ignore[method-assign,assignment]
            self._wrap("core.alert_build", IdmefAlert.for_flow)
        )
        try:
            yield
        finally:
            listener_module.decode_v5_columnar = decode
            ColumnarBatch.records = records  # type: ignore[method-assign]
            IdmefAlert.for_flow = for_flow  # type: ignore[method-assign]

    def open_cycle(self) -> None:
        for slot in self._calls.values():
            slot[0] = slot[1] = 0
        self._spans.clear()
        self._cycle_start = time.perf_counter_ns()

    def close_cycle(self, records: int) -> None:
        """Keep what the open cycle saw.  The caller runs its reference
        kernel next and then opens the following cycle, so the kernel is
        inside no cycle."""
        self.cycles.append(
            {
                "start_ns": self._cycle_start,
                "end_ns": time.perf_counter_ns(),
                "records": records,
                "calls": {
                    name: (slot[0], slot[1])
                    for name, slot in self._calls.items()
                    if slot[0]
                },
                "spans": dict(self._spans),
            }
        )


class SyncDrive:
    """One synchronous drive: its clock segments, and its cycles if traced."""

    def __init__(
        self, label: str, daemon: ServeDaemon, clock: RefClock,
        tracer: Optional[Tracer], absorbed_at_three_quarters: int,
    ) -> None:
        self.label = label
        self.daemon = daemon
        self.clock = clock
        self.tracer = tracer
        self.absorbed_at_three_quarters = absorbed_at_three_quarters

    @property
    def segments(self) -> List[Segment]:
        return self.clock.labelled(self.label)

    def ns_per_record(self) -> float:
        """Normalised wall nanoseconds per record of the timed part."""
        totals = self.clock.totals(self.label)
        return totals["norm_wall_s"] / totals["work"] * 1e9

    # -- the traced drive only ----------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name over the timed cycles: calls, and normalised
        total and self nanoseconds (``cycle`` included)."""
        assert self.tracer is not None
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0.0, "total_ns": 0.0, "self_ns": 0.0}
            for name in ("cycle", *PARENT)
        }
        for segment, cycle in zip(self.segments, self.tracer.cycles):
            scale = self.clock.normalised(segment)[0] / segment.wall_s
            totals = {name: 0.0 for name in out}
            totals["cycle"] = segment.wall_s * 1e9
            out["cycle"]["calls"] += 1
            for name, (count, total_ns) in cycle["calls"].items():
                totals[name] = float(total_ns)
                out[name]["calls"] += count
            children = {name: 0.0 for name in out}
            for name, parent in PARENT.items():
                children[parent] += totals[name]
            for name in out:
                out[name]["total_ns"] += totals[name] * scale
                out[name]["self_ns"] += (totals[name] - children[name]) * scale
        return out

    def span_document(self) -> Dict[str, Any]:
        """What ``trace_<workload>.json`` holds (see the README)."""
        assert self.tracer is not None
        cycles = []
        for index, (segment, cycle) in enumerate(
            zip(self.segments, self.tracer.cycles)
        ):
            spans = [
                {
                    "name": name,
                    "parent": PARENT[name],
                    "start_ns": start,
                    "end_ns": end,
                }
                for name, (start, end) in sorted(
                    cycle["spans"].items(), key=lambda item: item[1][0]
                )
            ]
            cycles.append(
                {
                    "id": index,
                    "name": "cycle",
                    "parent": None,
                    "start_ns": cycle["start_ns"],
                    "end_ns": cycle["end_ns"],
                    "wall_ns": round(segment.wall_s * 1e9),
                    "records": cycle["records"],
                    "scale": self.clock.normalised(segment)[0] / segment.wall_s,
                    "spans": spans,
                    "calls": {
                        name: {
                            "parent": PARENT[name],
                            "count": count,
                            "total_ns": total_ns,
                        }
                        for name, (count, total_ns) in cycle["calls"].items()
                    },
                }
            )
        return {"unit": "ns", "parents": PARENT, "cycles": cycles}


def _drive(
    daemon: ServeDaemon, datagrams: Sequence[bytes],
    after_commit: Callable[[int], None],
) -> None:
    """Route every datagram; commit a batch whenever one is full, and the
    remainder at the end.  Attribute look-ups happen per call so that a
    tracer's wrappers are the ones that run."""
    router, queue, worker = daemon.router, daemon.queue, daemon.worker
    batch_size = daemon.config.batch_size
    for datagram in datagrams:
        router.route(datagram, _SOURCE_PORT)
        while len(queue) >= batch_size:
            batch = queue.take_nowait(batch_size)
            worker.commit(batch)
            after_commit(len(batch))
    if len(queue):
        batch = queue.take_nowait(batch_size)
        worker.commit(batch)
        after_commit(len(batch))


def sync_drive(
    label: str, train: Sequence[FlowRecord], paced: Sequence[bytes],
    sat: Sequence[bytes], clock: RefClock, *, traced: bool,
) -> SyncDrive:
    """Drive ``paced`` untimed (the live run's warm-up), then ``sat``
    timed under ``label`` with a reference kernel after every commit."""
    detector = build_detector(train)
    daemon = ServeDaemon(detector, ServeConfig(port=0), registry=detector.registry)
    tracer = Tracer() if traced else None
    absorbed_marks: List[int] = []
    sat_records = len(sat) * RECORDS_PER_DATAGRAM
    done = 0

    def timed(records: int) -> None:
        nonlocal done
        if tracer is not None:
            tracer.close_cycle(records)
        clock.add_work(records)
        clock.lap(label)
        if tracer is not None:
            tracer.open_cycle()
        done += records
        if not absorbed_marks and done * 4 >= sat_records * 3:
            absorbed_marks.append(detector.stats.absorbed)

    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed(daemon))
        _drive(daemon, paced, lambda records: None)
        clock.begin()
        if tracer is not None:
            tracer.open_cycle()  # the warm-up's calls are dropped here
        _drive(daemon, sat, timed)
    return SyncDrive(
        label, daemon, clock, tracer,
        absorbed_marks[0] if absorbed_marks else detector.stats.absorbed,
    )


def count_py_calls(train: Sequence[FlowRecord], datagrams: Sequence[bytes]) -> int:
    """Python-level function calls the bare synchronous drive makes for
    ``datagrams`` on a fresh detector: ``sys.setprofile`` ``call`` events.
    A count, not a time; it repeats exactly."""
    detector = build_detector(train)
    daemon = ServeDaemon(detector, ServeConfig(port=0), registry=detector.registry)
    calls = 0

    def profiler(frame: Any, event: str, arg: Any) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        _drive(daemon, datagrams, lambda records: None)
    finally:
        sys.setprofile(None)
    return calls
