"""One measurement: a trace file in, every metric out.

Runs in its own process (see ``run.py``), started with a fixed
``PYTHONHASHSEED``: string-hash randomisation alone moved the serve
path's speed by ~7% between otherwise identical processes on the
recording host, more than the whole bound on ``records_per_s``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.persistence import load_checkpoint, save_detector
from repro.netflow.records import FlowRecord

from .live import (
    LiveRun,
    paced_segments,
    percentile,
    reference_clock_latency,
    run_live,
    segment_percentiles,
)
from .refclock import REF_KERNEL_QUIET_S, RefClock
from .trace import PY_CALLS_RECORDS, SyncDrive, count_py_calls, sync_drive
from .workloads import (
    RECORDS_PER_DATAGRAM,
    WORKLOADS,
    Sizes,
    Workload,
    alert_digest,
    decode_all,
    read_trace,
    sizes_for,
)

__all__ = ["MIN_KERNEL_SAMPLES", "Refusal", "measure", "self_check"]

#: Fewer reference kernels than this in the saturation phase and the
#: normalised numbers are not worth reporting.
MIN_KERNEL_SAMPLES = 50


class Refusal(Exception):
    """The run cannot be reported (loss, shedding, too few kernels)."""


def host_fingerprint() -> Dict[str, Any]:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}"
        f" ({platform.python_compiler()})",
        "kernel": f"{platform.system()} {platform.release()}",
        "machine": platform.machine(),
        "ref_kernel_quiet_s": REF_KERNEL_QUIET_S,
    }


def _peak_rss_mib() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise Refusal("no VmHWM line in /proc/self/status")


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _check_accounting(run: LiveRun, quick: bool) -> None:
    report = run.report
    fates = report.records_committed + report.lost_flows + report.records_shed
    if fates != run.records_sent:
        raise Refusal(
            f"record fates do not reconcile: {report.records_committed} committed"
            f" + {report.lost_flows} lost + {report.records_shed} shed"
            f" != {run.records_sent} sent"
        )
    if report.cursor != report.records_committed:
        raise Refusal(
            f"cursor {report.cursor} != records committed {report.records_committed}"
        )
    if report.lost_flows or report.records_shed:
        raise Refusal(
            f"UDP loss or shedding occurred ({report.lost_flows} lost,"
            f" {report.records_shed} shed): the run is not a measurement"
        )
    kernels = len(run.clock.kernel_walls("sat"))
    if kernels < MIN_KERNEL_SAMPLES and not quick:
        raise Refusal(
            f"only {kernels} reference-kernel samples in the saturation phase"
            f" (need {MIN_KERNEL_SAMPLES})"
        )


def median_segment_percentile(
    run: LiveRun, paced_s: float, values: Sequence[Any], quantile: float
) -> float:
    """The median, over the kept paced segments, of each segment's
    percentile.  A stall or a regression that hits only some seconds
    moves the segments it hits, and the median with them once it hits
    half of them; the p99 over all kept datagrams sees the rest."""
    per_segment = segment_percentiles(run, paced_s, values, quantile)
    return statistics.median(per_segment) if per_segment else 0.0


def _live_metrics(
    run: LiveRun, sizes: Sizes
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Dict[str, Any]]]:
    """(end-to-end, live-derived per-layer) metrics of one live run."""
    clock = run.clock
    sat = clock.totals("sat")
    setup_norm = clock.median_repeat("setup")
    checkpoint_norm = clock.median_repeat("checkpoint")
    latency = reference_clock_latency(run)
    end_to_end = {
        "setup_s": _metric(setup_norm, "s"),
        "records_per_s": _metric(sat["work"] / sat["norm_wall_s"], "rec/s"),
        "cpu_us_per_record": _metric(
            (sat["norm_cpu_s"] + run.children_cpu_s) / sat["work"] * 1e6, "us"
        ),
        "verdict_latency_p50_ms": _metric(
            median_segment_percentile(run, sizes.paced_s, latency, 0.5) * 1e3, "ms"
        ),
        "verdict_latency_p90_ms": _metric(
            median_segment_percentile(run, sizes.paced_s, latency, 0.9) * 1e3, "ms"
        ),
        "peak_rss_mb": _metric(_peak_rss_mib(), "MiB"),
        "checkpoint_ms": _metric(checkpoint_norm * 1e3, "ms"),
        "checkpoint_bytes": _metric(float(run.checkpoint_bytes), "B"),
    }

    raw_latency = run.paced_latency
    kept = [i for indices in paced_segments(run, sizes.paced_s) for i in indices]
    kept_latency = [raw_latency[i] for i in kept if raw_latency[i] is not None]
    kernel_walls = clock.kernel_walls("sat")
    setups = clock.repeats("setup")
    # Each repeat's steps ride on that repeat's overall scale.
    scales = [r["norm_wall_s"] / r["wall_s"] for r in setups]
    preload = [step[0] * scale for step, scale in zip(run.setup_steps, scales)]
    train = [step[1] * scale for step, scale in zip(run.setup_steps, scales)]
    per_layer = {
        "serve.queue_wait_p50_ms": _metric(
            median_segment_percentile(run, sizes.paced_s, run.paced_wait, 0.5) * 1e3,
            "ms",
        ),
        "serve.queue_wait_p90_ms": _metric(
            median_segment_percentile(run, sizes.paced_s, run.paced_wait, 0.9) * 1e3,
            "ms",
        ),
        "serve.batch_fill_mean": _metric(
            statistics.mean(run.paced_batches) if run.paced_batches else 0.0, "rec"
        ),
        "serve.sender_late_p90_ms": _metric(
            percentile(run.paced_late, 0.9) * 1e3 if run.paced_late else 0.0, "ms"
        ),
        "serve.verdict_latency_p99_ms": _metric(
            percentile(kept_latency, 0.99) * 1e3 if kept_latency else 0.0, "ms"  # type: ignore[arg-type]
        ),
        "core.train_ms": _metric(statistics.median(train) * 1e3, "ms"),
        "core.preload_eia_ms": _metric(statistics.median(preload) * 1e3, "ms"),
        "host.ref_kernel_us": _metric(statistics.median(kernel_walls) * 1e6, "us"),
        "host.noise_ratio": _metric(
            percentile(kernel_walls, 0.9) / min(kernel_walls), "ratio"
        ),
        "raw.records_per_s": _metric(sat["work"] / sat["wall_s"], "rec/s"),
        "raw.cpu_us_per_record": _metric(
            (sat["cpu_s"] + run.children_cpu_s) / sat["work"] * 1e6, "us"
        ),
        "raw.setup_s": _metric(clock.median_repeat("setup", "wall_s"), "s"),
        "raw.verdict_latency_p50_ms": _metric(
            median_segment_percentile(run, sizes.paced_s, raw_latency, 0.5) * 1e3, "ms"
        ),
        "raw.verdict_latency_p90_ms": _metric(
            median_segment_percentile(run, sizes.paced_s, raw_latency, 0.9) * 1e3, "ms"
        ),
    }
    return end_to_end, per_layer


def _persistence_metrics(run: LiveRun, clock: RefClock) -> Dict[str, Dict[str, Any]]:
    """Save and load of the end-of-run state, each repeated."""
    detector = run.detector
    path = run.checkpoint_path + ".persistence"
    for repeat in range(3):
        with clock.ticking("persistence.save", repeat):
            save_detector(detector, path, cursor=run.report.cursor)
    for repeat in range(3):
        with clock.ticking("persistence.load", repeat):
            load_checkpoint(path)
    os.unlink(path)
    save = clock.median_repeat("persistence.save")
    load = clock.median_repeat("persistence.load")
    alerts = detector.alert_sink.alerts
    section = json.dumps(
        detector.alert_sink.state_dict(), sort_keys=True, separators=(",", ":")
    )
    return {
        "core.persistence_save_ms": _metric(save * 1e3, "ms"),
        "core.persistence_load_ms": _metric(load * 1e3, "ms"),
        "core.persistence_bytes_per_alert": _metric(
            len(section) / len(alerts) if alerts else 0.0, "B"
        ),
    }


def _layer_metrics(
    run: LiveRun, bare: SyncDrive, traced: SyncDrive
) -> Dict[str, Dict[str, Any]]:
    layers = traced.layer_totals()
    records = traced.clock.totals(traced.label)["work"]

    def self_per_record(*names: str) -> float:
        return sum(layers[name]["self_ns"] for name in names) / records

    def per_call(*names: str) -> float:
        calls = layers[names[0]]["calls"]
        return sum(layers[name]["total_ns"] for name in names) / calls if calls else 0.0

    def calls_per_record(name: str) -> float:
        return layers[name]["calls"] / records

    sat = run.clock.totals("sat")
    live_ns = sat["norm_wall_s"] / sat["work"] * 1e9
    bare_ns = bare.ns_per_record()
    traced_ns = traced.ns_per_record()
    detector = traced.daemon.detector
    assert detector.fastpath is not None
    memo = detector.fastpath.stats()
    probes = memo["hits"] + memo["misses"]
    assess = layers["core.nns_assess"]["calls"]
    search = layers["core.nns_search"]["calls"]
    alerts = layers["core.alert_consume"]["calls"]
    ns, count, ratio = "ns", "count", "ratio"
    return {
        "fastpath.decode_ns_per_record": _metric(
            self_per_record("fastpath.decode", "fastpath.records"), ns
        ),
        "netflow.collector_ns_per_record": _metric(
            self_per_record("netflow.collector"), ns
        ),
        "serve.route_ns_per_record": _metric(self_per_record("serve.route"), ns),
        "serve.queue_put_ns_per_record": _metric(
            self_per_record("serve.queue_put"), ns
        ),
        "serve.queue_take_ns_per_record": _metric(
            self_per_record("serve.queue_take"), ns
        ),
        "serve.commit_self_ns_per_record": _metric(
            self_per_record("serve.commit"), ns
        ),
        "serve.loop_residual_ns_per_record": _metric(live_ns - bare_ns, ns),
        "core.process_batch_self_ns_per_record": _metric(
            self_per_record("core.process_batch"), ns
        ),
        "core.eia_check_ns_per_call": _metric(per_call("core.eia_check"), ns),
        "core.eia_check_calls_per_record": _metric(
            calls_per_record("core.eia_check"), count
        ),
        "fastpath.verdict_memo_hit_ratio": _metric(
            memo["hits"] / probes if probes else 0.0, ratio
        ),
        "fastpath.verdict_memo_invalidations": _metric(
            float(memo["invalidations"]), count
        ),
        "core.eia_absorptions": _metric(float(detector.stats.absorbed), count),
        "core.scan_ns_per_call": _metric(per_call("core.scan"), ns),
        "core.scan_calls_per_record": _metric(calls_per_record("core.scan"), count),
        "core.nns_assess_ns_per_call": _metric(per_call("core.nns_assess"), ns),
        "core.nns_assess_calls_per_record": _metric(
            calls_per_record("core.nns_assess"), count
        ),
        "core.nns_search_calls_per_record": _metric(
            calls_per_record("core.nns_search"), count
        ),
        "core.nns_memo_hit_ratio": _metric(
            1.0 - search / assess if assess else 0.0, ratio
        ),
        "core.alert_emit_ns_per_alert": _metric(
            per_call("core.alert_consume", "core.alert_build"), ns
        ),
        "core.alerts_per_record": _metric(alerts / records, count),
        "trace.driver_ns_per_record": _metric(self_per_record("cycle"), ns),
        "trace.sync_traced_ns_per_record": _metric(traced_ns, ns),
        "trace.sync_bare_ns_per_record": _metric(bare_ns, ns),
        "trace.live_ns_per_record": _metric(live_ns, ns),
        "trace.overhead_ratio": _metric(traced_ns / bare_ns, ratio),
    }


def self_check(
    workload: Workload, traced: SyncDrive, metrics: Dict[str, Dict[str, Any]]
) -> List[str]:
    """Is the trace what the workload's name says?  Complaints, if not."""
    detector = traced.daemon.detector
    records = detector.stats.processed
    alerts = detector.alert_sink.alerts
    scan_alerts = sum(1 for alert in alerts if alert.stage == "scan")
    searches = metrics["core.nns_search_calls_per_record"]["value"]

    def value(name: str) -> float:
        return float(metrics[name]["value"])

    complaints: List[str] = []

    def require(condition: bool, message: str) -> None:
        if not condition:
            complaints.append(f"{workload.name}: {message}")

    if workload.name == "legal":
        require(value("core.scan_calls_per_record") == 0, "scan analysis was called")
        require(value("core.nns_assess_calls_per_record") == 0, "NNS was called")
        require(not alerts, f"{len(alerts)} alerts on all-legal traffic")
    elif workload.name == "spoof8":
        require(searches >= 0.015, f"only {searches:.4f} NNS searches per record")
        require(
            scan_alerts >= 0.03 * records,
            f"only {scan_alerts} scan-stage alerts in {records} records",
        )
    elif workload.name == "flood_nns":
        require(searches >= 0.4, f"only {searches:.3f} NNS searches per record")
        require(scan_alerts == 0, f"{scan_alerts} scan-stage alerts")
    elif workload.name == "flood16":
        hit_ratio = value("core.nns_memo_hit_ratio")
        absorbed = detector.stats.absorbed
        require(hit_ratio >= 0.9, f"NNS memo hit ratio {hit_ratio:.3f}")
        require(
            absorbed >= 0.025 * records,
            f"only {absorbed} absorptions in {records} records",
        )
        require(
            absorbed > traced.absorbed_at_three_quarters,
            "no absorption in the last quarter of the saturation phase",
        )
    return complaints


def measure(
    workload_name: str, seed: int, seconds: float, trace_path: str, workdir: str,
    *, traced: bool, quick: bool, span_path: str,
) -> Dict[str, Any]:
    """Run one workload from its trace file; the full report as a dict.
    A traced run also writes its spans to ``span_path``."""
    workload = WORKLOADS[workload_name]
    sizes = sizes_for(workload, seconds)
    train_datagrams, paced, sat = read_trace(trace_path, sizes)
    train: Sequence[FlowRecord] = decode_all(train_datagrams)
    del train_datagrams
    # The driver's own heap is set aside before the detector exists; the
    # collector stays on for everything the system under test allocates.
    gc.collect()
    gc.freeze()

    run = run_live(
        workload, sizes, train, paced, sat,
        os.path.join(workdir, "checkpoint.json"), seed=seed,
    )
    _check_accounting(run, quick)
    end_to_end, per_layer = _live_metrics(run, sizes)
    complaints: List[str] = []
    if traced:
        per_layer.update(_persistence_metrics(run, run.clock))
        clock = RefClock()
        bare = sync_drive("bare", train, paced, sat, clock, traced=False)
        with_wrappers = sync_drive("traced", train, paced, sat, clock, traced=True)
        per_layer.update(_layer_metrics(run, bare, with_wrappers))
        head = (paced + sat)[: PY_CALLS_RECORDS // RECORDS_PER_DATAGRAM]
        per_layer["path.py_calls_per_record"] = _metric(
            count_py_calls(train, head) / (len(head) * RECORDS_PER_DATAGRAM), "count"
        )
        complaints = self_check(workload, with_wrappers, per_layer)
        document = with_wrappers.span_document()
        document.update(workload=workload.name, seconds=seconds)
        with open(span_path, "w", encoding="ascii") as out:
            json.dump(document, out, separators=(",", ":"))

    alerts = run.detector.alert_sink.alerts
    stages: Dict[str, int] = {}
    for alert in alerts:
        stages[alert.stage] = stages.get(alert.stage, 0) + 1
    host = host_fingerprint()
    host["ref_kernel_us"] = per_layer["host.ref_kernel_us"]["value"]
    host["noise_ratio"] = per_layer["host.noise_ratio"]["value"]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "host": host,
        "records_sent": run.records_sent,
        "records_committed": run.report.records_committed,
        "batches": run.report.batches,
        "kernel_samples": len(run.clock.kernel_walls("sat")),
        "alerts": len(alerts),
        "alerts_by_stage": stages,
        "latency_segments_ms": {
            f"p{round(quantile * 100)}": [
                value * 1e3 for value in segment_percentiles(
                    run, sizes.paced_s, reference_clock_latency(run), quantile
                )
            ]
            for quantile in (0.5, 0.9)
        },
        "digest": alert_digest(alerts),
        "self_check": complaints,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def main(argv: Sequence[str]) -> int:
    """``measure <workload> <seed> <seconds> <trace> <workdir> <traced>
    <quick> <span-path> <out>``: the child-process entry ``run.py`` calls."""
    workload, seed, seconds, trace_path, workdir, traced, quick, span_path, out = argv
    try:
        report = measure(
            workload, int(seed), float(seconds), trace_path, workdir,
            traced=traced == "1", quick=quick == "1", span_path=span_path,
        )
    except Refusal as refusal:
        print(f"refusing to report: {refusal}", file=sys.stderr)
        return 3
    with open(out, "w", encoding="ascii") as sink:
        json.dump(report, sink)
    return 0
