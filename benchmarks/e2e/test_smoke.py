"""Smoke test of the benchmark itself: ``pytest benchmarks/e2e``.

Runs every workload once as ``--quick --trace`` (1/20 of the records, no
bounds) and checks the machinery, not the speed: every metric named in
``BENCHMARK.json`` is printed with its unit, the alert digest matches
the golden one, the workload self-checks pass, the layer self-times add
up to the total, the Python-call count repeats exactly, and the cached
serial reference that non-default seeds are checked against agrees with
the strict one the golden digests were made with.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from e2e.run import QUICK_SECONDS, _golden_key, _load_golden  # noqa: E402
from e2e.workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS as DEFINED,
    serial_reference,
    sizes_for,
    stream_datagrams,
    training_datagrams,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: The self-time metrics that partition the traced drive's total.
_SELF_TIMES = (
    "fastpath.decode_ns_per_record",
    "netflow.collector_ns_per_record",
    "serve.route_ns_per_record",
    "serve.queue_put_ns_per_record",
    "serve.queue_take_ns_per_record",
    "serve.commit_self_ns_per_record",
    "core.process_batch_self_ns_per_record",
    "trace.driver_ns_per_record",
)


def _quick_traced(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--quick", "--trace"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {workload: _quick_traced(workload) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(runs, workload):
    report, contract = runs[workload]
    for metric in SPEC["end_to_end"]:
        assert report["end_to_end"][metric["name"]]["unit"] == metric["unit"]
    assert set(report["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    # --trace: the contract line carries exactly the per-layer metrics.
    assert set(contract["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert contract["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_alert_stream_matches_golden_and_trace_is_what_its_name_says(
    runs, workload
):
    report, contract = runs[workload]
    assert report["reference"]["source"] == "golden.json"
    assert report["digest"] == report["reference"]["digest"]
    assert report["self_check"] == []
    assert contract["correct"] is True
    assert contract["failed"] == 0
    assert contract["attempted"] == report["records_committed"]
    for key in ("usable_cores", "python", "kernel", "ref_kernel_quiet_s",
                "ref_kernel_us", "noise_ratio"):
        assert key in report["host"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up(runs, workload):
    metrics = runs[workload][0]["per_layer"]
    records_alerts = metrics["core.alerts_per_record"]["value"]
    per_record_calls = (
        ("core.eia_check_ns_per_call", "core.eia_check_calls_per_record"),
        ("core.scan_ns_per_call", "core.scan_calls_per_record"),
        ("core.nns_assess_ns_per_call", "core.nns_assess_calls_per_record"),
    )
    total = sum(metrics[name]["value"] for name in _SELF_TIMES)
    total += sum(
        metrics[ns]["value"] * metrics[calls]["value"]
        for ns, calls in per_record_calls
    )
    total += metrics["core.alert_emit_ns_per_alert"]["value"] * records_alerts
    traced = metrics["trace.sync_traced_ns_per_record"]["value"]
    assert total == pytest.approx(traced, rel=1e-6)
    # bare drive + loop residual == live saturation figure, by definition
    assert (
        metrics["trace.sync_bare_ns_per_record"]["value"]
        + metrics["serve.loop_residual_ns_per_record"]["value"]
    ) == pytest.approx(metrics["trace.live_ns_per_record"]["value"], rel=1e-9)
    assert (HERE / "out" / f"trace_{workload}.json").is_file()


def test_python_call_count_repeats_exactly(runs):
    again, _ = _quick_traced("spoof8")
    name = "path.py_calls_per_record"
    assert again["per_layer"][name] == runs["spoof8"][0]["per_layer"][name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cached_reference_agrees_with_strict_golden(workload):
    # Non-default seeds (the acceptance procedure's, --aa's) are checked
    # against a reference that caches ClusterModel.assess; golden.json
    # was made without the cache.
    sizes = sizes_for(DEFINED[workload], QUICK_SECONDS)
    stream = stream_datagrams(DEFINED[workload], DEFAULT_SEED, sizes)
    cached = serial_reference(training_datagrams(), stream, memoise_assess=True)
    assert cached == _load_golden()[_golden_key(workload, DEFAULT_SEED, QUICK_SECONDS)]
