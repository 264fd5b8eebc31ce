"""``python3 benchmarks/e2e/run.py`` — the serve-path benchmark.

    run.py --workload legal --seed 7 --seconds 8 --trace 0   # one run
    run.py --quick --trace                                    # smoke, all four
    run.py --aa 3                                             # A/A: two sets of 3
    run.py --regen-golden                                     # rebuild golden.json

One run = two child processes: one generates the trace file and (unless
a golden digest covers the arguments) the serial reference, one hosts
the daemon and measures.  Every run prints the full report — host
fingerprint, counts, every metric with its unit — as one JSON line, then
as the *last* line the object the benchmark contract asks for::

    {"correct": true, "attempted": 261000, "failed": 0, "metrics": {...}}

With ``--trace 0`` (default) the metrics are the end-to-end ones, with
``--trace 1`` (or bare ``--trace``) the per-layer ones, and the spans go
to ``out/trace_<workload>.json`` beside this file.  Exit status is 0
only when the alert stream matched its reference; a run that refuses to
report (loss, shedding, too few reference kernels) still prints the
contract object, with every record failed and no metrics, and exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(
        f"benchmarks/e2e needs the repro package under {SRC}: run it from a"
        " checkout of the repository"
    )
for entry in (str(SRC), str(HERE.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from e2e.workloads import (  # noqa: E402
    DEFAULT_SECONDS,
    DEFAULT_SEED,
    WORKLOADS,
    read_trace,
    serial_reference,
    sizes_for,
    write_trace,
)

GOLDEN = HERE / "golden.json"
WORK = HERE / ".work"
OUT = HERE / "out"
QUICK_SECONDS = DEFAULT_SECONDS / 20
#: Longest the children of one run may take together: a contract run
#: must end within 180 s.
RUN_TIMEOUT_S = 170


def _golden_key(workload: str, seed: int, seconds: float) -> str:
    return f"{workload}/seed={seed}/seconds={seconds:g}"


def _load_golden() -> Dict[str, Dict[str, Any]]:
    if not GOLDEN.is_file():
        return {}
    with GOLDEN.open(encoding="ascii") as source:
        return json.load(source)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(deadline: float, *argv: str) -> int:
    """Run one of this file's child roles; output goes to our stderr."""
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", *argv],
        env=_child_env(), stdout=sys.stderr, check=False,
        timeout=max(1.0, deadline - time.monotonic()),
    ).returncode


# -- child roles ---------------------------------------------------------------


def _child_generate(argv: Sequence[str]) -> int:
    """``generate <workload> <seed> <seconds> <trace> <reference-out|->``"""
    workload, seed, seconds, trace_path, reference_out = argv
    sizes = sizes_for(WORKLOADS[workload], float(seconds))
    write_trace(trace_path, WORKLOADS[workload], int(seed), sizes)
    if reference_out != "-":
        train, paced, sat = read_trace(trace_path, sizes)
        reference = serial_reference(train, paced + sat, memoise_assess=True)
        with open(reference_out, "w", encoding="ascii") as out:
            json.dump(reference, out)
    return 0


def _child_main(argv: Sequence[str]) -> int:
    role, rest = argv[0], argv[1:]
    if role == "generate":
        return _child_generate(rest)
    if role == "measure":
        from e2e.measure import main as measure_main

        return measure_main(rest)
    raise SystemExit(f"unknown child role {role!r}")


# -- one run -------------------------------------------------------------------


def run_once(
    workload: str, seed: int, seconds: float, *, traced: bool, quick: bool
) -> Tuple[Optional[Dict[str, Any]], Dict[str, Any]]:
    """(full report or None when the run refused, contract object)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    attempted = sizes_for(WORKLOADS[workload], seconds).total_records
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        trace_path = os.path.join(workdir, "trace.bin")
        reference_path = os.path.join(workdir, "reference.json")
        report_path = os.path.join(workdir, "report.json")
        golden = _load_golden().get(_golden_key(workload, seed, seconds))
        status = _child(
            deadline, "generate", workload, str(seed), repr(seconds), trace_path,
            "-" if golden is not None else reference_path,
        )
        if status != 0:
            raise SystemExit(f"trace generation failed with status {status}")
        if golden is None:
            with open(reference_path, encoding="ascii") as source:
                reference = json.load(source)
        else:
            reference = golden
        if traced:
            OUT.mkdir(exist_ok=True)
        status = _child(
            deadline, "measure", workload, str(seed), repr(seconds), trace_path,
            workdir,
            "1" if traced else "0", "1" if quick else "0",
            str(OUT / f"trace_{workload}.json"), report_path,
        )
        if status != 0:
            return None, {
                "correct": False, "attempted": attempted, "failed": attempted,
                "metrics": {},
            }
        with open(report_path, encoding="ascii") as source:
            report = json.load(source)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report["trace"] = int(traced)
    report["reference"] = {
        "source": "golden.json" if golden is not None else "serial process_all",
        **reference,
    }
    correct = (
        report["digest"] == reference["digest"]
        and report["alerts"] == reference["alerts"]
        and report["records_committed"] == reference["records"]
        and not report["self_check"]
    )
    failed = attempted - report["records_committed"] if correct else attempted
    report["correct"] = correct
    contract = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["per_layer"] if traced else report["end_to_end"],
    }
    return report, contract


def _run_and_print(
    workload: str, seed: int, seconds: float, *, traced: bool, quick: bool
) -> int:
    report, contract = run_once(workload, seed, seconds, traced=traced, quick=quick)
    if report is None:
        print(json.dumps(contract))
        return 3
    print(json.dumps(report))
    for complaint in report["self_check"]:
        print(f"self-check failed: {complaint}", file=sys.stderr)
    if report["digest"] != report["reference"]["digest"]:
        print(
            f"{workload}: alert digest {report['digest']} does not match the"
            f" reference {report['reference']['digest']}", file=sys.stderr,
        )
    print(json.dumps(contract))
    return 0 if report["correct"] else 1


# -- golden digests -------------------------------------------------------------


def regen_golden() -> int:
    """Default-seed digests from strict serial ``process_all`` (no
    assessment cache): slow — minutes — and done once per change of the
    workloads."""
    golden: Dict[str, Dict[str, Any]] = {}
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="golden-", dir=WORK)
    try:
        for seconds in (float(DEFAULT_SECONDS), QUICK_SECONDS):
            for name, workload in WORKLOADS.items():
                sizes = sizes_for(workload, seconds)
                path = os.path.join(workdir, "trace.bin")
                write_trace(path, workload, DEFAULT_SEED, sizes)
                train, paced, sat = read_trace(path, sizes)
                key = _golden_key(name, DEFAULT_SEED, seconds)
                golden[key] = serial_reference(
                    train, paced + sat, memoise_assess=False
                )
                print(key, golden[key], file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with GOLDEN.open("w", encoding="ascii") as out:
        json.dump(golden, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


# -- A/A --------------------------------------------------------------------------


def _bounds() -> Dict[str, Tuple[float, str]]:
    with (ROOT / "BENCHMARK.json").open(encoding="ascii") as source:
        spec = json.load(source)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def _quartiles(values: List[float]) -> Tuple[float, float]:
    """First and third quartile, interpolated inside the data (a set of
    three has no quartiles outside its own range)."""
    if len(values) < 2:
        return values[0], values[0]
    low, _median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, high


def run_aa(
    workloads: Sequence[str], seed: int, seconds: float, repeats: int, *, quick: bool
) -> int:
    """Two interleaved sets (A B A B ...) of ``repeats`` runs of this
    tree.  Set A and set B use the same seeds, so what separates their
    medians is the host, not the input.  Raw-clock gaps are printed
    beside the normalised ones: on a noisy host they are the larger."""
    bounds = _bounds()
    raw_names = {
        "records_per_s": "raw.records_per_s",
        "cpu_us_per_record": "raw.cpu_us_per_record",
        "setup_s": "raw.setup_s",
        "verdict_latency_p50_ms": "raw.verdict_latency_p50_ms",
        "verdict_latency_p90_ms": "raw.verdict_latency_p90_ms",
    }
    failed = False
    for workload in workloads:
        sets: Dict[str, Dict[str, List[float]]] = {"A": {}, "B": {}}
        for index in range(repeats):
            for label in ("A", "B"):
                report, _ = run_once(
                    workload, seed + index, seconds, traced=False, quick=quick
                )
                if report is None or not report["correct"]:
                    print(f"{workload}: run {label}{index} failed", file=sys.stderr)
                    return 1
                values = {**report["end_to_end"], **report["per_layer"]}
                for name, metric in values.items():
                    sets[label].setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {repeats} + {repeats} runs, seeds {seed}.."
              f"{seed + repeats - 1}")
        header = (f"{'metric':<30}{'median A':>14}{'median B':>14}"
                  f"{'IQR A':>9}{'IQR B':>9}{'gap':>9}{'bound':>8}")
        print(header)
        for name, (bound, better) in bounds.items():
            for shown in (name, raw_names.get(name)):
                if shown is None:
                    continue
                a, b = sets["A"][shown], sets["B"][shown]
                median_a, median_b = statistics.median(a), statistics.median(b)
                low_a, high_a = _quartiles(a)
                low_b, high_b = _quartiles(b)
                gap = abs(median_b - median_a) / median_a
                line = (f"{shown:<30}{median_a:>14.4f}{median_b:>14.4f}"
                        f"{(high_a - low_a) / median_a:>9.3f}"
                        f"{(high_b - low_b) / median_b:>9.3f}{gap:>9.3f}")
                if shown == name:
                    verdict = "" if gap <= bound else "  EXCEEDS"
                    failed = failed or gap > bound
                    print(f"{line}{bound:>8.3f}{verdict}")
                else:
                    print(f"{line}{'raw':>8}")
    return 1 if failed else 0


# -- CLI ----------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--child"]:
        return _child_main(argv[1:])
    parser = argparse.ArgumentParser(
        description="The InFilter serve-path benchmark (see README.md beside it)."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all four, in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(DEFAULT_SECONDS),
                        help="quiet-host length of paced + saturation phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced run (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help=f"1/20 of the records ({QUICK_SECONDS:g} s); no bounds")
    parser.add_argument("--aa", type=int, default=0, metavar="N",
                        help="A/A check: two interleaved sets of N runs")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rebuild golden.json from strict serial process_all")
    args = parser.parse_args(argv)
    if args.regen_golden:
        return regen_golden()
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = QUICK_SECONDS if args.quick else args.seconds
    if args.aa:
        return run_aa(names, args.seed, seconds, args.aa, quick=args.quick)
    status = 0
    for name in names:
        status = max(
            status,
            _run_and_print(
                name, args.seed, seconds, traced=bool(args.trace), quick=args.quick
            ),
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
