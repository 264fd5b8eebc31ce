"""Alternating parent/change pairs of ``benchmarks/e2e/run.py``.

    python3 benchmarks/pairs.py PARENT CHANGE --workload flood16 --pairs 10 --seed 5200

``PARENT`` and ``CHANGE`` are two checkouts of this repository.  Pair
``i`` runs both at seed ``--seed + i``, the parent first on even pairs
and the change first on odd ones, and prints one line per run; then, per
end-to-end metric of ``CHANGE/BENCHMARK.json``, each side's median and
quartiles and the pairs the change won (ties count for neither).  The
same lines follow for the per-layer metrics in ``LAYERS``, read from each
run's report, which say where an end-to-end change comes from.  Before
them, one line per side gives the headroom over the refusal floor
(``MIN_KERNEL_SAMPLES`` in ``benchmarks/e2e/measure.py``): the minimum
and median ``kernel_samples`` and the minimum divided by the floor.  Exit
status 1 when any run was refused, incorrect or failed a record: its
metrics are then absent and the summary would be of the wrong set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
for entry in (str(ROOT / "src"), str(ROOT / "benchmarks")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from e2e.measure import MIN_KERNEL_SAMPLES  # noqa: E402

__all__ = ["LAYERS", "run_once", "main"]

#: Per-layer metrics printed beside the end-to-end ones: where the
#: paced latency goes (queue wait vs commit) and how full batches are.
LAYERS = (
    "serve.queue_wait_p50_ms",
    "serve.batch_fill_mean",
    "serve.verdict_latency_p99_ms",
)

def run_once(root: Path, workload: str, seed: int) -> Dict[str, Any]:
    """One run in ``root``: metric values, kernel samples, the verdict."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.splitlines()
    contract = json.loads(lines[-1])
    # A refused run prints the contract object alone.
    report = json.loads(lines[-2]) if len(lines) > 1 else {}
    metrics = {name: metric["value"] for name, metric in contract["metrics"].items()}
    per_layer = report.get("per_layer", {})
    layers = {name: per_layer[name]["value"] for name in LAYERS if name in per_layer}
    return {
        "metrics": metrics, "layers": layers,
        "kernel_samples": report.get("kernel_samples"),
        "correct": contract["correct"], "failed": contract["failed"],
    }


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.5g}"
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.5g} ({low:.5g}-{high:.5g})"


def _summarise(
    pairs: List[Dict[str, Dict[str, Any]]], kind: str, metric: Dict[str, Any]
) -> None:
    """One summary line: both sides' quartiles, their ratio, pairs won."""
    name, higher = metric["name"], metric["better"] == "higher"
    label = f"{metric['unit']}, {metric['better']} is better"
    if "bound" in metric:
        label += f", bound {metric['bound']:.1%}"
    parent = [pair["parent"][kind][name] for pair in pairs]
    change = [pair["change"][kind][name] for pair in pairs]
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    ratio = statistics.median(change) / statistics.median(parent)
    print(
        f"{name} [{label}]: parent {_quartiles(parent)}"
        f" change {_quartiles(change)}"
        f" change/parent {ratio:.3f} change won {won}/{len(pairs)}"
    )


def _headroom(pairs: List[Dict[str, Dict[str, Any]]], side: str) -> None:
    """One side's kernel samples against the floor that refuses a run."""
    samples = [
        pair[side]["kernel_samples"] for pair in pairs
        if pair[side]["kernel_samples"] is not None
    ]
    if not samples:
        print(f"kernel_samples {side}: none reported")
        return
    print(
        f"kernel_samples {side}: min {min(samples)}"
        f" median {statistics.median(samples):g}"
        f" min/floor {min(samples) / MIN_KERNEL_SAMPLES:.2f}"
        f" (floor {MIN_KERNEL_SAMPLES})"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=(__doc__ or "").splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with (roots["change"] / "BENCHMARK.json").open(encoding="utf-8") as source:
        benchmark = json.load(source)

    pairs: List[Dict[str, Dict[str, Any]]] = []
    for index in range(args.pairs):
        seed = args.seed + index
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair: Dict[str, Dict[str, Any]] = {}
        for side in order:
            run = pair[side] = run_once(roots[side], args.workload, seed)
            values = " ".join(
                f"{k}={v:.5g}" for k, v in {**run["metrics"], **run["layers"]}.items()
            )
            print(
                f"pair {index + 1} seed {seed} {side:6} {args.workload}"
                f" kernel_samples={run['kernel_samples']}"
                f" correct={run['correct']} failed={run['failed']} {values}",
                flush=True,
            )
        pairs.append(pair)

    for side in ("parent", "change"):
        _headroom(pairs, side)
    runs = [run for pair in pairs for run in pair.values()]
    if not all(run["correct"] and not run["failed"] and run["metrics"] for run in runs):
        print("a run was refused, incorrect or failed records: no summary")
        return 1
    for metric in benchmark["end_to_end"]:
        _summarise(pairs, "metrics", metric)
    for metric in benchmark["per_layer"]:
        if metric["name"] in LAYERS and all(
            metric["name"] in run["layers"] for run in runs
        ):
            _summarise(pairs, "layers", metric)
    return 0


if __name__ == "__main__":
    sys.exit(main())
