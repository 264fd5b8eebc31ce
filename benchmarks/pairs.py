"""Alternating parent/change pairs of ``benchmarks/e2e/run.py``.

    python3 benchmarks/pairs.py PARENT CHANGE --workload flood16 --pairs 10 --seed 5200

``PARENT`` and ``CHANGE`` are two checkouts of this repository.  Pair
``i`` runs both at seed ``--seed + i``, the parent first on even pairs
and the change first on odd ones, and prints one line per run; then, per
end-to-end metric of ``CHANGE/BENCHMARK.json``, each side's median and
quartiles and the pairs the change won (ties count for neither).  Exit
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

__all__ = ["run_once", "main"]

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
    return {
        "metrics": metrics, "kernel_samples": report.get("kernel_samples"),
        "correct": contract["correct"], "failed": contract["failed"],
    }


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.5g}"
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.5g} ({low:.5g}-{high:.5g})"


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
        end_to_end = json.load(source)["end_to_end"]

    pairs: List[Dict[str, Dict[str, Any]]] = []
    for index in range(args.pairs):
        seed = args.seed + index
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair: Dict[str, Dict[str, Any]] = {}
        for side in order:
            run = pair[side] = run_once(roots[side], args.workload, seed)
            values = " ".join(f"{k}={v:.5g}" for k, v in run["metrics"].items())
            print(
                f"pair {index + 1} seed {seed} {side:6} {args.workload}"
                f" kernel_samples={run['kernel_samples']}"
                f" correct={run['correct']} failed={run['failed']} {values}",
                flush=True,
            )
        pairs.append(pair)

    runs = [run for pair in pairs for run in pair.values()]
    if not all(run["correct"] and not run["failed"] and run["metrics"] for run in runs):
        print("a run was refused, incorrect or failed records: no summary")
        return 1
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ratio = statistics.median(change) / statistics.median(parent)
        print(
            f"{name} [{metric['unit']}, {metric['better']} is better, bound"
            f" {metric['bound']:.1%}]: parent {_quartiles(parent)}"
            f" change {_quartiles(change)}"
            f" change/parent {ratio:.3f} change won {won}/{len(pairs)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
