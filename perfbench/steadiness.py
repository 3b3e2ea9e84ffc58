"""Steadiness batch: run the benchmark on several seeds and report spreads.

    python3 perfbench/steadiness.py --label A

Runs ``run.py`` once per seed (seeds 1-10) on every workload of
BENCHMARK.json, untraced, at its ``run_seconds``.  For every end-to-end
metric it prints the median and the spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound.  The batch is written to
``perfbench/out/steadiness-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    batch = {}
    for workload in (w["name"] for w in declared["workloads"]):
        runs = []
        for seed in SEEDS:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
                "--trace", "0",
            ]
            proc = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=200, check=True,
            )
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        summary = {}
        for metric in declared["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            summary[metric["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": metric["bound"],
                "values": values,
            }
            print(
                f"{workload:12s} {metric['name']:12s} median "
                f"{statistics.median(values):12.6g} {metric['unit']:4s} spread "
                f"{spread(values):7.2%} (bound {metric['bound']:.0%})"
            )
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(
            f"{workload:12s} correct {all(r['correct'] for r in runs)}, "
            f"failed shares {sorted(shares)}"
        )
        batch[workload] = {
            "metrics": summary,
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
        }
    out = HERE / "out" / f"steadiness-{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(batch, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
