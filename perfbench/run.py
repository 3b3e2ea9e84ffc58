"""Benchmark of dirikit, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  run.py builds the workload's inputs
from the seed, evaluates the exact oracle on them (oracle.py), and starts
fresh worker processes that import dirikit from ``src/``, set up, and run
whole rounds of operations, checking every output against the oracle
outside the timed regions.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A readable summary goes to standard error, and the run's files (oracle
values, worker results, spans) to ``perfbench/out/<workload>-seed<N>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Set-up samples per run (fresh processes), the measuring worker's
#: included; the median is reported.
SETUP_SAMPLES = {"verify-all": 5, "quad-atoms": 11, "exact-tuple": 11}
#: Longest a worker may take; a run must end within 180 s.
WORKER_TIMEOUT_S = 160

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # QuadratureSpec.default() reads this on every call; it would change
    # the grid, and with it both the work and the values
    env.pop("DIRIKIT_QUAD_DEFAULT", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _worker(mode: str, args, expected: Path, result: Path) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"), mode, args.workload,
        str(args.seed), str(args.seconds), str(expected), str(result),
    ]
    proc = subprocess.run(
        command, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{mode} worker exited with {proc.returncode}")
    return json.loads(result.read_text())


def _end_to_end(args, expected: Path, out: Path) -> tuple[dict, dict, list[dict]]:
    # half the set-up samples before the measured loop and half after, so
    # that they span the run's time as the loop does
    samples = SETUP_SAMPLES[args.workload] - 1
    setups = [
        _worker("setup", args, expected, out / f"setup-{i}.json")
        for i in range(samples // 2)
    ]
    main = _worker("measure", args, expected, out / "measure.json")
    setups += [
        _worker("setup", args, expected, out / f"setup-{i}.json")
        for i in range(samples // 2, samples)
    ]
    workers = setups + [main]
    times = main["times"]
    completed = len(times) - main["raised"]
    metrics = {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "ops_per_s": completed / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return metrics, main, workers


def _per_layer(args, expected: Path, out: Path) -> tuple[dict, dict, list[dict]]:
    traced = _worker("trace", args, expected, out / "trace.json")
    layers = traced["layers"]
    metrics = {
        name: {"value": layers[name], "unit": unit}
        for name, unit in tracing.PER_LAYER
    }
    return metrics, traced, [traced]


def _declared_names(trace: int) -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "dirikit" / "__init__.py").is_file():
        print(f"error: no dirikit source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = HERE / "out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    oracle.self_test()
    makeup = workloads.MAKEUP[args.workload](args.seed)
    expected = out / "expected.json"
    expected.write_text(
        json.dumps(
            {
                "makeup": makeup,
                "values": oracle.expected_values(args.workload, makeup),
            },
            default=workloads.encode_complex,
        )
    )

    measure = _per_layer if args.trace else _end_to_end
    metrics, main_worker, workers = measure(args, expected, out)
    if list(metrics) != _declared_names(args.trace):
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 3

    attempted = len(main_worker["times"])
    failed = main_worker["raised"] + main_worker["wrong"]
    wrong = main_worker["wrong"] + sum(bool(w["warmup_errors"]) for w in workers)
    for w in workers:
        for error in w["warmup_errors"] + w.get("errors", []):
            print(f"check failed: {error}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)
    if args.trace and args.workload == "quad-atoms":
        predicted = workloads.predicted_calls_per_integral(makeup)
        print(f"{'(make-up predicts calls_per_integral)':48s} {predicted:14.6g}",
              file=sys.stderr)
    print(f"attempted {attempted}, failed {failed}", file=sys.stderr)
    result = {
        "correct": wrong == 0 and main_worker["raised"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
