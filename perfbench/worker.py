"""One fresh benchmark process: set up, then run whole rounds of operations.

Started by run.py with the environment it prepares:

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS EXPECTED RESULT

MODE is ``setup`` (measure set-up only), ``measure`` (set-up, then time
the whole number of rounds that comes closest to SECONDS spent in
operations) or ``trace`` (the same, with every operation run twice in a
row, untraced and traced).
EXPECTED is the JSON file of the workload's make-up and its oracle
values; RESULT is where this process writes its JSON result.  Set-up time
runs from the first line of this file to the end of the warm-up call:
importing dirikit (and with it numpy), reading the make-up, building the
program's inputs from it and one warm-up call.  The warm-up's output is
checked after that.
"""

import time

_SETUP_START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _import_dirikit():
    start = time.perf_counter()
    import dirikit
    import_ms = 1e3 * (time.perf_counter() - start)
    import dirikit.cli  # noqa: F401  (verify-all calls the CLI entry point)

    source = ROOT / "src" / "dirikit"
    if Path(dirikit.__file__).resolve().parent != source:
        raise SystemExit(f"dirikit imported from {dirikit.__file__}, not {source}")
    return dirikit, import_ms


def _attempt(workload, op, record: dict, tracer=None) -> None:
    """Time one operation, traced when a tracer is given, then check its
    output with the timer stopped and the tracer removed."""
    with tracer if tracer is not None else contextlib.nullcontext():
        if tracer is not None:
            tracer.mark_op()
        start = time.perf_counter()
        try:
            output, error = op(), None
        except Exception as exc:  # counted and reported, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    record["times"].append(elapsed)
    record["spent"] += elapsed
    if error is not None:
        record["raised"] += 1
        record["errors"].append(error)
        return
    problems = workload.check(output)
    if problems:
        record["wrong"] += 1
        record["errors"].extend(problems)


def _run_rounds(workload, seconds: float, tracer=None) -> list[dict]:
    """Run the whole number of rounds (at least one) whose time spent in
    operations comes closest to ``seconds``.

    With a tracer every operation runs twice in a row, untraced and then
    traced, so that the pair sees the same machine and the tracing
    overhead is not lost in drift.  An operation that raises counts as
    failed; one whose output fails a check counts as failed and wrong.
    """
    passes = [None] if tracer is None else [None, tracer]
    records = [
        {"times": [], "spent": 0.0, "raised": 0, "wrong": 0, "errors": []}
        for _ in passes
    ]
    done = 0
    while True:
        for op in workload.ops:
            for record, traced in zip(records, passes):
                _attempt(workload, op, record, traced)
        done += 1
        spent = sum(record["spent"] for record in records)
        # one more round would end farther from the target than stopping
        if spent + spent / done / 2 >= seconds:
            break
    for record in records:
        record["errors"] = record["errors"][:20]
    return records


def main(argv: list[str]) -> int:
    mode, workload_name, seed, seconds, expected_path, result_path = argv
    seed, seconds = int(seed), float(seconds)
    dk, import_ms = _import_dirikit()
    import ops  # the benchmark's own modules, beside this file
    import workloads

    expected = json.loads(
        Path(expected_path).read_text(), object_hook=workloads.decode_complex
    )
    scratch = Path(result_path).parent
    workload = ops.OPERATIONS[workload_name](
        dk, expected["makeup"], expected["values"], scratch
    )
    warmup_output = workload.warmup()
    setup_s = time.perf_counter() - _SETUP_START
    warmup_errors = workload.check(warmup_output)
    result = {"setup_s": setup_s, "import_ms": import_ms, "warmup_errors": warmup_errors}

    if mode == "measure":
        (loop,) = _run_rounds(workload, seconds)
        result.update(loop)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elif mode == "trace":
        import tracing

        tracer = tracing.Tracer(dk)
        plain, traced = _run_rounds(workload, seconds, tracer)
        tracer.write(scratch / f"spans-{workload_name}-seed{seed}.npz")
        overhead = 100.0 * (traced["spent"] / plain["spent"] - 1.0)
        result["layers"] = tracing.layer_metrics(
            tracer, len(traced["times"]), import_ms, overhead
        )
        for key in ("times", "raised", "wrong", "errors"):
            result[key] = plain[key] + traced[key]
        result["untraced_s"] = plain["spent"]
        result["traced_s"] = traced["spent"]
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
