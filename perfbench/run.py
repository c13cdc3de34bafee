"""The repository benchmark: four workloads, end-to-end metrics, a traced layer split.

Run one workload (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_compare --seed 1 --seconds 12 --trace 0

prints the environment, every metric by name with its unit, the error rate
and the output checks, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` splits the measured time in an
untraced and a traced half and reports the per-layer metrics instead
(spans are written to ``.bench_out/``).

Other modes::

    python3 perfbench/run.py --all [--seed N] [--seconds S]   # every workload, fresh processes
    python3 perfbench/run.py --write-benchmark-json           # regenerate BENCHMARK.json
    python3 perfbench/run.py --write-reference 0-63           # store reference digests

The workloads and metrics are defined in ``catalog.py``.  Every run starts
in a fresh process, so no in-process memo or pool carries over.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

import catalog  # noqa: E402 - the benchmark's own modules live beside this file
from common import OUT_DIR, calibration_loop_ms, median, quantile  # noqa: E402


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=catalog.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--write-benchmark-json", action="store_true")
    parser.add_argument("--write-reference", metavar="FIRST-LAST")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def result_line(outcome, trace: bool, calibration_ms: float) -> dict:
    """The last stdout line: correctness, operation counts and metrics."""
    correct = not outcome.problems
    failed = outcome.failed if correct else outcome.attempted
    if trace:
        metrics = {
            layer.name: {"value": float(outcome.layers.get(layer.name, 0.0)), "unit": layer.unit}
            for layer in catalog.LAYER_METRICS
        }
        metrics["calibration.loop_ms"]["value"] = calibration_ms
    else:
        values = {
            "requests_per_s": quantile(outcome.rates, 0.10),
            "latency_p90_ms": quantile(outcome.latencies_ms, 0.90),
            "setup_s": outcome.setup_s,
            "peak_rss_mb": outcome.peak_rss_mb,
        }
        metrics = {
            metric.name: {"value": float(values[metric.name]), "unit": metric.unit}
            for metric in catalog.END_TO_END
        }
    return {
        "correct": correct,
        "attempted": int(max(outcome.attempted, 1)),
        "failed": int(failed),
        "metrics": metrics,
    }


#: A run still going after this many seconds is aborted (daemons are stopped
#: on the way out), so it fails inside the 180 s a run is allowed.
RUN_DEADLINE_S = 140


def _deadline(_signum, _frame) -> None:
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S)
    calibration = calibration_loop_ms()
    if workload in ("paper_compare", "datacenter_traffic"):
        from batch import run_serial

        outcome = run_serial(workload, seed, seconds, trace)
    elif workload == "fleet_dispatch":
        from batch import run_fleet

        outcome = run_fleet(seed, seconds, trace)
    else:
        from live import run_live

        outcome = run_live(seed, seconds, trace)
    calibration += calibration_loop_ms()
    calibration_ms = median(calibration)
    line = result_line(outcome, trace, calibration_ms)

    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}")
    moves = {layer.name: f"  (should move {layer.moves})" for layer in catalog.LAYER_METRICS}
    for name, metric in line["metrics"].items():
        print(f"{workload}/{name} = {metric['value']:.6g} {metric['unit']}{moves.get(name, '')}")
    if not trace:
        print(f"calibration.loop_ms = {calibration_ms:.4f} ms")
        # reported for reading, not gated: too unsteady here, or too few samples
        latencies = outcome.latencies_ms
        print(f"{workload}/mean_requests_per_s = {outcome.served / outcome.wall_s:.6g} 1/s "
              f"({len(outcome.rates)} throughput samples)")
        print(f"{workload}/latency_p50_ms = {median(latencies):.6g} ms "
              f"({len(latencies)} latency samples)")
        if len(latencies) >= 1000:
            print(f"{workload}/latency_p99_ms = {quantile(latencies, 0.99):.6g} ms")
    error_rate = line["failed"] / line["attempted"]
    print(f"{workload}/error_rate = {error_rate:.6g} ({line['failed']} of {line['attempted']})")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"output check: {'passed' if line['correct'] else 'FAILED'}")
    if trace and outcome.recorder is not None:
        path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        outcome.recorder.dump(path)
        print(f"# spans written to {path.relative_to(BENCH_DIR.parent)}")
    print(json.dumps(line), flush=True)
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh process; prints each one's report."""
    status = 0
    for workload in catalog.WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        print(completed.stdout, end="")
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.write_benchmark_json:
        path = BENCH_DIR.parent / "BENCHMARK.json"
        path.write_text(json.dumps(catalog.benchmark_document(), indent=2) + "\n")
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        from batch import write_reference

        first, _, last = args.write_reference.partition("-")
        write_reference(range(int(first), int(last or first) + 1))
        return 0
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        print("perfbench: --workload, --all or a --write mode is required", file=sys.stderr)
        return 2
    if args.setup_probe:
        from benchplans import setup_probe

        setup_probe(args.workload, args.seed)
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
