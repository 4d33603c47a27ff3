"""Benchmark logsurf on one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line holds the end-to-end metrics: each phase's
CPU time (per operation, the median over rounds), the median `setup_s` of
several fresh processes, and the peak resident memory.  With ``--trace 1`` it holds the
per-layer metrics of a separate traced run, whose numbers and overhead also
go to ``.perfbench-results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench-results"
WORKLOADS = ("corpus", "deep", "chains")
SETUP_PROCESSES = 5  # fresh processes timed for setup_s, the measuring one included
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    pass


def _worker(mode: str, args: argparse.Namespace, deadline: float) -> dict:
    """Run worker.py in a fresh single-threaded process and parse its last line."""
    command = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} process passed the {DEADLINE_S:g} s deadline") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    runs = [_worker("setup", args, deadline) for _ in range(SETUP_PROCESSES - 1)]
    run = _worker("measure", args, deadline)
    runs.append(run)
    setups = [r["setup_s"] for r in runs]
    metrics = {"setup_s": _metric(statistics.median(setups), "s")}
    for phase, value in run["phases"].items():
        metrics[phase] = _metric(value, "s")
    metrics["peak_rss_mb"] = _metric(run["peak_rss_mb"], "MB")
    details = dict(run, setup_samples=setups, setup_raw_cpu_s=[r["setup_raw_cpu_s"] for r in runs])
    return metrics, details


def _per_layer(args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    run = _worker("trace", args, deadline)
    metrics = {name: _metric(value, metric_unit(name)) for name, value in run["metrics"].items()}
    print(
        f"tracing overhead on {args.workload}: {run['overhead_s']:.3f} s "
        f"({100 * run['overhead_ratio']:.0f}% of {run['untraced_s']:.3f} s untraced, "
        f"median of {run['passes']} passes)"
    )
    return metrics, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "logsurf" / "__init__.py").is_file():
        print(f"error: no logsurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Compile once up front, so no timed set-up pays for byte-compiling.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    try:
        if args.trace:
            metrics, details = _per_layer(args, deadline)
        else:
            metrics, details = _end_to_end(args, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in details["problems"]:
        print(f"failed: {problem}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    out = RESULTS / f"{kind}-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps(dict(details, metrics=metrics), indent=2) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": details["correct"],
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
