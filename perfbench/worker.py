"""One benchmark process for one workload; `run.py` starts it and reads its last line.

Modes:

* ``setup``: build the inputs and report `setup_s`, the process CPU time
  from process start (interpreter, imports, input generation, scenario
  documents) until the inputs are ready, at the reference speed of clock.py.
* ``measure``: the same set-up, then rounds over the inputs for about
  ``--seconds``; reports each phase's time, the counts of attempted and
  failed operations, and the peak resident memory.
* ``trace``: pairs of passes (set-up plus one round), the first untraced
  and the second traced, for about ``--seconds``; reports the per-layer
  numbers and the tracing overhead.

The first round's outputs get the independent checks; every later round
must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import clock  # noqa: E402
import workloads  # noqa: E402  (needs the source path above)
from tracer import Tracer  # noqa: E402

PHASES = ("solve", "verify", "classify")


def _measure(inputs: workloads.Inputs, seconds: float) -> dict:
    """Rounds until the next one would end past `seconds`; at least one.

    A phase's value is the sum over operations of each operation's median
    time across the rounds, which keeps bursts of a busy machine out.
    """
    tally = workloads.Tally()
    # Only each round's times are kept, so memory does not grow with the rounds.
    times: list[dict] = []
    reference = None
    durations = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rnd = workloads.run_round(inputs)
        durations.append(time.perf_counter() - began)
        checked = workloads.check_round(inputs, rnd, reference)
        reference = reference or (rnd, checked)
        tally.add(checked)
        times.append({phase: getattr(rnd, phase) for phase in PHASES})
        times[-1]["raw_s"] = rnd.raw_s
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    phases = {}
    for phase in PHASES:
        per_op = zip(*(t[phase] for t in times))
        phases[f"{phase}_s"] = sum(statistics.median(op) for op in per_op)
    return {
        "phases": phases,
        "round_sums": [{p: sum(t[p]) for p in PHASES} for t in times],
        "round_raw_cpu_s": [t["raw_s"] for t in times],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.wrong == 0,
        "problems": tally.problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _pass(workload: str, seed: int, tracer: Tracer | None):
    """Set-up plus one round, traced when `tracer` is given."""
    if tracer is not None:
        tracer.install([workloads])
    try:
        inputs = workloads.build(workload, seed)
        return inputs, workloads.run_round(inputs, probe=False)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _trace(workload: str, seed: int, seconds: float) -> dict:
    """Untraced and traced passes in turn; per-layer numbers and the overhead.

    Pass times are normalised by kernel runs just before and after each pass
    (clock.py); the profiling timer stays off, since its handler would run
    inside traced spans.
    """
    tally = workloads.Tally()
    reference = None
    untraced, traced, layer_runs, durations = [], [], [], []
    start = time.perf_counter()
    while True:
        began_pair = time.perf_counter()
        for tracer in (None, Tracer()):
            took = [0.0]
            with clock.Meter(probe=False) as meter:
                inputs, rnd = meter.time(took, 0, _pass, workload, seed, tracer)
                meter.settle()
            (untraced if tracer is None else traced).append(took[0])
            checked = workloads.check_round(inputs, rnd, reference)
            reference = reference or (rnd, checked)
            tally.add(checked)
            if tracer is not None:
                layer_runs.append(tracer.metrics())
        durations.append(time.perf_counter() - began_pair)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    # Counts repeat exactly from pass to pass; times are medians over the passes.
    metrics = dict(layer_runs[0])
    for name in metrics:
        if name.endswith("self_s"):
            metrics[name] = statistics.median(run[name] for run in layer_runs)
    base, with_trace = statistics.median(untraced), statistics.median(traced)
    return {
        "metrics": metrics,
        "passes": len(traced),
        "untraced_s": base,
        "traced_s": with_trace,
        "overhead_s": with_trace - base,
        "overhead_ratio": (with_trace - base) / base,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.wrong == 0,
        "problems": tally.problems[:20],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    if args.mode == "trace":
        result = _trace(args.workload, args.seed, args.seconds)
    else:
        inputs = workloads.build(args.workload, args.seed)
        raw = time.process_time()
        result = {"setup_s": clock.normalise(raw), "setup_raw_cpu_s": raw}
        if args.mode == "measure":
            result.update(_measure(inputs, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
