"""Paired benchmark runs of two revisions of this repository.

    python tools/pairs.py PARENT CHANGE --pairs 10 --seconds 30 --scratch DIR

Extracts `git archive` copies of both revisions under DIR, each named by its
side and commit (e.g. ``parent-ffd9945d5a81``), so PARENT and CHANGE may be
one revision: such an A/A batch measures the spread between its own runs.
Runs the benchmark that the change's BENCHMARK.json declares (its command,
plus ``--workload W --seed S --seconds T``) in each copy, one process at a
time.  Pair k runs both sides on seed 101 + k, and the side that goes first
alternates from pair to pair.  Per workload and end-to-end metric it prints
each side's median and quartiles, the number of pairs the change won, that
is where its value was better in the metric's direction, and a verdict
against the metric's ``bound`` in the change's BENCHMARK.json:

- ``worse``: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
- ``unresolved``: otherwise, the parent's own spread, (Q3 - Q1) / median,
  exceeds the bound, and not every run of the change reads better than
  every run of the parent;
- ``within bound``: otherwise.

The raw results go to DIR/pairs.json.  A run that fails, reports
``correct: false`` or counts failed operations is reported, and the exit
code is then 1.

Only DIR is written to; the checkout this script lives in is only read.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 101  # pair k runs seed FIRST_SEED + k, as BENCH_18.json did


def extract(revision: str, scratch: Path, side: str) -> tuple[str, Path]:
    """The full commit id of `revision` and a fresh `git archive` copy of
    it under `scratch`, named by `side` and that id; the copy must not
    exist yet."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{revision}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        check=True, capture_output=True,
    ).stdout
    target = scratch / f"{side}-{commit[:12]}"
    target.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    return commit, target


def run_once(copy: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `copy`: its last stdout line as JSON, or a
    record of why there is none."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if args[0] in ("python", "python3"):
        args[0] = sys.executable
    proc = subprocess.run(args, cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable output line {lines[-1]!r}"}


def problem(result: dict) -> str | None:
    """Why a run's result does not count, or None when it does."""
    if "error" in result:
        return result["error"]
    if not result.get("correct") or result.get("failed", 0) > 0:
        return f"correct {result.get('correct')}, failed {result.get('failed')}"
    return None


def spread(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(pairs: list[dict], metrics: list[dict]) -> list[str]:
    """One line per metric: each side's quartiles, the change's wins and
    its verdict against the metric's bound."""
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [
            (p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
            for p in pairs
            if problem(p["parent"]) is None and problem(p["change"]) is None
        ]
        if not both:
            lines.append(f"  {name}: no complete pair")
            continue
        parent, change = (list(side) for side in zip(*both))
        wins = sum((c < p) if lower else (c > p) for p, c in both)
        p1, p2, p3 = spread(parent)
        c1, c2, c3 = spread(change)
        shift = (c2 - p2) / p2 if p2 else 0.0
        bound = metric["bound"]
        every_run_better = (
            max(change) < min(parent) if lower else min(change) > max(parent)
        )
        if (shift if lower else -shift) > bound:
            verdict = "worse"
        elif p3 - p1 > bound * p2 and not every_run_better:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        lines.append(
            f"  {name}: parent {p2:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {c2:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"shift {100 * shift:+.1f}%  won {wins}/{len(both)}  {verdict}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the baseline revision")
    parser.add_argument("change", help="the revision under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--scratch", type=Path, required=True,
                        help="directory for the copies and pairs.json, outside the checkout")
    args = parser.parse_args(argv)
    scratch = args.scratch.resolve()
    if scratch == ROOT or ROOT in scratch.parents:
        parser.error("--scratch must lie outside the checkout")

    parent_commit, parent_copy = extract(args.parent, scratch, "parent")
    change_commit, change_copy = extract(args.change, scratch, "change")
    declared = json.loads((change_copy / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]
    sides = {"parent": parent_copy, "change": change_copy}

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    failures = []
    for workload in workloads:
        for k in range(args.pairs):
            seed = FIRST_SEED + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = result = run_once(
                    sides[side], declared["command"], workload, seed, args.seconds
                )
                why = problem(result)
                if why is not None:
                    failures.append(f"{workload} seed {seed} {side}: {why}")
            results[workload].append(pair)
            print(f"{workload} pair {k + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    print(f"parent {parent_commit[:12]}  change {change_commit[:12]}  "
          f"{args.pairs} pairs, {args.seconds:g} s, seeds from {FIRST_SEED}")
    print("median [lower quartile, upper quartile]")
    for workload in workloads:
        print(f"{workload}:")
        for line in summary(results[workload], declared["end_to_end"]):
            print(line)
    (scratch / "pairs.json").write_text(
        json.dumps({"parent": parent_commit, "change": change_commit, "results": results},
                   indent=2) + "\n",
        encoding="utf-8",
    )
    for failure in failures:
        print(f"failed run: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
