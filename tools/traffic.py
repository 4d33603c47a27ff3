"""Statement lines of `src/logsurf` that neither the benchmark nor the
command line runs.

    python tools/traffic.py

Line-traces, with `sys.settrace`, the import of `logsurf` (so the code that
runs at import time counts), the set-up and one round of each workload
in `perfbench/workloads.py` at seed 101, then every `logsurf` subcommand on
each file in `scenarios/` (`decompose` on those that name a target base).
Prints one line per function of `src/logsurf` that has statements none of
these ran: its name as the benchmark's tracer spells it
(`ratlin.solve_symmetric`, `crepant.SurfaceState.classification`) and the
first line of each such statement.  A statement counts as run when any
line of it ran; for a compound statement only its head counts, up to its
first inner statement.  Nothing it prints was called in that traffic;
tests may still reach it.

Reads the checkout this script lives in and writes only to a temporary
directory.  Standard library only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logsurf"
SEED = 101
sys.path.insert(0, str(ROOT / "src"))


def functions(path: Path) -> dict[str, list[tuple[int, int]]]:
    """Each function in the module at `path`, by dotted name after the
    module's, with the first and last line that count for each statement of
    its own body (not of the functions and classes defined in it).
    Docstrings and `global`/`nonlocal` run no code and are left out."""
    found: dict[str, list[tuple[int, int]]] = {}

    def scan(body: list[ast.stmt], name: str, spans: list | None) -> None:
        for node in body:
            inner = [n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt)]
            for n in ast.iter_child_nodes(node):
                if isinstance(n, (ast.excepthandler, ast.match_case)):
                    inner += n.body
            if spans is not None and not isinstance(node, (ast.Global, ast.Nonlocal)):
                last = max(node.lineno, inner[0].lineno - 1) if inner else node.end_lineno
                spans.append((node.lineno, last))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = found[f"{name}.{node.name}"] = []
                start = 0 if ast.get_docstring(node) is None else 1
                scan(node.body[start:], f"{name}.{node.name}", own)
            elif isinstance(node, ast.ClassDef):
                scan(node.body, f"{name}.{node.name}", None)
            else:
                scan(inner, name, spans)

    scan(ast.parse(path.read_text(encoding="utf-8")).body, path.stem, None)
    return found


def unrun(runs: Iterable[Callable[[], object]]) -> dict[str, list[int]]:
    """Call each of `runs` under a line trace of `src/logsurf`; each function
    with statements none of them ran, mapped to those statements' first
    lines, in module and line order."""
    ran: set[tuple[str, int]] = set()
    inside: dict[str, bool] = {}

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().parent == PACKAGE
        return line if inside[name] else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        for run in runs:
            run()
    finally:
        sys.settrace(previous)
    lines: dict[Path, set[int]] = {}
    for name, number in ran:
        lines.setdefault(Path(name).resolve(), set()).add(number)
    report: dict[str, list[int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        seen = lines.get(path, set())
        for name, spans in functions(path).items():
            missed = [a for a, b in spans if seen.isdisjoint(range(a, b + 1))]
            if missed:
                report[name] = missed
    return report


def workload_runs() -> list[Callable[[], object]]:
    """The set-up and one round of each benchmark workload."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [
        lambda w=w: workloads.run_round(workloads.build(w, SEED), probe=False)
        for w in workloads.WORKLOADS
    ]


def command_runs(out: Path) -> list[Callable[[], object]]:
    """Every subcommand on each scenario file, with its output swallowed and
    its files written under `out`."""
    argvs = []
    for scenario in sorted((ROOT / "scenarios").glob("*.json")):
        doc = json.loads(scenario.read_text(encoding="utf-8"))
        file, trace = str(scenario), str(out / f"{scenario.stem}.trace.json")
        argvs += [
            ["validate", file],
            ["classify", file],
            ["discrepancies", file],
            ["flops", file],
            ["minimize", file, "--trace", trace],
            ["verify", file, "--trace", trace],
            ["blowup", file, "--at", "generic", "--coeff", "0", "-o", str(out / "blown.json")],
            ["dot", file],
        ]
        target = doc.get("base", {}).get("target")
        if target is not None:
            start = ",".join(map(str, doc.get("contracted", [])))
            end = ",".join(map(str, target))
            argvs += [
                ["decompose", file, "--from", start, "--to", end, "--trace", trace],
                ["verify", file, "--trace", trace],
            ]

    def quiet(argv: list[str]) -> None:
        from logsurf import cli

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)

    return [lambda argv=argv: quiet(argv) for argv in argvs]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        # The runs are made under the trace too: making them imports
        # `logsurf`, so the code that runs at import time counts.
        report = unrun([lambda: [run() for run in workload_runs() + command_runs(Path(tmp))]])
    for name, lines in report.items():
        print(f"{name}: {' '.join(map(str, lines))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
