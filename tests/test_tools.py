"""The measuring tools: `tools/depth.py` run end to end, the copies and
statistics of `tools/pairs.py` on synthetic inputs, and the line trace of
`tools/traffic.py` on one command and end to end.  Neither git nor the
network is used."""

from __future__ import annotations

import importlib.util
import inspect
import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

from logsurf import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load("pairs")
traffic = _load("traffic")


@pytest.mark.parametrize("template", ["corner", "boundary_chain"])
def test_depth_prints_one_verified_line(template):
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "depth.py"), "20", "--template", template],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    doc = json.loads(line)
    assert (doc["depth"], doc["template"], doc["steps"], doc["verified"]) == (
        20, template, 20, True
    )
    assert doc["decompose_s"] >= 0 and doc["verify_s"] >= 0 and doc["peak_rss_mb"] > 0
    assert doc["decompose_norm_s"] >= 0 and doc["verify_norm_s"] >= 0


def _run(value: float, **status) -> dict:
    """A benchmark result whose metrics `t` and `r` both read `value`."""
    result = {"correct": True, "failed": 0, **status}
    result["metrics"] = {"t": {"value": value}, "r": {"value": value}}
    return result


METRICS = [{"name": "t", "better": "lower"}, {"name": "r", "better": "higher"}]


class TestPairs:
    def test_problem(self):
        assert pairs.problem(_run(1.0)) is None
        assert pairs.problem({"error": "exit code 1: boom"}) == "exit code 1: boom"
        assert pairs.problem(_run(1.0, correct=False)) == "correct False, failed 0"
        assert pairs.problem(_run(1.0, failed=2)) == "correct True, failed 2"
        assert pairs.problem({"metrics": {}}) == "correct None, failed None"

    def test_spread(self):
        assert pairs.spread([4.0]) == (4.0, 4.0, 4.0)
        assert pairs.spread([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
        assert pairs.spread([1.0, 2.0, 3.0]) == (1.5, 2.0, 2.5)

    def test_summary_counts_wins_in_each_direction(self):
        batch = [
            {"parent": _run(1.0), "change": _run(0.5)},
            {"parent": _run(2.0), "change": _run(2.5)},
            {"parent": _run(3.0), "change": _run(2.0)},
            # Runs that do not count, though the change reads lowest there.
            {"parent": _run(9.0), "change": _run(0.1, correct=False)},
            {"parent": _run(9.0), "change": _run(0.1, failed=1)},
            {"parent": {"error": "exit code 1: boom"}, "change": _run(0.1)},
        ]
        assert pairs.summary(batch, METRICS) == [
            "  t: parent 2 [1.5, 2.5]  change 2 [1.25, 2.25]  shift +0.0%  won 2/3",
            "  r: parent 2 [1.5, 2.5]  change 2 [1.25, 2.25]  shift +0.0%  won 1/3",
        ]

    def test_summary_shift_and_no_complete_pair(self):
        batch = [{"parent": _run(2.0), "change": _run(1.5)}]
        assert pairs.summary(batch, METRICS[:1]) == [
            "  t: parent 2 [2, 2]  change 1.5 [1.5, 1.5]  shift -25.0%  won 1/1"
        ]
        failed = [{"parent": _run(2.0), "change": {"error": "exit code 2: no"}}]
        assert pairs.summary(failed, METRICS) == [
            "  t: no complete pair", "  r: no complete pair"
        ]

    def test_an_a_a_batch_gets_two_copies(self, tmp_path, monkeypatch):
        # Both sides of one revision: each copy is named by its side.
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w") as tar:
            data = b'{"workloads": []}\n'
            info = tarfile.TarInfo("BENCHMARK.json")
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
        commit = "ab" * 20
        calls = []

        def fake_run(args, **kwargs):
            calls.append(args)
            out = commit + "\n" if "rev-parse" in args else buffer.getvalue()
            return subprocess.CompletedProcess(args, 0, stdout=out)

        monkeypatch.setattr(pairs.subprocess, "run", fake_run)
        copies = [pairs.extract("HEAD", tmp_path, side) for side in ("parent", "change")]
        assert [(c, path.name) for c, path in copies] == [
            (commit, "parent-abababababab"), (commit, "change-abababababab")
        ]
        for _, path in copies:
            assert json.loads((path / "BENCHMARK.json").read_text()) == {"workloads": []}
        assert len(calls) == 4


def test_traffic_of_one_command():
    tower = str(TOOLS.parent / "scenarios" / "tower.json")
    unrun = traffic.unrun([lambda: cli.main(["validate", tower])])
    # A valid scenario skips exactly the loop that reports problems.
    source, first = inspect.getsourcelines(cli._cmd_validate)
    assert unrun["cli._cmd_validate"] == [
        first + i for i, text in enumerate(source) if "violation" in text or "return 2" in text
    ]
    # Every statement of a function never called is listed, from the first
    # after its docstring.
    source, first = inspect.getsourcelines(cli._cmd_classify)
    assert unrun["cli._cmd_classify"] == [first + 1, first + 2]
    source, first = inspect.getsourcelines(cli._load_state)
    (opening,) = [i for i, text in enumerate(source) if "= load_scenario(" in text]
    assert unrun["cli._load_state"][0] == first + opening
    assert "ratlin.solve_symmetric" in unrun and "cli.load_scenario" not in unrun


def test_traffic_counts_import_time_code():
    # Every record class runs `_Record.__init_subclass__` when its module is
    # imported, and nothing calls it later.
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "traffic.py")], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    names = [line.split(":")[0] for line in proc.stdout.splitlines()]
    assert "ratlin.solve_symmetric" in names
    assert "surface._Record.__init_subclass__" not in names
