"""Names reached from outside the package: `logsurf.__all__` and the
functions the benchmark's tracer wraps by name, so that deleting one fails
here rather than in a benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

import logsurf

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_names() -> list[tuple[str, str]]:
    """(layer, name) of every entry of the tracer's `SPANS` and `COUNTS`,
    read from its source without importing it."""
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANS", "COUNTS"):
                tables[target.id] = ast.literal_eval(node.value)
    assert sorted(tables) == ["COUNTS", "SPANS"]
    return [entry[:2] for entry in tables["SPANS"] + tables["COUNTS"]]


@pytest.mark.parametrize("layer, name", _traced_names())
def test_every_traced_name_resolves(layer, name):
    # "Class.attr" names a class member.
    target = importlib.import_module(f"logsurf.{layer}")
    for part in name.split("."):
        assert hasattr(target, part), f"logsurf.{layer}.{name} is gone"
        target = getattr(target, part)


def test_every_export_exists():
    assert len(set(logsurf.__all__)) == len(logsurf.__all__)
    assert [name for name in logsurf.__all__ if not hasattr(logsurf, name)] == []
