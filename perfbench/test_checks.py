"""Tests of the benchmark itself: its checks catch corrupted outputs, its
closed forms agree with a plain solver, its tracer reaches every name, and it
refuses to run without the program's sources.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import workloads
from logsurf.crepant import Classification, CrepantData, SurfaceState
from tracer import COUNTS, SPANS, Tracer

HERE = Path(__file__).resolve().parent


def _small(workload: str, moves: slice, states: slice) -> workloads.Inputs:
    inputs = workloads.build(workload, 0)
    return workloads.Inputs(inputs.moves[moves], inputs.states[states])


@pytest.fixture(scope="module")
def corpus() -> workloads.Inputs:
    # Pairs of depth 7 and 8: both have flops, the depth-7 one blow-downs too.
    return _small("corpus", slice(6, 8), slice(18, 24))


@pytest.fixture(scope="module")
def chains() -> workloads.Inputs:
    inputs = workloads.build("chains", 0)
    # The length-20 chain, minimised and classified, and a decorated chain.
    return workloads.Inputs(inputs.moves[:1], [inputs.states[0], inputs.states[3]])


def _failures(inputs: workloads.Inputs) -> workloads.Tally:
    return workloads.check_round(inputs, workloads.run_round(inputs))


def test_clean_round_passes(corpus, chains):
    for inputs in (corpus, chains):
        tally = _failures(inputs)
        assert (tally.attempted, tally.failed, tally.wrong) == (inputs.operations, 0, 0)
        assert tally.problems == []


def _doc_with(monkeypatch, corrupt) -> None:
    """Make the solve phase write `corrupt(doc)` as its trace document."""
    real = workloads.trace_to_json

    def lying(config, trace):
        doc = real(config, trace)
        corrupt(doc)
        return doc

    monkeypatch.setattr(workloads, "trace_to_json", lying)


def _shift_discrepancy(doc) -> None:
    values = doc["steps"][1]["discrepancies_after"]
    cid = next(iter(values))
    values[cid] = str(Fraction(values[cid]) + Fraction(1, 7))


def _swap_flops(doc) -> None:
    doc["steps"][0], doc["steps"][1] = doc["steps"][1], doc["steps"][0]


def _wrong_digest(doc) -> None:
    doc["scenario_digest"] = "0" * 64


def _halve_epsilon(doc) -> None:
    epsilon = doc["steps"][0]["epsilon"]
    epsilon["chosen"] = str(Fraction(epsilon["chosen"]) / 2)


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (_shift_discrepancy, ("discrepancies after",)),
        (_swap_flops, ("flop steps", "step kinds")),
        (_halve_epsilon, ("perturbation certificate",)),
        (_wrong_digest, ("digest",)),
    ],
)
def test_corrupted_trace_document_fails(monkeypatch, corpus, corrupt, named):
    _doc_with(monkeypatch, corrupt)
    rnd = workloads.run_round(corpus)
    tally = workloads.check_round(corpus, rnd)
    assert tally.failed == len(corpus.moves)
    # The program's verifier rejects it, and so do the benchmark's own checks.
    for move, text in zip(corpus.moves, rnd.traces):
        doc = json.loads(text)
        problems = checks.check_decomposition_doc(
            json.loads(move.scenario), move.source, move.target, doc
        )
        assert any(word in problem for problem in problems for word in named), problems


def _lying_state(monkeypatch, **overrides) -> None:
    """Classify with a SurfaceState whose named attributes are replaced."""
    props = {name: property(fn) for name, fn in overrides.items()}
    monkeypatch.setattr(workloads, "SurfaceState", type("Lying", (SurfaceState,), props))


def test_wrong_verdict_fails(monkeypatch, corpus):
    def verdict(state):
        true = SurfaceState.classification.func(state)
        return Classification.KLT if true != Classification.KLT else Classification.LOG_TERMINAL

    _lying_state(monkeypatch, classification=verdict)
    first = workloads.run_round(corpus)
    tally = workloads.check_round(corpus, first)
    assert tally.wrong == tally.failed == len(corpus.states)
    # A later round that repeats the wrong verdicts fails as the first did.
    later = workloads.check_round(corpus, workloads.run_round(corpus), (first, tally))
    assert later.wrong == later.failed == len(corpus.states)


def test_wrong_chain_discrepancy_fails(monkeypatch, chains):
    def crepant(state):
        data = SurfaceState.crepant.func(state)
        residual = dict(data.residual)
        residual[1] += Fraction(1, 1000)
        return CrepantData(residual, data.contracted)

    _lying_state(monkeypatch, crepant=crepant)
    inputs = dataclasses.replace(chains, moves=[])
    rnd = workloads.run_round(inputs)
    assert workloads.check_round(inputs, rnd).wrong == len(chains.states)
    # The continuant closed form alone catches it too.
    for item, (verdict, discrepancies, det) in zip(inputs.states, rnd.states):
        problems = checks.check_chain_state(*item.chain, verdict, discrepancies, det)
        assert any("continuant form" in problem for problem in problems), problems


def test_wrong_step_order_in_a_chain_fails(monkeypatch, chains):
    _doc_with(monkeypatch, _swap_flops)
    assert _failures(chains).failed == 1


def test_a_later_round_must_repeat_the_first(corpus):
    first = workloads.run_round(corpus)
    reference = (first, workloads.check_round(corpus, first))
    later = workloads.run_round(corpus)
    later.states[0] = ("NOT_LC",) + later.states[0][1:]
    tally = workloads.check_round(corpus, later, reference)
    assert (tally.failed, tally.wrong) == (1, 1)


def test_chain_closed_forms_agree_with_a_plain_solve():
    rng = random.Random(5)
    for _ in range(30):
        bs = [rng.choice((2, 2, 3, 4, 5)) for _ in range(rng.randint(1, 12))]
        left = rng.choice(workloads.COEFFICIENTS + (Fraction(0),))
        right = rng.choice(workloads.COEFFICIENTS + (Fraction(0), Fraction(1)))
        r = len(bs)
        gram = [[-bs[i] if i == j else int(abs(i - j) == 1) for j in range(r)] for i in range(r)]
        assert checks.det(gram) == (-1) ** r * checks.continuant(bs)
        # Residuals e solve gram·e = −K·C_i − (boundary coefficients meeting C_i).
        rhs = [-(b - 2) for b in bs]
        rhs[0] -= left
        rhs[-1] -= right
        residual = checks.solve(gram, rhs)
        assert checks.chain_discrepancies(bs, left, right) == [-e for e in residual]


def test_chain_check_needs_the_determinant_and_klt():
    bs, zero = (2, 3, 2), Fraction(0)
    discrepancies = dict(zip((1, 2, 3), checks.chain_discrepancies(bs)))
    det = Fraction(-checks.continuant(bs))
    assert checks.check_chain_state(bs, zero, zero, "KLT", discrepancies, det) == []
    assert checks.check_chain_state(bs, zero, zero, "KLT", discrepancies, -det)
    assert checks.check_chain_state(bs, zero, zero, "LOG_TERMINAL", discrepancies, det)


def test_corner_needs_a_smooth_image():
    # A (−2)-curve met twice by one coefficient-1 curve and once by another:
    # the images meet with intersection number 1, but at an A1 point.
    scenario = {
        "curves": [
            {"id": 1, "genus": 0, "self_intersection": -2, "coeff": "0"},
            {"id": 2, "genus": 0, "self_intersection": 0, "coeff": "1"},
            {"id": 3, "genus": 0, "self_intersection": 0, "coeff": "1"},
        ],
        "points": [
            {"id": 1, "incident": [1, 2]},
            {"id": 2, "incident": [1, 2]},
            {"id": 3, "incident": [1, 3]},
        ],
    }
    component = frozenset({1})
    assert not checks.is_corner(checks.Raw.of(scenario), component, component)


def test_tracer_rebinds_every_name():
    import logsurf

    modules = [m for n, m in sys.modules.items() if n.startswith("logsurf")] + [workloads]
    names = list(SPANS) + [(layer, name) for layer, name, _ in COUNTS]
    traced = [
        getattr(sys.modules[f"logsurf.{layer}"], name) for layer, name in names if "." not in name
    ]
    tracer = Tracer()
    tracer.install([workloads])
    try:
        for module in modules:
            for attr, value in vars(module).items():
                assert not any(value is fn for fn in traced), f"{module.__name__}.{attr}"
        state = SurfaceState(workloads.corner(), [1])
        with pytest.raises(logsurf.InvalidStateError):
            state.classification
    finally:
        tracer.uninstall()
    assert any(logsurf.decompose_morphism is fn for fn in traced)
    metrics = tracer.metrics()
    assert metrics["crepant.SurfaceState.created"] == 1
    assert metrics["surface.gram.calls"] == metrics["ratlin.is_negative_definite.calls"] == 1
    assert metrics["crepant.SurfaceState.classification.calls"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
