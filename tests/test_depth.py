"""Correctness at depth: the incremental paths of long runs against a cold route.

A run and its replay reach each state by a move: its block index, its
solution and the memos it reads all come from its parent's.  At every K-th
state of a depth-200 run and of its replay, a state of the same set built
cold on a fresh copy of the configuration, sharing no cache with either,
must decide the same.  The run's document must read back and rewrite
byte-identically, and a late mutation of it must be rejected at its step.
"""

from __future__ import annotations

import json
import random

import pytest

import helpers
from helpers import fresh
import logsurf.cli as cli
from logsurf import (
    CurveConfig,
    SurfaceState,
    decompose_morphism,
    generate_crepant_pair,
    minimize,
    verify_trace,
)
from logsurf.moves import lowest_blowdown, lowest_flop

DEPTH = 200
K = 10


def chain(rng: random.Random, r: int) -> CurveConfig:
    """A Hirzebruch–Jung chain of `r` rational curves of coefficient 0 and
    seeded self-intersections, mostly −2."""
    curves = [(i, 0, -rng.choice((2, 2, 2, 3, 4)), 0) for i in range(1, r + 1)]
    return CurveConfig.build(curves, [(i, [i, i + 1]) for i in range(1, r)])


def decisions(state: SurfaceState) -> tuple:
    """What a state decides: its classification, its discrepancies and its
    lowest passing flop and blow-down checks with their certificates."""
    flop, blowdown = lowest_flop(state), lowest_blowdown(state)
    return (
        state.classification,
        dict(state.crepant.discrepancies),
        None if flop is None else (flop.curve, flop.multiplicities),
        None if blowdown is None else (blowdown.curve, blowdown.order),
    )


def dump(doc: dict) -> str:
    """A trace document as `logsurf decompose --trace` writes it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# A late step of each run and the mutation it gets; together the runs cover
# both maps and three of `helpers.MAP_MUTATIONS`.
RUNS = {
    "corner": ("discrepancies_after", "inherited value"),
    "boundary_chain": ("discrepancies_before", "swap two values"),
    "chain": ("discrepancies_after", "drop a key"),
}


@pytest.mark.parametrize("kind", RUNS)
def test_every_kth_state_decides_as_a_cold_state(kind, made, tmp_path, capsys):
    if kind == "chain":
        config = chain(random.Random(DEPTH), DEPTH)
        trace = minimize(SurfaceState(config, ()))
    else:
        spec = generate_crepant_pair(getattr(helpers, kind)(), DEPTH, DEPTH)
        config = spec.config
        trace = decompose_morphism(spec)
    steps = len(trace.steps)
    assert steps >= DEPTH // 2
    assert verify_trace(config, trace.start, trace)
    # The run's states, then the replay's, each counted back from its last.
    assert len(made) == 2 * steps
    picked = made[steps - 1 :: -K] + made[: steps - 1 : -K]
    assert {state.config is config for state in picked} == {True, False}
    for state in picked:
        cold = SurfaceState(fresh(config), state.contracted, state.base)
        assert decisions(state) == decisions(cold), sorted(state.contracted)

    text = dump(cli.trace_to_json(config, trace))
    digest, parsed = cli.trace_from_json(json.loads(text))
    assert digest == cli.config_digest(config)
    assert dump(cli.trace_to_json(config, parsed)) == text

    field, mutation = RUNS[kind]
    index = steps - 3
    doc = json.loads(text)
    helpers.mutate_map(doc, config, index, field, mutation)
    which = "posterior" if field == "discrepancies_after" else "prior"
    failure = f"recorded {which} discrepancies do not match"
    result = verify_trace(config, trace.start, cli.trace_from_json(doc)[1])
    assert (bool(result), result.failure, result.step_index) == (False, failure, index)
    scenario = helpers.write_scenario(tmp_path / "scenario.json", config)
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(dump(doc), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["verify", scenario, "--trace", str(trace_path)]) == 2
    assert capsys.readouterr().err == f"verification failed at step {index}: {failure}\n"
