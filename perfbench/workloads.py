"""The benchmark's workloads: inputs made from a seed, one timed round, checks.

A round runs three phases over a workload's fixed inputs, each timed in
process CPU time with its checks outside the timed code:

* solve: `decompose_morphism` (or `minimize`), then `trace_to_json` and
  `json.dumps`, as `logsurf decompose --trace` / `minimize --trace` do;
* verify: what `logsurf verify` does: parse both documents, validate the
  configuration, match the digest, then `verify_trace`;
* classify: `SurfaceState(...).classification` and `.crepant.discrepancies`,
  plus the Gram `determinant` of each chain.

Each operation is timed on its own, and gets a fresh copy of its
configuration, so no round reuses what an earlier round cached on them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from logsurf.cli import (
    config_digest,
    config_from_json,
    config_to_json,
    trace_from_json,
    trace_to_json,
)
from logsurf.crepant import PointBase, SurfaceState
from logsurf.decompose import (
    MorphismSpec,
    decompose_morphism,
    generate_crepant_pair,
    minimize,
    verify_trace,
)
from logsurf.ratlin import determinant
from logsurf.surface import CurveConfig, gram, validate_config

import checks
from clock import Meter

WORKLOADS = ("corpus", "deep", "chains")

CORPUS_PAIRS = 48  # a multiple of 12, so every seed gets the same depth mix
CORPUS_STATES_PER_PAIR = 3
DEEP_TOWERS = (("corner", 30), ("boundary_chain", 32), ("corner", 34), ("boundary_chain", 36))
DEEP_STATE_TOWERS = 4  # towers of each template and depth that classify draws from
DEEP_STATES_PER_TOWER = 8
CHAIN_MINIMIZE_LENGTHS = (20, 40, 60)
CHAIN_DECORATED_LENGTHS = (20, 30, 40, 50, 60)
MINUS_TWO_SHARE = 0.6
COEFFICIENTS = tuple(
    sorted({Fraction(p, q) for q in range(2, 8) for p in range(1, q)})
)


def corner() -> CurveConfig:
    """Two coefficient-1 curves of self-intersection 0 crossing once."""
    return CurveConfig.build([(1, 0, 0, 1), (2, 0, 0, 1)], [(1, [1, 2])])


def boundary_chain() -> CurveConfig:
    """Two (−2)-curves crossing once, both of coefficient 1."""
    return CurveConfig.build([(1, 0, -2, 1), (2, 0, -2, 1)], [(1, [1, 2])])


TEMPLATES = {"corner": corner, "boundary_chain": boundary_chain}


def dump(doc: dict) -> str:
    """A document as `logsurf` writes it to a file."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class MoveInput:
    """Decompose source → target, or minimise over a point base when target is None."""

    scenario: str
    config: CurveConfig
    source: frozenset[int]
    target: frozenset[int] | None


@dataclass(frozen=True)
class StateInput:
    """A state to classify; `chain` is (b_1..b_r, left, right) for chain states."""

    scenario: str
    config: CurveConfig
    contracted: frozenset[int]
    chain: tuple[tuple[int, ...], Fraction, Fraction] | None = None


@dataclass
class Inputs:
    moves: list[MoveInput] = field(default_factory=list)
    states: list[StateInput] = field(default_factory=list)

    @property
    def operations(self) -> int:
        return len(self.moves) + len(self.states)


def _sub_states(inputs: Inputs, move: MoveInput, rng: random.Random, count: int) -> None:
    """`count` seeded subsets of the target set, of sizes spread evenly up to all of it."""
    ids = sorted(move.target)
    for i in range(1, count + 1):
        size = max(1, round(len(ids) * i / count))
        picked = frozenset(rng.sample(ids, size))
        inputs.states.append(StateInput(move.scenario, move.config, picked))


def _pair(template: str, depth: int, seed: int) -> MoveInput:
    spec = generate_crepant_pair(TEMPLATES[template](), depth, seed)
    scenario = dump(config_to_json(spec.config))
    return MoveInput(scenario, spec.config, spec.source_contracted, spec.target_contracted)


def chain_config(bs, left: Fraction | None = None, right: Fraction | None = None) -> CurveConfig:
    """Rational curves 1..r of self-intersection −b_i, coefficient 0, in a chain.

    With `left`/`right`, curves r+1 and r+2 (self-intersection −1) carry those
    coefficients and meet curve 1 and curve r once.
    """
    r = len(bs)
    curves = [(i + 1, 0, -b, 0) for i, b in enumerate(bs)]
    points = [(i, [i, i + 1]) for i in range(1, r)]
    if left is not None:
        curves += [(r + 1, 0, -1, left), (r + 2, 0, -1, right)]
        points += [(r, [r + 1, 1]), (r + 1, [r + 2, r])]
    return CurveConfig.build(curves, points)


def chain_selves(rng: random.Random, r: int) -> tuple[int, ...]:
    """A fixed share of (−2)-curves, the rest −3…−5, in seeded order."""
    minus_two = round(MINUS_TWO_SHARE * r)
    bs = [2] * minus_two + [rng.choice((3, 4, 5)) for _ in range(r - minus_two)]
    rng.shuffle(bs)
    return tuple(bs)


def build(workload: str, seed: int) -> Inputs:
    """The workload's inputs and their scenario documents; the same seed gives the same inputs."""
    inputs = Inputs()
    if workload == "corpus":
        for k in range(CORPUS_PAIRS):
            s = seed * CORPUS_PAIRS + k
            move = _pair("corner" if s % 2 == 0 else "boundary_chain", 1 + s % 12, s)
            inputs.moves.append(move)
            _sub_states(inputs, move, random.Random(f"corpus:{s}"), CORPUS_STATES_PER_PAIR)
    elif workload == "deep":
        towers = len(DEEP_TOWERS) * DEEP_STATE_TOWERS
        for t in range(towers):
            template, depth = DEEP_TOWERS[t % len(DEEP_TOWERS)]
            s = seed * towers + t
            move = _pair(template, depth, s)
            if t < len(DEEP_TOWERS):
                inputs.moves.append(move)
            _sub_states(inputs, move, random.Random(f"deep:{s}"), DEEP_STATES_PER_TOWER)
    elif workload == "chains":
        rng = random.Random(f"chains:{seed}")
        for r in CHAIN_MINIMIZE_LENGTHS:
            bs = chain_selves(rng, r)
            config = chain_config(bs)
            scenario = dump(config_to_json(config))
            inputs.moves.append(MoveInput(scenario, config, frozenset(), None))
            zero = Fraction(0)
            inputs.states.append(
                StateInput(scenario, config, frozenset(range(1, r + 1)), (bs, zero, zero))
            )
        for r in CHAIN_DECORATED_LENGTHS:
            bs = chain_selves(rng, r)
            left = rng.choice(COEFFICIENTS)
            right = rng.choice(COEFFICIENTS + (Fraction(1),))
            config = chain_config(bs, left, right)
            scenario = dump(config_to_json(config))
            inputs.states.append(
                StateInput(scenario, config, frozenset(range(1, r + 1)), (bs, left, right))
            )
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return inputs


def _fresh(config: CurveConfig) -> CurveConfig:
    """An equal configuration with nothing cached on it."""
    return CurveConfig(config.curves, config.points, config.picard_rank_of_model)


@dataclass
class Round:
    """One pass over the inputs: every output and each operation's phase times.

    `solve`, `verify` and `classify` hold each operation's CPU seconds at the
    reference speed (see clock.py); `raw_s` the phases' unscaled sums.  Each
    output is None where its operation raised; `failures` maps the
    operation's index (moves first, then states) to what went wrong.
    """

    traces: list[str | None]
    states: list[tuple | None]
    solve: list[float]
    verify: list[float]
    classify: list[float]
    failures: dict[int, str] = field(default_factory=dict)
    raw_s: dict[str, float] = field(default_factory=dict)


def _solve(move: MoveInput, config: CurveConfig) -> str:
    if move.target is None:
        trace = minimize(SurfaceState(config, move.source, PointBase()))
    else:
        trace = decompose_morphism(MorphismSpec(config, move.source, move.target))
    return dump(trace_to_json(config, trace))


def _verify(move: MoveInput, trace_text: str) -> str | None:
    """None when `logsurf verify` would accept the trace, else why not."""
    config, _, _ = config_from_json(json.loads(move.scenario))
    if validate_config(config):
        return "invalid configuration"
    digest, trace = trace_from_json(json.loads(trace_text))
    if digest != config_digest(config):
        return "trace digest does not match the scenario"
    result = verify_trace(config, trace.start, trace)
    return None if result else f"step {result.step_index}: {result.failure}"


def _classify(item: StateInput, config: CurveConfig) -> tuple:
    state = SurfaceState(config, item.contracted)
    verdict = state.classification.name
    discrepancies = state.crepant.discrepancies
    det = None
    if item.chain is not None:
        det = determinant(gram(config, sorted(item.contracted)))
    return verdict, discrepancies, det


def _attempt(rnd: Round, index: int, work: Callable, *args):
    """Run `work(*args)`; an exception fails operation `index` and the round goes on."""
    try:
        return work(*args)
    except Exception as exc:
        rnd.failures[index] = f"{type(exc).__name__}: {exc}"
        return None


def run_round(inputs: Inputs, probe: bool = True) -> Round:
    """One timed pass; `probe` samples the machine's speed during operations (clock.py)."""
    moves, states = inputs.moves, inputs.states
    rnd = Round(
        [None] * len(moves), [None] * len(states),
        [0.0] * len(moves), [0.0] * len(moves), [0.0] * len(states),
    )
    with Meter(probe) as meter:
        for i, move in enumerate(moves):
            rnd.traces[i] = meter.time(
                rnd.solve, i, _attempt, rnd, i, _solve, move, _fresh(move.config)
            )
        for i, move in enumerate(moves):
            if i not in rnd.failures:
                problem = meter.time(
                    rnd.verify, i, _attempt, rnd, i, _verify, move, rnd.traces[i]
                )
                if problem:
                    rnd.failures[i] = "verify: " + problem
        for j, item in enumerate(states):
            rnd.states[j] = meter.time(
                rnd.classify, j, _attempt, rnd, len(moves) + j, _classify, item,
                _fresh(item.config),
            )
        rnd.raw_s = {"solve": sum(rnd.solve), "verify": sum(rnd.verify), "classify": sum(rnd.classify)}
        meter.settle()
    return rnd


def _check_move(move: MoveInput, doc_text: str) -> list[str]:
    scenario = json.loads(move.scenario)
    doc = json.loads(doc_text)
    config, _, _ = config_from_json(scenario)
    if dump(trace_to_json(config, trace_from_json(doc)[1])) != doc_text:
        return ["trace document does not round-trip unchanged"]
    if move.target is None:
        return checks.check_minimize_doc(scenario, doc)
    return checks.check_decomposition_doc(scenario, move.source, move.target, doc)


def _check_state(item: StateInput, output: tuple) -> list[str]:
    verdict, discrepancies, det = output
    problems = checks.check_state(json.loads(item.scenario), item.contracted, verdict, discrepancies)
    if item.chain is not None:
        bs, left, right = item.chain
        problems += checks.check_chain_state(bs, left, right, verdict, discrepancies, det)
    return problems


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    bad: set[int] = field(default_factory=set)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.problems += other.problems


def check_round(
    inputs: Inputs, rnd: Round, reference: tuple[Round, Tally] | None = None
) -> Tally:
    """Count attempted and failed operations of a round.

    Without a reference every output gets the independent checks.  With one
    (an earlier round and its tally), each output must equal the earlier
    round's and inherits its verdict.  An operation fails when it raised,
    when verification rejected its trace, or when its output is wrong; a
    wrong output also counts in `wrong`.  `bad` lists the failed indices.
    """
    tally = Tally(attempted=inputs.operations)
    items = inputs.moves + inputs.states
    outputs = rnd.traces + rnd.states
    if reference is not None:
        ref_outputs = reference[0].traces + reference[0].states
    for index, (item, output) in enumerate(zip(items, outputs)):
        if index in rnd.failures:
            tally.failed += 1
            tally.bad.add(index)
            tally.problems.append(f"operation {index}: {rnd.failures[index]}")
            continue
        if reference is not None:
            if output != ref_outputs[index]:
                problems = ["output differs from the first round's"]
            elif index in reference[1].bad:
                problems = ["output repeats the first round's failed one"]
            else:
                problems = []
        elif isinstance(item, MoveInput):
            problems = _check_move(item, output)
        else:
            problems = _check_state(item, output)
        if problems:
            tally.failed += 1
            tally.wrong += 1
            tally.bad.add(index)
            tally.problems.append(f"operation {index}: " + "; ".join(problems[:3]))
    return tally
