"""End-to-end drivers over the elementary moves.

`decompose_morphism` factors a log crepant contraction into flop-type
contractions followed by log blow-downs, recording a re-verifiable trace.
`minimize` drives a state over a point base to one admitting no further
move.  Both evaluate a move's predicate once per step and apply the passed
check it returns.  `verify_trace` independently replays a trace, re-checking
every predicate and certificate against the trace's base.
`generate_crepant_pair` manufactures valid inputs by running the
factorization backwards: iterated crepant blow-ups, each the rewrite
`surface.blow_up` applies (`surface.blow_up_tables`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .crepant import (
    Base,
    Classification,
    CrepantData,
    PointBase,
    SurfaceState,
    TargetBase,
    is_log_crepant,
)
from .errors import (
    InvalidStateError,
    LogSurfaceError,
    NoAdmissibleTargetError,
    NotCrepantError,
    NotLogTerminalError,
    NotNefError,
    NotNestedError,
    StuckInPhase2Error,
    TheoremViolationError,
)
from .moves import (
    BlowdownCheck,
    FlopCheck,
    MoveKind,
    MoveRecord,
    epsilon_bound,
    is_flop_minimal,
    is_log_blowdown,
    is_log_flopping,
    contract_blowdown,
    contract_flop,
    is_nef_on_marked,
    _require_log_terminal,
    lowest_flop,
    lowest_passing,
)
from .surface import (
    BlowUpTarget,
    CrossingPoint,
    CurveConfig,
    at_point,
    blow_up_tables,
    free_point_on,
    require_valid,
)


@dataclass(frozen=True)
class MorphismSpec:
    """A log crepant contraction, given by nested contracted sets S1 ⊆ S2."""

    config: CurveConfig
    source_contracted: frozenset[int]
    target_contracted: frozenset[int]

    def __init__(
        self,
        config: CurveConfig,
        source_contracted: Iterable[int],
        target_contracted: Iterable[int],
    ):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "source_contracted", frozenset(source_contracted))
        object.__setattr__(self, "target_contracted", frozenset(target_contracted))


@dataclass(frozen=True)
class DecompositionTrace:
    """An ordered move list splitting into a flop phase and a blow-down phase.

    Steps before `flop_minimal_index` are flop-type contractions; the state
    reached there admits no further flop over `base`; the remaining steps are
    log blow-downs.  Replaying from `start` contracts exactly `end`.  A
    decomposition runs over the target base of `end`; a minimization runs
    over a point base and ends where no move applies.
    """

    steps: tuple[MoveRecord, ...]
    flop_minimal_index: int
    start: frozenset[int]
    end: frozenset[int]
    base: Base


def _apply(check: FlopCheck | BlowdownCheck) -> tuple[SurfaceState, MoveRecord]:
    """Apply the move a passed check certifies and record it."""
    if isinstance(check, FlopCheck):
        kind, new_state = MoveKind.FLOP, contract_flop(check)
        epsilon, order = epsilon_bound(check), None
    else:
        kind, new_state = MoveKind.BLOWDOWN, contract_blowdown(check)
        epsilon, order = None, check.order
    record = MoveRecord(
        kind,
        check.curve,
        check.state.crepant.discrepancies,
        new_state.crepant.discrepancies,
        epsilon=epsilon,
        order=order,
    )
    return new_state, record


def _next_move(state: SurfaceState) -> FlopCheck | BlowdownCheck | None:
    """The lowest-id flop if any passes, else the lowest-id blow-down, else None."""
    return lowest_flop(state) or lowest_passing(state, is_log_blowdown)


def decompose_morphism(spec: MorphismSpec) -> DecompositionTrace:
    """Factor the contraction into flops followed by log blow-downs.

    Phase 1 contracts, lowest id first, the remaining curves of coefficient
    below 1; each must pass the flop predicate, and a failure is a library
    bug, not an input property.  The intermediate state is checked to admit
    no further flop.  Phase 2 contracts the remaining coefficient-1 curves,
    each time the lowest id passing the blow-down predicate; running out of
    candidates early raises ``StuckInPhase2Error``, naming each remaining
    curve's failed blow-down test.
    """
    s1 = spec.source_contracted
    s2 = spec.target_contracted
    if not s1 <= s2:
        raise NotNestedError(f"{sorted(s1)} is not a subset of {sorted(s2)}")
    base = TargetBase(s2)
    state = SurfaceState(spec.config, s1, base)
    end_state = SurfaceState(spec.config, s2, base)
    for endpoint in (state, end_state):
        if endpoint.classification < Classification.LOG_TERMINAL:
            raise NotLogTerminalError(
                f"state contracting {sorted(endpoint.contracted)} classifies as "
                f"{endpoint.classification.name}"
            )
    if not is_log_crepant(spec.config, s1, s2):
        raise NotCrepantError(
            f"contracting {sorted(s2)} does not factor log-crepantly through "
            f"{sorted(s1)}"
        )

    steps: list[MoveRecord] = []
    # Each flop contracts the head of this list, so one sort serves phase 1.
    for cid in sorted(
        cid for cid in s2 - s1 if spec.config.curve(cid).boundary_coeff < 1
    ):
        check = is_log_flopping(state, cid)
        if not check:
            raise TheoremViolationError(f"phase 1: {check.failure}")
        state, record = _apply(check)
        steps.append(record)
    flop_minimal_index = len(steps)
    try:
        minimal = is_flop_minimal(state)
    except (NotLogTerminalError, NotNefError) as exc:
        raise TheoremViolationError(
            f"state after phase 1 lost its standing: {exc}"
        ) from exc
    if not minimal:
        raise TheoremViolationError(
            "state after phase 1 still admits a flop-type contraction"
        )
    while state.contracted != s2:
        check = lowest_passing(state, is_log_blowdown)
        if check is None:
            reasons = "; ".join(
                f"curve {cid}: {is_log_blowdown(state, cid).reason}"
                for cid in sorted(s2 - state.contracted)
            )
            raise StuckInPhase2Error(
                f"at contracted set {sorted(state.contracted)}, no curve in "
                f"{sorted(s2 - state.contracted)} admits a log blow-down ({reasons})"
            )
        state, record = _apply(check)
        steps.append(record)
    return DecompositionTrace(tuple(steps), flop_minimal_index, s1, s2, base)


def minimize(state: SurfaceState) -> DecompositionTrace:
    """Contract moves until none applies, over a point base.

    Each round applies the lowest-id flop-type contraction if any exists,
    otherwise the lowest-id log blow-down; the loop stops when neither does,
    which is exactly the no-further-move certificate of minimality.  Nef-ness
    is asserted after every step.
    """
    if not isinstance(state.base, PointBase):
        raise InvalidStateError("minimization runs over a point base only")
    _require_log_terminal(state)
    if not is_nef_on_marked(state):
        raise NotNefError("state is not nef on its marked curves")

    start = state.contracted
    budget = len(state.uncontracted)
    steps: list[MoveRecord] = []
    flop_minimal_index = 0
    while check := _next_move(state):
        if isinstance(check, FlopCheck):
            if flop_minimal_index < len(steps):
                raise TheoremViolationError(
                    "a flop-type contraction became available again after a log blow-down"
                )
            flop_minimal_index += 1
        state, record = _apply(check)
        steps.append(record)
        if len(steps) > budget:
            raise TheoremViolationError("minimization exceeded its step budget")
        if not is_nef_on_marked(state):
            raise TheoremViolationError(
                f"step {len(steps)} ({record.kind.value} of curve {record.curve}) "
                "broke nef-ness"
            )
    return DecompositionTrace(
        tuple(steps), flop_minimal_index, start, state.contracted, state.base
    )


def _matches(recorded: Mapping[int, Fraction], data: CrepantData) -> bool:
    """Whether a recorded discrepancy map equals the discrepancies of the
    replayed solution `data`, with the verdict of `recorded !=
    data.discrepancies`, without building that map or calling
    `Fraction.__eq__`.

    A replayed discrepancy is −N/Δ over the solution's common denominator
    and integer numerators (`CrepantData.scaled`); a recorded `Fraction` or
    `int` a/b, b > 0, equals it exactly when a·Δ = −N·b.  A recorded map
    other than a dict or a read-only view of one, or one holding any other
    value, is compared by `!=` as before.  A comparison that raises counts
    as a mismatch, so the check never raises.
    """
    try:
        if type(recorded) is dict or type(recorded) is MappingProxyType:
            contracted = data.contracted
            if len(recorded) != len(contracted):
                return False
            delta, numerators = data.scaled
            for cid, value in recorded.items():
                kind = type(value)
                if kind is Fraction:
                    a, b = value.numerator, value.denominator
                elif kind is int:
                    a, b = value, 1
                else:
                    break
                if cid not in contracted or a * delta != -numerators[cid] * b:
                    return False
            else:
                return True
        return not recorded != data.discrepancies
    except Exception:
        return False


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    failure: str | None = None
    step_index: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_trace(
    config: CurveConfig, start: Iterable[int], trace: DecompositionTrace
) -> VerifyResult:
    """Independently replay a trace, re-checking every claim it makes.

    Checks phase ordering against the split index, re-runs the full predicate
    for each step, recomputes and compares each certificate exactly, checks
    minimality at the split point over the trace's base, and confirms the
    end set.  Over a target base the end must be the target; over a point
    base the final state must admit no further move.  Never raises: any
    replay failure is reported in the result.  The replay runs on a fresh
    copy of `config`, so it neither reads nor fills the memo of the run that
    produced the trace.  Recorded discrepancies are compared on integers
    (`_matches`).
    """
    config = CurveConfig(config.curves, config.points, config.picard_rank_of_model)
    start_set = frozenset(start)
    if start_set != trace.start:
        return VerifyResult(
            False,
            f"trace starts at {sorted(trace.start)}, not {sorted(start_set)}",
        )
    if not 0 <= trace.flop_minimal_index <= len(trace.steps):
        return VerifyResult(
            False, f"split index {trace.flop_minimal_index} is out of range"
        )
    base = trace.base
    if isinstance(base, TargetBase) and base.contracted_on_target != trace.end:
        return VerifyResult(
            False,
            f"trace ends at {sorted(trace.end)}, not at its target "
            f"{sorted(base.contracted_on_target)}",
        )
    try:
        state = split = SurfaceState(config, start_set, base)
        # The record last found equal to `state`'s discrepancies: a trace
        # usually holds one object as a step's "after" and the next "before".
        matched = None
        for index, step in enumerate(trace.steps):
            expected_kind = (
                MoveKind.FLOP
                if index < trace.flop_minimal_index
                else MoveKind.BLOWDOWN
            )
            if step.kind is not expected_kind:
                return VerifyResult(
                    False,
                    f"step kind {step.kind.value} on the wrong side of the split",
                    index,
                )
            before = step.discrepancies_before
            if before is not matched and not _matches(before, state.crepant):
                return VerifyResult(
                    False, "recorded prior discrepancies do not match", index
                )
            flop = step.kind is MoveKind.FLOP
            check = (is_log_flopping if flop else is_log_blowdown)(state, step.curve)
            if not check:
                return VerifyResult(False, check.failure, index)
            if flop and step.epsilon != epsilon_bound(check):
                return VerifyResult(
                    False, "recorded perturbation bound does not match", index
                )
            if not flop and (step.order is None or tuple(step.order) != check.order):
                return VerifyResult(
                    False, "recorded contraction order does not match", index
                )
            state = state.successor(step.curve)
            matched = step.discrepancies_after
            if not _matches(matched, state.crepant):
                return VerifyResult(
                    False, "recorded posterior discrepancies do not match", index
                )
            if index + 1 == trace.flop_minimal_index:
                split = state
        if not is_flop_minimal(split):
            return VerifyResult(
                False,
                "the state at the split still admits a flop-type contraction",
                trace.flop_minimal_index,
            )
        if isinstance(base, PointBase) and _next_move(state):
            return VerifyResult(
                False, "the final state still admits a move", len(trace.steps)
            )
    except (LogSurfaceError, ValueError) as exc:
        return VerifyResult(False, f"replay error: {exc}")
    if state.contracted != trace.end:
        return VerifyResult(
            False,
            f"replay ends at {sorted(state.contracted)}, trace claims {sorted(trace.end)}",
        )
    return VerifyResult(True)


def generate_crepant_pair(
    template: CurveConfig, depth: int, seed: int
) -> MorphismSpec:
    """Build a valid input pair by `depth` seeded crepant blow-ups.

    Admissible centres keep the blow-up crepant by construction: a crossing
    point whose incident coefficients sum to at least 1 (the new curve gets
    the sum minus 1) or a fresh point on a coefficient-1 curve (the new curve
    gets 0).  The pair contracts nothing on the source and all the new curves
    on the target.

    Each step applies `surface.blow_up_tables` to running tables of curves
    and points by id, then admits the new points as centres.  Every step
    adds a point with the largest id, so the next point id stays one above
    the largest, as `blow_up` takes it.  One configuration is built at the
    end, so a tower of depth d costs O(d).
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    require_valid(template)
    rng = random.Random(seed)
    curves = {c.id: c for c in template.curves}
    points = {p.id: p for p in template.points}
    next_cid = max(curves, default=0) + 1
    next_pid = max(points, default=0) + 1
    # The admissible centres, kept in the order a full rescan would list
    # them: crossing points by id, then coefficient-1 curves in curve order.
    # A blow-up removes at most its centre and appends its new points and
    # curve with the largest ids, so each step only appends.
    at_points: dict[int, tuple[BlowUpTarget, Fraction]] = {}

    def admit(point: CrossingPoint) -> None:
        if len(point.incident) == 2:
            a, b = point.incident
            total = curves[a].boundary_coeff + curves[b].boundary_coeff
            if total >= 1:
                at_points[point.id] = (at_point(point.id), total - 1)

    for p in sorted(points.values(), key=lambda p: p.id):
        admit(p)
    on_curves: list[tuple[BlowUpTarget, Fraction | int]] = [
        (free_point_on(c.id), 0) for c in curves.values() if c.boundary_coeff == 1
    ]
    new_ids: list[int] = []
    for _ in range(depth):
        if not at_points and not on_curves:
            raise NoAdmissibleTargetError(
                "the configuration offers no crepant blow-up centre"
            )
        target, new_coeff = rng.choice([*at_points.values(), *on_curves])
        if target.kind == "point":
            del at_points[target.ref]
        coeff = Fraction(new_coeff)
        new_points = blow_up_tables(curves, points, target, coeff, next_cid, next_pid)
        next_pid += len(new_points)
        for point in new_points:
            admit(point)
        if coeff == 1:
            on_curves.append((free_point_on(next_cid), 0))
        new_ids.append(next_cid)
        next_cid += 1
    rank = template.picard_rank_of_model
    config = CurveConfig(
        tuple(curves.values()),
        tuple(points.values()),
        None if rank is None else rank + depth,
    )
    return MorphismSpec(config, frozenset(), frozenset(new_ids))
