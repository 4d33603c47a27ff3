"""The two elementary contraction moves and the predicates guarding them.

A *flop-type contraction* removes a curve of log degree zero and negative
image self-intersection that stays clear of every non-klt centre; it is
crepant and keeps the pair log terminal.  A *log blow-down* removes a
coefficient-1 rational curve whose image is a (−1)-curve joining two boundary
branches through a smooth point, undoing a corner blow-up.

The flop predicate reports the first requirement that fails, cheapest
first: the curve must be exceptional over the base, of log degree 0 and of
coefficient below 1 (a coefficient-1 curve is itself a non-klt centre,
`IsDivisorialCenter`); only then are the multiplicities λ solved for the
image self-intersection, and last the curve is tested against the other
non-klt centres.

Each predicate reads only the curve's neighbourhood: the contracted
components a curve meets are found through its crossings and the state's
curve → block index (`crepant.SurfaceState`), which a successor builds
from its parent's when it is made, so a step of a run or a replay does not
scan the whole contracted set or configuration.

The predicates and `epsilon_bound` decide on integers: a log degree, an
image self-intersection or a multiplicity is an exact rational whose
denominator is positive, so its sign is its numerator's, and the
perturbation bound is taken over the residuals' common denominator and
numerators (`crepant.SolutionFacts`) and minimised by integer
cross-multiplication.  Only the values a caller receives are `Fraction`s.

A predicate returns a check: the state and curve it was made for and, on
success, the evidence found — a flop's multiplicities λ, a blow-down's local
contraction order.  The check is the move's certificate: `epsilon_bound`,
`contract_flop` and `contract_blowdown` take it instead of re-running the
predicate, and raise the move's error when it failed.  Both contractions
return fresh states and assert their own postconditions: a failed assertion
is a bug in the library, never a property of valid input, and raises
``TheoremViolationError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Callable, ClassVar, Mapping

from .crepant import (
    Classification,
    SurfaceState,
    TargetBase,
    correction_multiplicities,
    image_self_intersection,
    is_log_crepant,
    log_degree,
)
from .errors import (
    InvalidStateError,
    LogSurfaceError,
    NotABlowdownError,
    NotFloppingError,
    NotLogTerminalError,
    NotNefError,
    TheoremViolationError,
)
from .surface import (
    Block,
    LocalBlowdownModel,
    corner_failure,
    require_unimodular,
    run_contraction,
)


@dataclass(frozen=True)
class EpsilonChoice:
    """A witness interval for the perturbation argument.

    ``supremum`` is the least upper bound of admissible perturbations of the
    flopping curve's coefficient (``None`` for unbounded); ``chosen`` is the
    reproducible representative used by certificates — half the supremum, or
    1/2 when unbounded.
    """

    supremum: Fraction | None
    chosen: Fraction


class MoveKind(Enum):
    FLOP = "flop"
    BLOWDOWN = "blowdown"


@dataclass(frozen=True)
class MoveRecord:
    """One applied move plus the certificate needed to re-verify it.

    A run records its states' read-only discrepancy mappings themselves,
    shared with the states' crepant data; a parsed trace holds dicts.
    """

    kind: MoveKind
    curve: int
    discrepancies_before: Mapping[int, Fraction]
    discrepancies_after: Mapping[int, Fraction]
    epsilon: EpsilonChoice | None = None
    order: tuple[int, ...] | None = None


@dataclass(frozen=True)
class _Check:
    """A predicate's verdict on contracting `curve` from `state`."""

    error: ClassVar[type[LogSurfaceError]]
    noun: ClassVar[str]

    state: SurfaceState = field(repr=False)
    curve: int
    ok: bool
    reason: str | None
    detail: str | None

    def __bool__(self) -> bool:
        return self.ok

    @property
    def failure(self) -> str:
        return f"curve {self.curve} is not {self.noun}: {self.detail or self.reason}"

    def require(self) -> None:
        """Raise the move's error unless the check passed."""
        if not self.ok:
            raise self.error(self.failure)


@dataclass(frozen=True)
class FlopCheck(_Check):
    """Verdict plus, on success, the multiplicities λ_j of the contracted
    curves in the pullback of the curve's image."""

    error = NotFloppingError
    noun = "of flop type"
    multiplicities: dict[int, Fraction] | None = field(repr=False)


@dataclass(frozen=True)
class BlowdownCheck(_Check):
    """Verdict plus, on success, the stepwise local contraction order and the
    local models just before and just after the final contraction."""

    error = NotABlowdownError
    noun = "a log blow-down"
    order: tuple[int, ...] = ()
    local_before: LocalBlowdownModel | None = field(default=None, repr=False)
    local_after: LocalBlowdownModel | None = field(default=None, repr=False)


def _require_uncontracted(state: SurfaceState, cid: int) -> None:
    state._checked
    state.config.curve(cid)
    if cid in state.contracted:
        raise InvalidStateError(f"curve {cid} is already contracted")


def _require_log_terminal(state: SurfaceState) -> None:
    if state.classification < Classification.LOG_TERMINAL:
        raise NotLogTerminalError(
            f"state classifies as {state.classification.name}; log terminality is required"
        )


def _survives_on_target(state: SurfaceState, cid: int) -> bool:
    return isinstance(state.base, TargetBase) and cid not in state.base.contracted_on_target


def is_log_flopping(state: SurfaceState, cid: int) -> FlopCheck:
    """Test whether contracting `cid` is a flop-type divisorial contraction.

    Requires: the curve is exceptional over the base, its log degree
    vanishes, its own coefficient is below 1 (a coefficient-1 curve is a
    divisorial non-klt centre), its image self-intersection is negative,
    and it avoids every other non-klt centre.  The first requirement that
    fails, in this order, is the reason reported.

    The centre test reads only the contracted components the curve meets,
    found through the state's block index, and reports the one of least id
    holding a residual-1 curve: the first centre the curve meets in the
    order of `crepant.lc_centers`.  No node centre can come first: a node
    centre's two curves have residual 1, and an uncontracted curve's
    residual is its coefficient, which is below 1 here.
    """
    _require_uncontracted(state, cid)
    _require_log_terminal(state)
    fail = partial(FlopCheck, state, cid, False, multiplicities=None)
    if _survives_on_target(state, cid):
        return fail("NotExceptionalOverBase", f"curve {cid} survives on the target model")
    degree = log_degree(state, cid)
    if degree.numerator != 0:
        return fail("NonzeroLogDegree", f"log degree is {degree}, not 0")
    if state.config.curve(cid).boundary_coeff == 1:
        return fail("IsDivisorialCenter", f"curve {cid} has coefficient 1")
    lam = correction_multiplicities(state, cid)
    image_self = image_self_intersection(state.config, cid, lam)
    if image_self.numerator >= 0:
        return fail("ImageNotNegative", f"image self-intersection is {image_self} ≥ 0")
    ones = state.crepant.ones
    images = [order for order, _ in state._blocks_meeting(cid) if not ones.isdisjoint(order)]
    if images:
        return fail(
            "MeetsComponentImage",
            f"curve {cid} meets contracted component {sorted(min(images, key=min))} "
            "whose image is a non-klt point",
        )
    return FlopCheck(state, cid, True, None, None, lam)


def epsilon_bound(check: FlopCheck) -> EpsilonChoice:
    """The admissible perturbation interval certified by a passed flop check.

    Raising the curve's coefficient by any ε below the supremum keeps every
    residual at most 1 (hence the pair log terminal): the binding constraints
    are the coefficient cap 1 − d and, for each contracted curve picked up by
    the image pullback with multiplicity λ > 0, the headroom (1 − e)/λ.  With
    the solution's common denominator Δ and numerator N = Δ·e
    (`crepant.SolutionFacts`) and λ = a/b, that is (Δ − N)·b / (Δ·a), both
    integers.  λ > 0 is read off a; the least bound is kept as an integer
    pair p/q with q > 0 and replaced when (Δ − N)·b·q < p·Δ·a.  The two
    values returned are the only `Fraction`s built.
    """
    check.require()
    state = check.state
    coeff = state.config.curve(check.curve).boundary_coeff
    q = coeff.denominator
    p = q - coeff.numerator
    delta, numerators = state.crepant.scaled
    for j, lam in check.multiplicities.items():
        a = lam.numerator
        if a > 0:
            num = (delta - numerators[j]) * lam.denominator
            den = delta * a
            if num * q < p * den:
                p, q = num, den
    return EpsilonChoice(Fraction(p, q), Fraction(p, 2 * q))


@dataclass(frozen=True)
class PicardRank:
    """A rank with its frame of reference.

    mode "relative-to-target": curves still to contract to reach the target.
    mode "of-model-over-point": Picard number of the current model itself.
    mode "deficit-from-master-model": curves contracted so far, reported when
    the master model's Picard number is unknown.
    """

    value: int
    mode: str

    def step_delta(self) -> int:
        """Expected change per single contraction in this mode."""
        return 1 if self.mode == "deficit-from-master-model" else -1


def relative_picard_rank(state: SurfaceState) -> PicardRank:
    state._checked
    if isinstance(state.base, TargetBase):
        return PicardRank(
            len(state.base.contracted_on_target - state.contracted),
            "relative-to-target",
        )
    rank = state.config.picard_rank_of_model
    if rank is not None:
        return PicardRank(rank - len(state.contracted), "of-model-over-point")
    return PicardRank(len(state.contracted), "deficit-from-master-model")


@dataclass(frozen=True)
class NefReport:
    """Nef verdict over the curves visible to the base.

    `complete` is False for a point base, where only marked curves can be
    tested and unmarked curves of the underlying surface stay out of reach.
    """

    ok: bool
    complete: bool
    failing: tuple[tuple[int, Fraction], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _in_scope(state: SurfaceState) -> list[int]:
    """The uncontracted curves the base makes relevant, by id: those still to
    contract over a target base, every one over a point base."""
    state._checked
    if isinstance(state.base, TargetBase):
        return sorted(state.base.contracted_on_target - state.contracted)
    return sorted(state.uncontracted)


def is_nef_on_marked(state: SurfaceState) -> NefReport:
    """Check log degree ≥ 0 on every curve the base makes relevant.

    Over a target base this tests exactly the curves still to be contracted
    (a complete relative test); over a point base it tests every marked
    uncontracted curve, which is only as complete as the marking.
    """
    failing = tuple(
        (cid, degree)
        for cid in _in_scope(state)
        if (degree := log_degree(state, cid)).numerator < 0
    )
    return NefReport(not failing, isinstance(state.base, TargetBase), failing)


def lowest_passing(
    state: SurfaceState, predicate: Callable[[SurfaceState, int], _Check]
) -> _Check | None:
    """The passed check of the lowest-id curve in the base's scope, or None.

    Curves that survive on a target base are never candidates: neither move
    may contract them.
    """
    for cid in _in_scope(state):
        check = predicate(state, cid)
        if check:
            return check
    return None


def lowest_flop(state: SurfaceState) -> FlopCheck | None:
    """`lowest_passing(state, is_log_flopping)`, skipping every curve whose
    log degree is already known to be non-zero.

    The degrees live in the table of the state's residual mapping, which a
    run shares from state to state, so a curve rejected for its log degree
    (`NonzeroLogDegree`) at one state is skipped at every later one without
    building a check.  `is_log_flopping` first requires log terminality;
    that is required here before any curve is skipped, so the same
    exceptions are raised as by testing every curve.
    """
    scope = _in_scope(state)
    if scope:
        _require_log_terminal(state)
        degrees = state.crepant.facts.degrees
        for cid in scope:
            degree = degrees.get(cid)
            if degree is None or degree.numerator == 0:
                check = is_log_flopping(state, cid)
                if check:
                    return check
    return None


def is_flop_minimal(state: SurfaceState) -> bool:
    """True when no curve left to contract admits a flop-type contraction."""
    _require_log_terminal(state)
    if not is_nef_on_marked(state):
        raise NotNefError("state is not nef on the tested curves")
    return lowest_flop(state) is None


def _contract(check: FlopCheck | BlowdownCheck, move: str) -> SurfaceState:
    """Contract a checked curve and assert the postconditions common to both
    moves; failures signal library bugs."""
    old, cid = check.state, check.curve
    try:
        new = old.successor(cid)
    except LogSurfaceError as exc:
        raise TheoremViolationError(
            f"{move} of curve {cid} produced an invalid state: {exc}"
        ) from exc
    if new.classification < Classification.LOG_TERMINAL:
        raise TheoremViolationError(
            f"{move} of curve {cid} left a {new.classification.name} state"
        )
    if not is_log_crepant(old.config, old.contracted, new.contracted):
        raise TheoremViolationError(f"{move} of curve {cid} is not log crepant")
    before = relative_picard_rank(old)
    after = relative_picard_rank(new)
    if before.mode != after.mode or after.value - before.value != before.step_delta():
        raise TheoremViolationError(
            f"{move} of curve {cid} moved the Picard rank from {before} to {after}"
        )
    return new


def contract_flop(check: FlopCheck) -> SurfaceState:
    """Apply the flop-type contraction a passed flop check certifies."""
    check.require()
    return _contract(check, "flop contraction")


def is_log_blowdown(state: SurfaceState, cid: int) -> BlowdownCheck:
    """Test whether contracting `cid` is a log blow-down.

    The curve must be exceptional over the base, rational and of coefficient
    1.  Contracting the adjacent already-contracted components must leave its
    image a (−1)-curve meeting exactly two distinct coefficient-1 boundary
    curves transversally, and the final contraction of that image must leave
    those two curves crossing exactly once — the normal-crossing corner the
    move blows down to.  Those last tests read only the configuration near
    the curve and the adjacent contracted curves, so a failure among them
    is kept in the configuration's `_blowdown_memo` and read back at every
    later state where the curve meets the same contracted curves.  The
    contracted components the curve meets are found through its crossings
    and the state's block index, not by testing every block.
    """
    _require_uncontracted(state, cid)
    fail = partial(BlowdownCheck, state, cid, False)
    if _survives_on_target(state, cid):
        return fail("NotExceptionalOverBase", f"curve {cid} survives on the target model")
    config = state.config
    curve = config.curve(cid)
    if curve.boundary_coeff != 1:
        return fail("CoefficientNotOne", f"coefficient is {curve.boundary_coeff}")
    if curve.genus != 0:
        return fail("PositiveGenus", f"genus is {curve.genus}")
    met = state._blocks_meeting(cid)
    adjacent = frozenset([j for order, _ in met for j in order])
    key = (cid, adjacent)
    memo = config._blowdown_memo
    failed = memo.get(key)
    if failed is not None:
        return fail(*failed)
    check = _local_blowdown(state, cid, adjacent, met)
    if not check:
        memo[key] = (check.reason, check.detail, check.order)
    return check


def _local_blowdown(
    state: SurfaceState, cid: int, adjacent: frozenset[int], met: list[Block]
) -> BlowdownCheck:
    """The tests of `is_log_blowdown` on the local model of `cid` and the
    contracted components `met` it meets, whose curves are `adjacent`."""
    fail = partial(BlowdownCheck, state, cid, False)
    model = LocalBlowdownModel.from_config(state.config, adjacent | {cid})
    sim = run_contraction(model, restrict_to=adjacent)
    if not sim:
        return fail("AdjacentSetNotContractible", f"{sim.reason}: {sim.detail}", sim.order)
    require_unimodular(adjacent, met)
    if model.self_intersection(cid) != -1:
        return fail(
            "ImageNotMinusOne",
            f"image self-intersection is {model.self_intersection(cid)}",
            sim.order,
        )
    partners = model.partners(cid)
    if len(partners) != 2:
        return fail(
            "BoundaryNotTwoCurves",
            f"image meets {len(partners)} distinct curves: {list(partners)}",
            sim.order,
        )
    a, b = partners
    if model.crossings(cid, a) != 1 or model.crossings(cid, b) != 1:
        return fail(
            "NonTransverseContact",
            f"image meets {a} and {b} with multiplicities "
            f"{model.crossings(cid, a)}, {model.crossings(cid, b)}",
            sim.order,
        )
    # Every other curve of the model met a contracted component, so it now
    # meets the image: contracting the image leaves exactly a and b.
    local_before = model.clone()
    model.contract(cid)
    failure = corner_failure(model)
    if failure is not None:
        return fail(*failure, sim.order)
    return BlowdownCheck(
        state, cid, True, None, None, sim.order + (cid,), local_before, model
    )


def contract_blowdown(check: BlowdownCheck) -> SurfaceState:
    """Apply the log blow-down a passed blow-down check certifies."""
    check.require()
    return _contract(check, "log blow-down")
