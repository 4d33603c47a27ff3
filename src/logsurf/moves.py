"""The two elementary contraction moves and the predicates guarding them.

A *flop-type contraction* removes a curve of log degree zero, coefficient
below 1 and negative image self-intersection from a log terminal state; it
is crepant and keeps the pair log terminal.  A *log blow-down* removes a
coefficient-1 rational curve whose image is a (−1)-curve joining two boundary
branches through a smooth point, undoing a corner blow-up.

The flop predicate reports the first requirement that fails, cheapest
first: the curve must be exceptional over the base (both predicates and
`SurfaceState.successor` test this by `crepant.survives_on_target`), of log
degree 0 and of coefficient below 1 (a coefficient-1 curve is itself a
non-klt centre, `IsDivisorialCenter`); only then are the multiplicities λ
solved for the image self-intersection.

Both predicates read only the curve's neighbourhood: they find the
contracted components a curve meets through its crossings and the state's
curve → block index (`crepant.SurfaceState`), which a successor builds
from its parent's when it is made, so neither scans the whole contracted
set or configuration.  The blow-down predicate's local tests run once per
curve and set of blocks it meets (`CurveConfig._blowdown_memo`).
The flop predicate solves for λ only on the blocks of those components,
and its map of λ, which `epsilon_bound` reads, holds only their curves,
the contracted curves where λ is non-zero.  Each move kind has one
candidate scan: `lowest_flop`, `lowest_blowdown`.

The predicates and `epsilon_bound` decide on integers: a log degree, an
image self-intersection or a multiplicity is an exact rational whose
denominator is positive, so its sign is its numerator's, and the
perturbation bound is taken over the residuals' common denominator and
numerators (`crepant.SolutionFacts`) and minimised by integer
cross-multiplication.  Only the values a caller receives are `Fraction`s.

A predicate returns a check: the state and curve it was made for, the
reason the move was refused (None when it passed) and, on success, the
evidence found — a flop's multiplicities λ, a blow-down's local contraction
order.  A check, like every verdict in the library, is true exactly when it
records no failure.  The check is the move's certificate: `epsilon_bound`,
`contract_flop` and `contract_blowdown` take it instead of re-running the
predicate, and raise the move's error when it records a reason.  Both
contractions return fresh states and assert their own postconditions: a
failed assertion is a bug in the library, never a property of valid input,
and raises ``TheoremViolationError``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import partial
from typing import ClassVar, Mapping

from .crepant import (
    Classification,
    SurfaceState,
    TargetBase,
    _keeps_coefficients,
    correction_multiplicities,
    image_self_intersection,
    log_degree,
    require_uncontracted,
    survives_on_target,
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
    CurveConfig,
    LocalBlowdownModel,
    _Record,
    corner_failure,
    require_unimodular,
    run_contraction,
)


class EpsilonChoice(_Record):
    """A witness interval for the perturbation argument.

    ``supremum`` is the least upper bound of admissible perturbations of the
    flopping curve's coefficient, at most 1 − coefficient; ``chosen`` is the
    reproducible representative used by certificates, half the supremum.
    """

    __slots__ = ("supremum", "chosen")

    def __init__(self, supremum: Fraction, chosen: Fraction):
        object.__setattr__(self, "supremum", supremum)
        object.__setattr__(self, "chosen", chosen)


class MoveKind(Enum):
    FLOP = "flop"
    BLOWDOWN = "blowdown"


class MoveRecord(_Record):
    """One applied move plus the certificate needed to re-verify it.

    A run records its states' read-only discrepancy mappings themselves,
    shared with the states' crepant data; a parsed trace holds dicts.
    `verify_trace` accepts a discrepancy mapping of any type, but only with
    `int` keys and values that are exactly `Fraction` or `int`, and only a
    curve and order of exact `int`s and an ε that is an `EpsilonChoice` of
    exact `Fraction`s or `int`s.
    """

    __slots__ = (
        "kind", "curve", "discrepancies_before", "discrepancies_after", "epsilon", "order"
    )

    def __init__(
        self,
        kind: MoveKind,
        curve: int,
        discrepancies_before: Mapping[int, Fraction],
        discrepancies_after: Mapping[int, Fraction],
        epsilon: EpsilonChoice | None = None,
        order: tuple[int, ...] | None = None,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "discrepancies_before", discrepancies_before)
        object.__setattr__(self, "discrepancies_after", discrepancies_after)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "order", order)


class _Check(_Record):
    """A predicate's verdict on contracting `curve` from `state`: true
    exactly when `reason`, the name of the failed requirement, is None.
    `detail` words a failure for the move's error."""

    error: ClassVar[type[LogSurfaceError]]
    noun: ClassVar[str]

    __slots__ = ("state", "curve", "reason", "detail")
    _hidden = ("state",)

    def __init__(self, state: SurfaceState, curve: int, reason: str | None, detail: str | None):
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "detail", detail)

    def __bool__(self) -> bool:
        return self.reason is None

    @property
    def failure(self) -> str:
        return f"curve {self.curve} is not {self.noun}: {self.detail or self.reason}"

    def require(self) -> None:
        """Raise the move's error if the check records a reason."""
        if self.reason is not None:
            raise self.error(self.failure)


class FlopCheck(_Check):
    """A flop verdict plus, on success, the multiplicities λ_j of the
    contracted curves in the pullback of the curve's image, which
    `epsilon_bound` reads; None on failure."""

    error = NotFloppingError
    noun = "of flop type"
    __slots__ = ("multiplicities",)
    _hidden = ("state", "multiplicities")

    def __init__(
        self,
        state: SurfaceState,
        curve: int,
        reason: str | None,
        detail: str | None,
        multiplicities: dict[int, Fraction] | None,
    ):
        _Check.__init__(self, state, curve, reason, detail)
        object.__setattr__(self, "multiplicities", multiplicities)


class BlowdownCheck(_Check):
    """A blow-down verdict plus the stepwise local contraction order: on
    success the adjacent contracted curves' order then the curve, on failure
    as far as the simulation got.  A trace records it as the move's
    certificate."""

    error = NotABlowdownError
    noun = "a log blow-down"
    __slots__ = ("order",)

    def __init__(
        self,
        state: SurfaceState,
        curve: int,
        reason: str | None,
        detail: str | None,
        order: tuple[int, ...] = (),
    ):
        _Check.__init__(self, state, curve, reason, detail)
        object.__setattr__(self, "order", order)


def _require_log_terminal(state: SurfaceState) -> None:
    if state.classification < Classification.LOG_TERMINAL:
        raise NotLogTerminalError(
            f"state classifies as {state.classification.name}; log terminality is required"
        )


def is_log_flopping(state: SurfaceState, cid: int) -> FlopCheck:
    """Test whether contracting `cid` is a flop-type divisorial contraction.

    Requires a log terminal state, then: the curve is exceptional over the
    base, its log degree vanishes, its own coefficient is below 1 (a
    coefficient-1 curve is a divisorial non-klt centre) and its image
    self-intersection is negative.  The first requirement that fails, in
    this order, is the reason reported: `NotExceptionalOverBase`,
    `NonzeroLogDegree`, `IsDivisorialCenter` or `ImageNotNegative`.

    Such a curve also avoids every other non-klt centre, with no test: it
    passes through no node centre, whose two curves have residual 1 while
    an uncontracted curve's residual is its coefficient; and it meets no
    contracted component holding a residual-1 curve, since at a log
    terminal state such a component contracts onto a corner of exactly two
    coefficient-1 curves (`crepant.SurfaceState.classification`), and every
    curve meeting the component survives its contraction, so a curve of
    coefficient below 1 meeting it would break that corner.
    """
    require_uncontracted(state, cid)
    _require_log_terminal(state)
    fail = partial(FlopCheck, state, cid, multiplicities=None)
    if survives_on_target(state, cid):
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
    return FlopCheck(state, cid, None, None, lam)


def _epsilon_pair(check: FlopCheck) -> tuple[int, int]:
    """The supremum of `epsilon_bound` as an integer pair (p, q), q > 0:
    the bound's one spelling, which `decompose.verify_trace` compares a
    recorded ε with by cross-multiplication."""
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
    return p, q


def epsilon_bound(check: FlopCheck) -> EpsilonChoice:
    """The admissible perturbation interval certified by a passed flop check.

    Raising the curve's coefficient by any ε below the supremum keeps every
    residual at most 1 (hence the pair log terminal): the binding constraints
    are the coefficient cap 1 − d and, for each contracted curve picked up by
    the image pullback with multiplicity λ > 0, the headroom (1 − e)/λ.  With
    the solution's common denominator Δ and numerator N = Δ·e
    (`crepant.SolutionFacts`) and λ = a/b, that is (Δ − N)·b / (Δ·a), both
    integers.  λ > 0 is read off a; the least bound is kept as an integer
    pair p/q with q > 0 and replaced when (Δ − N)·b·q < p·Δ·a
    (`_epsilon_pair`).  The supremum p/q and the chosen value p/(2q) are the
    only `Fraction`s built; a replay compares a recorded ε with (p, q) on
    integers and builds none.
    """
    p, q = _epsilon_pair(check)
    return EpsilonChoice(Fraction(p, q), Fraction(p, 2 * q))


class PicardRank(_Record):
    """A rank with its frame of reference.

    mode "relative-to-target": curves still to contract to reach the target.
    mode "of-model-over-point": Picard number of the current model itself.
    mode "deficit-from-master-model": curves contracted so far, reported when
    the master model's Picard number is unknown.
    """

    __slots__ = ("value", "mode")

    def __init__(self, value: int, mode: str):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "mode", mode)

    def step_delta(self) -> int:
        """Expected change per single contraction in this mode."""
        return 1 if self.mode == "deficit-from-master-model" else -1


def relative_picard_rank(state: SurfaceState) -> PicardRank:
    state._checked
    if isinstance(state.base, TargetBase):
        # `_checked` has proved the contracted set lies in the target.
        return PicardRank(
            len(state.base.contracted_on_target) - len(state.contracted),
            "relative-to-target",
        )
    rank = state.config.picard_rank_of_model
    if rank is not None:
        n = len(state.contracted)
        if rank <= n:  # the contracted curves and an ample class are independent
            raise InvalidStateError(f"picard_rank_of_model {rank} is below 1 + {n} = {n + 1}")
        return PicardRank(rank - n, "of-model-over-point")
    return PicardRank(len(state.contracted), "deficit-from-master-model")


class NefReport(_Record):
    """Nef verdict over the curves visible to the base: true exactly when
    `failing`, each tested curve of negative log degree with that degree, is
    empty.

    `complete` is False for a point base, where only marked curves can be
    tested and unmarked curves of the underlying surface stay out of reach.
    """

    __slots__ = ("complete", "failing")

    def __init__(self, complete: bool, failing: tuple[tuple[int, Fraction], ...] = ()):
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "failing", failing)

    def __bool__(self) -> bool:
        return not self.failing


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
    return NefReport(isinstance(state.base, TargetBase), failing)


def lowest_flop(state: SurfaceState) -> FlopCheck | None:
    """The passed flop check of the lowest-id curve in the base's scope, or
    None, skipping every curve whose log degree is already known to be
    non-zero.

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
    moves; failures signal library bugs.  The move is crepant when the new
    state's own solution, inherited or solved cold (`SurfaceState.successor`),
    keeps the curve's coefficient as its residual."""
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
    if not _keeps_coefficients(old.config, new.crepant, (cid,)):
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
    the curve and the adjacent contracted components (`_local_blowdown`),
    so their outcome, pass or failure, is kept in the configuration's
    `_blowdown_memo` under the curve and the components' blocks, and read
    back at every later state where the curve meets the same blocks.  The
    blocks are found through the curve's crossings and the state's block
    index, not by testing every block.
    """
    require_uncontracted(state, cid)
    fail = partial(BlowdownCheck, state, cid)
    if survives_on_target(state, cid):
        return fail("NotExceptionalOverBase", f"curve {cid} survives on the target model")
    config = state.config
    curve = config.curve(cid)
    if curve.boundary_coeff != 1:
        return fail("CoefficientNotOne", f"coefficient is {curve.boundary_coeff}")
    if curve.genus != 0:
        return fail("PositiveGenus", f"genus is {curve.genus}")
    met = state._blocks_meeting(cid)
    key = (cid, *met)
    memo = config._blowdown_memo
    outcome = memo.get(key)
    if outcome is None:
        outcome = memo[key] = _local_blowdown(config, cid, met)
    reason, detail, order = outcome
    return BlowdownCheck(state, cid, reason, detail, order)


def _local_blowdown(
    config: CurveConfig, cid: int, met: list[Block]
) -> tuple[str | None, str | None, tuple[int, ...]]:
    """The tests of `is_log_blowdown` on the local model of `cid` and the
    blocks `met` of the contracted components it meets: (reason, detail,
    local contraction order), reason None on a pass."""
    adjacent = frozenset().union(*[block.curves for block in met])
    model = LocalBlowdownModel.from_config(config, adjacent | {cid})
    sim = run_contraction(model, adjacent)
    if not sim:
        return "AdjacentSetNotContractible", f"{sim.reason}: {sim.detail}", sim.order
    require_unimodular(adjacent, met)
    image_self = model.self_intersection(cid)
    if image_self != -1:
        return "ImageNotMinusOne", f"image self-intersection is {image_self}", sim.order
    partners = model.partners(cid)
    if len(partners) != 2:
        return (
            "BoundaryNotTwoCurves",
            f"image meets {len(partners)} distinct curves: {list(partners)}",
            sim.order,
        )
    a, b = partners
    if model.crossings(cid, a) != 1 or model.crossings(cid, b) != 1:
        return (
            "NonTransverseContact",
            f"image meets {a} and {b} with multiplicities "
            f"{model.crossings(cid, a)}, {model.crossings(cid, b)}",
            sim.order,
        )
    # Every other curve of the model met a contracted component, so it now
    # meets the image: contracting the image leaves exactly a and b.
    model.contract(cid)
    failure = corner_failure(model)
    if failure is not None:
        return (*failure, sim.order)
    return None, None, sim.order + (cid,)


def lowest_blowdown(state: SurfaceState) -> BlowdownCheck | None:
    """The passed blow-down check of the lowest-id curve in the base's
    scope, or None; a curve that survives on a target base is never a
    candidate."""
    for cid in _in_scope(state):
        check = is_log_blowdown(state, cid)
        if check:
            return check
    return None


def contract_blowdown(check: BlowdownCheck) -> SurfaceState:
    """Apply the log blow-down a passed blow-down check certifies."""
    check.require()
    return _contract(check, "log blow-down")
