"""Discrepancy computation and singularity classification.

Given a curve configuration, a subset of curves to contract, and a base
(either a point or a further-contracted target model), the crepant-pullback
system determines how the log canonical class of the contracted model pulls
back.  The residual coefficients it assigns to the contracted curves drive
everything downstream: classification, centre detection, and the legality of
each rewriting move.

Residuals are exact rationals, and so is every value returned here.  The
arithmetic of a move runs on integers: each residual mapping has one positive
common denominator Δ, the lcm of its residual denominators, and the integer
numerators N = Δ·e, both found once and kept in its `SolutionFacts`.  A log
degree is summed as Δ times itself, an image self-intersection over the lcm
of the multiplicities it reads, and a `Fraction` is built only for the value
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    InvalidStateError,
    NotNestedError,
    UnknownIdError,
)
from .surface import (
    Block,
    CurveConfig,
    canonical_degree,
    corner_failure,
    factor_blocks,
    grow_block,
    require_valid,
    smooth_point_blowdown,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class PointBase:
    """The whole configuration sits over a single point."""

    def contains(self, contracted: frozenset[int]) -> bool:
        return True


@dataclass(frozen=True)
class TargetBase:
    """The state maps onto the model obtained by contracting `contracted_on_target`.

    A state with contracted set S maps to this base by contracting the rest,
    so S must stay inside the target set.
    """

    contracted_on_target: frozenset[int]

    def __init__(self, contracted_on_target: Iterable[int]):
        object.__setattr__(self, "contracted_on_target", frozenset(contracted_on_target))

    def contains(self, contracted: frozenset[int]) -> bool:
        return contracted <= self.contracted_on_target


Base = PointBase | TargetBase


class SolutionFacts:
    """The facts of one crepant solution, each found once.

    They depend only on the residual mapping and the configuration, so the
    table follows the mapping: every `CrepantData` sharing a mapping shares
    its table, and a fresh solution gets a fresh one.

    - `ones` and `above_one`: the curves of residual exactly 1 and above 1,
      found together in one pass when the table is made, since every
      classification reads them; a residual is a `Fraction`, whose
      denominator is positive, so both tests are integer comparisons;
    - `denominator` and `numerators`: Δ > 0, the least common denominator of
      the residuals, and N = Δ·e for every curve, integers found together in
      one pass when first asked and read through `CrepantData.scaled`; the
      move algebra (`log_degree`, `moves.epsilon_bound`) runs on them;
    - `degrees`: the log degree of each curve asked of `log_degree`, an
      exact rational built from its integer numerator over Δ;
    - `negated`: the negated residual of each curve `discrepancies` has read.
    """

    __slots__ = ("denominator", "numerators", "degrees", "negated", "ones", "above_one")

    def __init__(self, residual: Mapping[int, Fraction]) -> None:
        self.denominator: int | None = None
        self.numerators: dict[int, int] | None = None
        self.degrees: dict[int, Fraction] = {}
        self.negated: dict[int, Fraction] = {}
        ones: list[int] = []
        above: list[int] = []
        for cid, value in residual.items():
            n, d = value.numerator, value.denominator
            if n >= d:
                (ones if n == d else above).append(cid)
        self.ones = frozenset(ones)
        self.above_one = frozenset(above)

    def scale(self, residual: Mapping[int, Fraction]) -> None:
        """Fill `denominator` and `numerators`."""
        delta = math.lcm(*[value.denominator for value in residual.values()])
        self.denominator = delta
        self.numerators = {
            cid: value.numerator * (delta // value.denominator)
            for cid, value in residual.items()
        }


@dataclass(frozen=True)
class CrepantData:
    """Solved residual coefficients.

    `residual` covers every curve: the solved value on contracted curves, the
    stated boundary coefficient elsewhere.  It is read-only and shared by
    reference by the states a run reaches by moves, which all have the same
    solution.  Each state holds its own `CrepantData`; no configuration-wide
    table keeps one.  `facts` is the mapping's `SolutionFacts`, passed along
    with it, or made from the mapping when none is passed: log degrees,
    negated residuals and the residual-1 and residual-above-1 curves are
    each found once per mapping, not once per state.  Discrepancies are the negated residuals on the contracted set.
    """

    residual: Mapping[int, Fraction]
    contracted: frozenset[int]
    facts: SolutionFacts = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.facts is None:
            object.__setattr__(self, "facts", SolutionFacts(self.residual))

    def discrepancy(self, cid: int) -> Fraction:
        if cid not in self.contracted:
            raise UnknownIdError(f"curve {cid} is not contracted; it has no discrepancy")
        return self.discrepancies[cid]

    @cached_property
    def discrepancies(self) -> Mapping[int, Fraction]:
        """The discrepancies by contracted curve, in id order; read-only.

        Each curve's residual is negated once per mapping, built from its
        negated numerator and its denominator: a state reached by a move
        negates only the curve it added, and reads the rest from the
        mapping's table."""
        residual = self.residual
        negated = self.facts.negated
        for cid in self.contracted.difference(negated):
            value = residual[cid]
            negated[cid] = Fraction(-value.numerator, value.denominator)
        order = sorted(self.contracted)
        return MappingProxyType(dict(zip(order, map(negated.__getitem__, order))))

    @property
    def scaled(self) -> tuple[int, Mapping[int, int]]:
        """Δ, the residuals' least common denominator, and the integer
        numerators N = Δ·e of every curve."""
        facts = self.facts
        if facts.numerators is None:
            facts.scale(self.residual)
        return facts.denominator, facts.numerators

    @property
    def ones(self) -> frozenset[int]:
        """The curves, contracted or not, whose residual is exactly 1."""
        return self.facts.ones

    @property
    def above_one(self) -> frozenset[int]:
        """The curves whose residual is above 1; all are contracted, since
        validation keeps every coefficient at most 1."""
        return self.facts.above_one


def _require_contractible(config: CurveConfig, ids: frozenset[int]) -> tuple[Block, ...]:
    """Raise unless the Gram matrix of `ids` is negative definite.

    Returns the set's memoised blocks, one per connected component; the
    empty set has none.
    """
    blocks = factor_blocks(config, ids)
    if blocks is None:
        raise _not_contractible(ids)
    return blocks


def _not_contractible(ids: frozenset[int]) -> InvalidStateError:
    return InvalidStateError(
        f"gram matrix of {sorted(ids)} is not negative definite; the set is not contractible"
    )


def _not_nested(contracted: frozenset[int], base: TargetBase) -> NotNestedError:
    return NotNestedError(
        f"contracted set {sorted(contracted)} is not contained in the "
        f"target set {sorted(base.contracted_on_target)}"
    )


def crepant_pullback(config: CurveConfig, contracted: Iterable[int]) -> CrepantData:
    """Solve for the residual coefficients making the pullback crepant.

    For each contracted curve i the log canonical degree on i must vanish:
    the Gram system  Σ_j e_j (C_j·C_i) = −deg K|_i − Σ_k d_k (C_k·C_i)  over
    contracted j and uncontracted k.  The Gram matrix of a contractible set is
    negative definite, hence invertible, so the solution exists and is unique.

    Each call solves afresh, block by block from the set's memoised factors.  A block's right-hand side reads only its own
    curves and the curves outside the set, so each block is solved on its
    own.  It is summed in integers, scaled by the configuration's least
    common coefficient denominator e, and solved at that scale
    (`ratlin.DefiniteFactor.solve_scaled`), so the only `Fraction` objects
    built are the residuals themselves.  A state solves its set at most once
    (`SurfaceState.crepant`), and a state reached by a move usually inherits
    its parent's solution instead (`SurfaceState.successor`).
    """
    key = frozenset(contracted)
    blocks = _require_contractible(config, key)
    residual = {c.id: c.boundary_coeff for c in config.curves}
    adjacency = config._adjacency
    curves = config._curve_map
    e = config._coeff_denominator
    for block in blocks:
        rhs = []
        for i in block.order:
            acc = e * canonical_degree(config, i)
            for k, count in adjacency[i].items():
                if k not in key:
                    d = curves[k].boundary_coeff
                    acc += d.numerator * (e // d.denominator) * count
            rhs.append(-acc)
        residual.update(zip(block.order, block.factor.solve_scaled(rhs, e)))
    return CrepantData(MappingProxyType(residual), key)


def _keeps_coefficients(config: CurveConfig, data: CrepantData, ids: Iterable[int]) -> bool:
    """Whether the solution `data` gives each curve of `ids` its stated
    boundary coefficient as its residual: contracting them on top of the
    rest of `data`'s set shifts no discrepancy."""
    residual = data.residual
    return all(residual[j] == config.curve(j).boundary_coeff for j in ids)


class Classification(IntEnum):
    """Singularity class of a contraction, ordered weakest to strongest.

    Comparisons express implication: any state classified at level L also
    satisfies every predicate at levels below L.
    """

    NOT_LC = 0
    LOG_CANONICAL = 1
    LOG_TERMINAL = 2
    KLT = 3


@dataclass(frozen=True, eq=False)
class SurfaceState:
    """A configuration plus the set of curves currently contracted and the base.

    This is the working object of every driver: immutable, with validation,
    the solved crepant data and the classification all cached on first use.
    A state built by `successor` is checked when it is made and usually
    inherits its parent's solution instead of solving.
    """

    config: CurveConfig
    contracted: frozenset[int]
    base: Base

    def __init__(
        self,
        config: CurveConfig,
        contracted: Iterable[int] = (),
        base: Base | None = None,
    ):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "contracted", frozenset(contracted))
        object.__setattr__(self, "base", base if base is not None else PointBase())

    @cached_property
    def _checked(self) -> dict[int, Block]:
        """Validate the configuration, the ids and contractibility of the
        contracted set, its nesting in the base and the ids and
        contractibility of the target set, in that order, and return the
        state's block index: each contracted curve mapped to the block of
        its component, built from the set's memoised blocks.  An unknown id
        is reported by the set's factor lookup (`surface.factor_blocks`),
        which names the least.

        A state made by `successor` is checked, and its index stored, when
        it is made.
        """
        require_valid(self.config)
        blocks = _require_contractible(self.config, self.contracted)
        if not self.base.contains(self.contracted):
            raise _not_nested(self.contracted, self.base)
        if isinstance(self.base, TargetBase):
            _require_contractible(self.config, self.base.contracted_on_target)
        return {cid: block for block in blocks for cid in block.order}

    def _blocks_meeting(self, cid: int) -> list[Block]:
        """The blocks of the contracted components that curve `cid` meets,
        each once, found through its crossings and listed in the order its
        crossings first reach them, which `surface.grow_block` and the
        blow-down memo key read."""
        index = self._checked
        met: dict[Block, None] = {}
        for j in self.config._adjacency[cid]:
            block = index.get(j)
            if block is not None:
                met[block] = None
        return list(met)

    def successor(self, cid: int) -> SurfaceState:
        """The checked state that also contracts `cid`, over the same base.

        This state is checked first; then only what `cid` changes is: its
        id, its nesting in the base and its component, whose block
        `grow_block` makes from the blocks `cid` meets.  The new index is
        this one plus that block.

        Each row of the new system but `cid`'s is a row of this one, with
        `cid`'s term moved across at e = d, and `cid`'s row says that this
        state's log degree on `cid` is 0.  When that one exact equation
        holds, the move is crepant: this state's residuals solve the new
        system, uniquely, so its read-only mapping and its table of facts
        (`SolutionFacts`) become the new state's own solution, with no solve
        and no copy.  Otherwise the new state solves its set cold when asked.
        """
        self._checked
        config = self.config
        config.curve(cid)
        new = SurfaceState(config, self.contracted | {cid}, self.base)
        if not self.base.contains(frozenset((cid,))):
            raise _not_nested(new.contracted, self.base)
        block = grow_block(config, self._blocks_meeting(cid), cid)
        if block is None:
            raise _not_contractible(new.contracted)
        index = dict(self._checked)
        index.update(dict.fromkeys(block.order, block))
        new.__dict__["_checked"] = index
        if log_degree(self, cid).numerator == 0:
            inherited = self.crepant
            new.__dict__["crepant"] = CrepantData(
                inherited.residual, new.contracted, inherited.facts
            )
        return new

    @cached_property
    def crepant(self) -> CrepantData:
        """The crepant data of the contracted set: inherited when a move
        made the state (`successor`), else solved cold (`crepant_pullback`)."""
        self._checked
        return crepant_pullback(self.config, self.contracted)

    @cached_property
    def uncontracted(self) -> tuple[int, ...]:
        self._checked
        return tuple(c.id for c in self.config.curves if c.id not in self.contracted)

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """The connected components of the contracted set, by least id: the
        curve sets of the distinct blocks of its block index."""
        blocks = dict.fromkeys(self._checked.values())
        return tuple(sorted([block.curves for block in blocks], key=min))

    @cached_property
    def classification(self) -> Classification:
        """Classify the contraction by its residual coefficients.

        A residual above 1 (a discrepancy below −1) on a contracted curve
        rules out log canonical.  With residuals at most 1, each component
        carrying a residual-1 curve must contract stepwise to a smooth point
        that is a normal-crossing corner of the boundary
        (`surface.corner_failure`) — failing that leaves the state merely
        log canonical.  KLT further requires every residual and every
        surviving coefficient strictly below 1.  Every test is a set test on
        the solution's shared residual-1 and residual-above-1 curves
        (`CrepantData.ones`, `CrepantData.above_one`): uncontracted
        residuals are the coefficients, which validation keeps at most 1,
        so KLT means that no curve has residual 1.

        Each point blow-up adds one class of square −1, so a set that
        contracts to a smooth point has a unimodular Gram matrix
        (Hartshorne, *Algebraic Geometry*, V.3.2): a component whose
        determinant, its block factor's last pivot, is not ±1 is no corner,
        and is not simulated.  Any other component carrying a residual-1
        curve is simulated (`surface.smooth_point_blowdown`, which asserts
        that determinant after every successful contraction).  A verdict is
        kept on its component's block (`surface.Block.corner`).
        """
        data = self.crepant
        if not data.above_one.isdisjoint(self.contracted):
            return Classification.NOT_LC
        ones = data.ones
        if not ones:
            return Classification.KLT
        for block in dict.fromkeys(self._checked.values()):
            if not block.curves.isdisjoint(ones):
                if block.corner is None:
                    if abs(block.factor.determinant()) != 1:
                        block.corner = False
                    else:
                        sim = smooth_point_blowdown(self.config, block.curves)
                        block.corner = bool(sim) and corner_failure(sim.final) is None
                if not block.corner:
                    return Classification.LOG_CANONICAL
        return Classification.LOG_TERMINAL


def classify(state: SurfaceState) -> Classification:
    return state.classification


@dataclass(frozen=True)
class DivisorialCenter:
    """A surviving curve of coefficient 1: non-klt along the whole curve."""

    curve: int


@dataclass(frozen=True)
class NodeCenter:
    """A crossing point whose two branches both carry residual 1."""

    point: int
    curves: frozenset[int]


@dataclass(frozen=True)
class ComponentImage:
    """The image point of a contracted component containing a residual-1 curve."""

    component: frozenset[int]


LcCenter = DivisorialCenter | NodeCenter | ComponentImage


def lc_centers(state: SurfaceState) -> tuple[LcCenter, ...]:
    """All non-klt centres of the state, in a deterministic order.

    Surviving coefficient-1 curves give divisorial centres; points whose two
    branches both have residual 1 give node centres; contracted components
    containing a residual-1 curve are collapsed to their image points.  The
    residual-1 curves are read from the solution's shared table
    (`SolutionFacts`), found once per mapping.
    """
    state._checked
    ones = state.crepant.ones
    out: list[LcCenter] = [
        DivisorialCenter(cid) for cid in sorted(ones - state.contracted)
    ]
    for p in state.config.points:
        if len(p.incident) == 2 and p.incident <= ones:
            out.append(NodeCenter(p.id, p.incident))
    for component in state.components:
        if not component.isdisjoint(ones):
            out.append(ComponentImage(component))
    return tuple(out)


def pushforward_self_intersection(state: SurfaceState, cid: int) -> Fraction:
    """Self-intersection of the image of curve `cid` after the contraction.

    Computed as C·C̄ = C² + Σ λ_j (C·E_j), where C̄ = C + Σ λ_j E_j is the
    pullback of the image and λ are the `correction_multiplicities`.
    """
    return image_self_intersection(state.config, cid, correction_multiplicities(state, cid))


def image_self_intersection(
    config: CurveConfig, cid: int, lam: Mapping[int, Fraction]
) -> Fraction:
    """C² + Σ λ_j (C·E_j): the image of `cid` pulls back to C + Σ λ_j E_j.

    The sum runs in integers over the lcm of the denominators of the λ_j it
    reads; one `Fraction` is built, for the result."""
    terms = [(lam[j], count) for j, count in config._adjacency[cid].items() if j in lam]
    den = math.lcm(*[value.denominator for value, _ in terms])
    num = config.curve(cid).self_intersection * den
    for value, count in terms:
        num += value.numerator * (den // value.denominator) * count
    return Fraction(num, den)


def require_uncontracted(state: SurfaceState, cid: int) -> None:
    """Check the state, then raise unless `cid` is one of its curves that
    is not contracted."""
    state._checked
    state.config.curve(cid)
    if cid in state.contracted:
        raise InvalidStateError(f"curve {cid} is already contracted")


def correction_multiplicities(state: SurfaceState, cid: int) -> dict[int, Fraction]:
    """The non-zero multiplicities λ_j of the contracted curves in the
    pullback of the image of `cid`, which must not be contracted.

    They solve gram(S)·λ = −(C·E_j)_j over the contracted set S.  Only the
    components that `cid` meets have a non-zero right-hand side, so only
    their blocks, found through the state's block index, are solved, each
    from its factor, on the integer right-hand side as it is
    (`ratlin.DefiniteFactor.solve_scaled`).  By the negativity lemma
    (Kollár–Mori, *Birational Geometry of Algebraic Varieties*, 1998) λ is
    positive on every curve of those components and 0 on every other
    contracted curve, which the map leaves out.
    """
    require_uncontracted(state, cid)
    near = state.config._adjacency[cid]
    lam: dict[int, Fraction] = {}
    for block in state._blocks_meeting(cid):
        order = block.order
        lam.update(zip(order, block.factor.solve_scaled([-near.get(j, 0) for j in order], 1)))
    return lam


def log_degree(state: SurfaceState, cid: int) -> Fraction:
    """Degree of the pulled-back log canonical class on curve `cid`.

    deg K|_C + Σ_k e_k (C_k·C), with the residuals running over every curve
    including C itself; only C and the curves meeting it contribute.
    Vanishes identically on contracted curves by construction of the crepant
    pullback.  It is summed in integers, as Δ·deg K|_C + N_C·C² +
    Σ_k N_k·(C_k·C) over the mapping's common denominator Δ and numerators
    N (`SolutionFacts`), and divided by Δ once.  It depends only on the
    solution, so each curve's degree is computed once per residual mapping
    and kept in its shared table.  A degree's denominator is positive, so
    callers test its sign on its numerator.
    """
    state._checked
    data = state.crepant
    degrees = data.facts.degrees
    degree = degrees.get(cid)
    if degree is None:
        delta, numerators = data.scaled
        config = state.config
        acc = delta * canonical_degree(config, cid)
        acc += numerators[cid] * config.curve(cid).self_intersection
        for k, count in config._adjacency[cid].items():
            acc += numerators[k] * count
        degree = degrees[cid] = Fraction(acc, delta) if acc else _ZERO
    return degree


def is_log_crepant(
    config: CurveConfig, small: Iterable[int], large: Iterable[int]
) -> bool:
    """Whether contracting `large` factors log-crepantly through contracting `small`.

    True exactly when every extra curve keeps its stated boundary coefficient
    as its residual in the larger solution — the additional contraction
    introduces no discrepancy shift.  By uniqueness of the solved systems this
    forces the two residual vectors to agree everywhere.  Only `large` is
    solved; `small` is checked to be contractible.
    """
    small_set = frozenset(small)
    large_set = frozenset(large)
    if not small_set <= large_set:
        raise NotNestedError(f"{sorted(small_set)} is not a subset of {sorted(large_set)}")
    _require_contractible(config, small_set)
    return _keeps_coefficients(config, crepant_pullback(config, large_set), large_set - small_set)
