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
    """The facts of one crepant solution, each found once, when first asked.

    They depend only on the residual mapping and the configuration, so the
    table follows the mapping: every `CrepantData` sharing a mapping shares
    its table, and a fresh solution gets a fresh one.

    - `denominator` and `numerators`: Δ > 0, the least common denominator of
      the residuals, and N = Δ·e for every curve, integers found together in
      one pass and read through `CrepantData.scaled`; the move algebra
      (`log_degree`, `moves.epsilon_bound`) runs on them;
    - `degrees`: the log degree of each curve asked of `log_degree`, an
      exact rational built from its integer numerator over Δ;
    - `negated`: the negated residual of each curve `discrepancies` has read;
    - `ones` and `above_one`: the curves of residual exactly 1 and above 1,
      found together in one pass.
    """

    __slots__ = ("denominator", "numerators", "degrees", "negated", "ones", "above_one")

    def __init__(self) -> None:
        self.denominator: int | None = None
        self.numerators: dict[int, int] | None = None
        self.degrees: dict[int, Fraction] = {}
        self.negated: dict[int, Fraction] | None = None
        self.ones: frozenset[int] | None = None
        self.above_one: frozenset[int] | None = None

    def scale(self, residual: Mapping[int, Fraction]) -> None:
        """Fill `denominator` and `numerators`."""
        delta = math.lcm(*[value.denominator for value in residual.values()])
        self.denominator = delta
        self.numerators = {
            cid: value.numerator * (delta // value.denominator)
            for cid, value in residual.items()
        }

    def scan(self, residual: Mapping[int, Fraction]) -> None:
        """Fill `ones` and `above_one`; a residual is a `Fraction`, whose
        denominator is positive, so both tests are integer comparisons."""
        ones: list[int] = []
        above: list[int] = []
        for cid, value in residual.items():
            n, d = value.numerator, value.denominator
            if n >= d:
                (ones if n == d else above).append(cid)
        self.ones = frozenset(ones)
        self.above_one = frozenset(above)


@dataclass(frozen=True)
class CrepantData:
    """Solved residual coefficients.

    `residual` covers every curve: the solved value on contracted curves, the
    stated boundary coefficient elsewhere.  It is read-only and shared by
    reference: by the configuration's memo, by every caller of
    `crepant_pullback` and by the states a run reaches by moves, which all
    have the same solution.  `facts` is the mapping's `SolutionFacts`,
    passed along with it: log degrees, negated residuals and the residual-1
    and residual-above-1 curves are each found once per mapping, not once
    per state.  Discrepancies are the negated residuals on the contracted
    set.
    """

    residual: Mapping[int, Fraction]
    contracted: frozenset[int]
    facts: SolutionFacts = field(default_factory=SolutionFacts, repr=False, compare=False)

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
        facts = self.facts
        negated = facts.negated
        if negated is None:
            negated = facts.negated = {}
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
        facts = self.facts
        if facts.ones is None:
            facts.scan(self.residual)
        return facts.ones

    @property
    def above_one(self) -> frozenset[int]:
        """The curves whose residual is above 1; all are contracted, since
        validation keeps every coefficient at most 1."""
        facts = self.facts
        if facts.above_one is None:
            facts.scan(self.residual)
        return facts.above_one


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
    Each set is solved at most once per configuration, block by block from
    its memoised factors, unless a state reached by a move has already
    stored the solution it inherits (`SurfaceState.successor`); every call
    returns the memoised solution itself, which is read-only.
    """
    key = frozenset(contracted)
    memo = config._crepant_memo
    data = memo.get(key)
    if data is None:
        data = memo[key] = _solve_pullback(config, key)
    return data


def _solve_pullback(config: CurveConfig, key: frozenset[int]) -> CrepantData:
    """Solve the set's system cold, block by block from its factors.

    A block's right-hand side reads only its own curves and the curves
    outside the set, so each block is solved on its own.  It is summed in
    integers, scaled by the configuration's least common coefficient
    denominator e, and solved at that scale
    (`ratlin.DefiniteFactor.solve_scaled`), so the only `Fraction` objects
    built are the residuals themselves.
    """
    blocks = _require_contractible(config, key)
    residual = {c.id: c.boundary_coeff for c in config.curves}
    adjacency = config._adjacency
    curves = config._curve_map
    e = config._coeff_denominator
    for order, factor in blocks:
        rhs = []
        for i in order:
            acc = e * canonical_degree(config, i)
            for k, count in adjacency[i].items():
                if k not in key:
                    d = curves[k].boundary_coeff
                    acc += d.numerator * (e // d.denominator) * count
            rhs.append(-acc)
        residual.update(zip(order, factor.solve_scaled(rhs, e)))
    return CrepantData(MappingProxyType(residual), key)


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
        """Validate the configuration, the contracted ids, their nesting in
        the base and the contractibility of the contracted and target sets,
        and return the state's block index: each contracted curve mapped to
        the block of its component, built from the set's memoised blocks.

        A state made by `successor` is checked, and its index stored, when
        it is made.
        """
        require_valid(self.config)
        for cid in self.contracted:
            self.config.curve(cid)
        if not self.base.contains(self.contracted):
            raise _not_nested(self.contracted, self.base)
        blocks = _require_contractible(self.config, self.contracted)
        if isinstance(self.base, TargetBase):
            for cid in self.base.contracted_on_target:
                self.config.curve(cid)
            _require_contractible(self.config, self.base.contracted_on_target)
        return {cid: block for block in blocks for cid in block[0]}

    def _blocks_meeting(self, cid: int) -> list[Block]:
        """The blocks of the contracted components that curve `cid` meets,
        each once, found through its crossings and listed in the order the
        crossings first reach them (`surface.grow_block` breaks ties by
        it)."""
        index = self._checked
        met: dict[int, Block] = {}
        for j in self.config._adjacency[cid]:
            block = index.get(j)
            if block is not None:
                met[id(block)] = block
        return list(met.values())

    def successor(self, cid: int) -> SurfaceState:
        """The checked state that also contracts `cid`, over the same base.

        This state is checked first; then only what `cid` changes is: its
        id, its nesting in the base and its component, whose block
        `grow_block` makes from the blocks `cid` meets.  The new index is
        this one plus that block.

        Each row of the new system but `cid`'s is a row of this one, with
        `cid`'s term moved across at e = d, and `cid`'s row says that this
        state's log degree on `cid` is 0.  When that one exact equation
        holds, this state's residuals solve the new system, uniquely, so its
        read-only mapping and its table of facts (`SolutionFacts`) are
        stored as the new state's solution, with no solve and no copy.
        Otherwise the new set is solved cold when asked.
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
        index.update(dict.fromkeys(block[0], block))
        new.__dict__["_checked"] = index
        memo = config._crepant_memo
        if new.contracted not in memo and log_degree(self, cid).numerator == 0:
            inherited = self.crepant
            memo[new.contracted] = CrepantData(inherited.residual, new.contracted, inherited.facts)
        return new

    @cached_property
    def crepant(self) -> CrepantData:
        """The crepant data of the contracted set (`crepant_pullback`)."""
        self._checked
        return crepant_pullback(self.config, self.contracted)

    @cached_property
    def uncontracted(self) -> tuple[int, ...]:
        self._checked
        return tuple(c.id for c in self.config.curves if c.id not in self.contracted)

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """The connected components of the contracted set, by least id: the
        curve sets of the blocks of its block index, each read under the
        first curve of its order."""
        return tuple(
            sorted(
                (frozenset(order) for cid, (order, _) in self._checked.items() if order[0] == cid),
                key=min,
            )
        )

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
        """
        self._checked
        data = self.crepant
        if not data.above_one.isdisjoint(self.contracted):
            return Classification.NOT_LC
        ones = data.ones
        if not ones:
            return Classification.KLT
        # A component's residuals and its contraction depend only on the
        # configuration and the component, so its verdict is memoised.
        corners = self.config._corner_memo
        for component in self.components:
            if not component.isdisjoint(ones):
                if component not in corners:
                    sim = smooth_point_blowdown(self.config, component)
                    corners[component] = bool(sim) and corner_failure(sim.final) is None
                if not corners[component]:
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


def correction_multiplicities(state: SurfaceState, cid: int) -> dict[int, Fraction]:
    """Multiplicities λ_j of the contracted curves in the pullback of `cid`'s image.

    They solve gram(S)·λ = −(C·E_j)_j over the contracted set S, which must
    not contain `cid`, from the set's memoised blocks: only the components
    that `cid` meets have a nonzero right-hand side, so only their blocks,
    found through the state's block index, are solved, each from its
    factor, on the integer right-hand side as it is
    (`ratlin.DefiniteFactor.solve_scaled`); elsewhere λ is exactly 0.
    """
    state._checked
    state.config.curve(cid)
    if cid in state.contracted:
        raise InvalidStateError(f"curve {cid} is contracted; its image is a point")
    near = state.config._adjacency[cid]
    lam = dict.fromkeys(state.contracted, _ZERO)
    for order, factor in state._blocks_meeting(cid):
        lam.update(zip(order, factor.solve_scaled([-near.get(j, 0) for j in order], 1)))
    return dict(sorted(lam.items()))


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
    forces the two residual vectors to agree everywhere.
    """
    small_set = frozenset(small)
    large_set = frozenset(large)
    if not small_set <= large_set:
        raise NotNestedError(f"{sorted(small_set)} is not a subset of {sorted(large_set)}")
    crepant_pullback(config, small_set)  # validates contractibility of the small set
    large_data = crepant_pullback(config, large_set)
    return all(
        large_data.residual[j] == config.curve(j).boundary_coeff
        for j in large_set - small_set
    )
