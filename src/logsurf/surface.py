"""Combinatorial model of a normal-crossing curve configuration on a surface.

A configuration is a finite set of curves (genus, self-intersection, boundary
coefficient) together with marked points.  A point incident to two curves is a
transverse crossing; a point incident to one curve is a marked smooth point.
Tangencies and triple points are unrepresentable by construction, which is the
normal-crossing discipline every rewrite below must preserve.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, KeysView, Sequence

from .errors import (
    BadCoefficientError,
    InvalidStateError,
    TheoremViolationError,
    UnknownIdError,
    UnknownTargetError,
)
from .ratlin import (
    DefiniteFactor,
    SymMatrix,
    exact,
    forest_post_order,
    is_negative_definite,
    tree_factor,
)


class Block:
    """A connected component and what depends only on it: its curves in row
    `order`, the `ratlin.DefiniteFactor` of their Gram matrix in that order,
    its curve set `curves`, its key in `CurveConfig._factor_memo`, and
    `corner`, whether it contracts stepwise onto a normal-crossing corner of
    the boundary, None until `crepant.SurfaceState.classification` asks.
    Only `_cold_block` and `grow_block` make one, once per component and
    configuration; it compares and hashes by identity."""

    __slots__ = ("order", "factor", "curves", "corner")

    def __init__(self, order: tuple[int, ...], factor: DefiniteFactor, curves: frozenset[int]):
        self.order, self.factor, self.curves = order, factor, curves
        self.corner: bool | None = None


@dataclass(frozen=True)
class Curve:
    id: int
    genus: int
    self_intersection: int
    boundary_coeff: Fraction


@dataclass(frozen=True)
class CrossingPoint:
    id: int
    incident: frozenset[int]


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def _fraction(value: Fraction | int) -> Fraction:
    """`value` as a `Fraction`: a `Fraction` as it is, an `int` or a
    `Fraction` subclass normalised; a float or bool raises ``TypeError``."""
    return value if type(value) is Fraction else Fraction(exact(value))


@dataclass(frozen=True)
class CurveConfig:
    """The master model: an immutable curve configuration.

    ``picard_rank_of_model`` optionally records the Picard number of the
    smooth model the configuration lives on, an `int` of at least 0;
    blow-ups keep it in step.

    Its memos hold facts true at every state that reads them, each
    component's `Block` and each local blow-down outcome; a solved crepant
    pullback belongs to its state (`crepant.SurfaceState`).
    """

    curves: tuple[Curve, ...]
    points: tuple[CrossingPoint, ...]
    picard_rank_of_model: int | None = None

    @classmethod
    def build(
        cls,
        curves: Iterable[tuple[int, int, int, Fraction | int]],
        points: Iterable[tuple[int, Iterable[int]]] = (),
        picard_rank_of_model: int | None = None,
    ) -> "CurveConfig":
        """Convenience constructor from (id, genus, self², coeff) and (id, incident) rows.

        Raises ``ValueError`` for a point row that lists a curve twice: a
        point incident set cannot repeat a curve, and collapsing the row
        would change its meaning.
        """
        built_points = []
        for pid, incident in points:
            row = tuple(incident)
            members = frozenset(row)
            if len(members) != len(row):
                raise ValueError(f"point {pid} lists a curve twice: {list(row)}")
            built_points.append(CrossingPoint(pid, members))
        return cls(
            tuple(Curve(i, g, s, _fraction(d)) for i, g, s, d in curves),
            tuple(built_points),
            picard_rank_of_model,
        )

    @cached_property
    def _curve_map(self) -> dict[int, Curve]:
        return {c.id: c for c in self.curves}

    @cached_property
    def _coeff_denominator(self) -> int:
        """The least common denominator of the boundary coefficients: times
        it, every coefficient is an integer."""
        return math.lcm(*(c.boundary_coeff.denominator for c in self.curves))

    @cached_property
    def _point_map(self) -> dict[int, CrossingPoint]:
        return {p.id: p for p in self.points}

    @cached_property
    def _adjacency(self) -> dict[int, dict[int, int]]:
        """Each curve's neighbours mapped to their crossing counts.

        Every curve has an entry, empty when it meets nothing.  This is the
        configuration's only crossing table.
        """
        adjacency: dict[int, dict[int, int]] = {c.id: {} for c in self.curves}
        for p in self.points:
            if len(p.incident) == 2:
                a, b = p.incident
                row = adjacency.setdefault(a, {})
                row[b] = adjacency.setdefault(b, {})[a] = row.get(b, 0) + 1
        return adjacency

    @cached_property
    def _factor_memo(self) -> dict[frozenset[int], tuple[Block, ...] | None]:
        """Curve sets mapped to the factors of their Gram matrix, or None.

        Curves in different connected components never meet, so the Gram
        matrix of a set is block-diagonal by component.  An entry is the
        tuple of the set's `Block`s, one per connected component, or None
        when the Gram matrix is not negative definite.  Keys are the
        components, each entered with its one block, whose `curves` it is,
        and the sets `factor_blocks` is asked for; a state reached by a move
        adds only the component its curve joins (`grow_block`), never its
        whole set.  A block is shared by reference by every entry and state
        containing its component.  The memo lives and dies with this
        configuration, which is immutable, so an entry never goes stale.
        """
        return {}

    @cached_property
    def _blowdown_memo(
        self,
    ) -> dict[tuple[int | Block, ...], tuple[str | None, str | None, tuple[int, ...]]]:
        """Local log blow-down tests: (curve, *the blocks of the contracted
        components it meets, in the order its crossings reach them) mapped
        to the outcome (reason, detail, local contraction order), reason
        None on a pass.

        Past its base, coefficient and genus tests, `moves.is_log_blowdown`
        reads only the configuration near that curve and those components
        (`moves._local_blowdown`, a pure function of them), and a component
        has one block, so every outcome, pass or failure, holds at every
        state where the key is the same.  Filled by `moves.is_log_blowdown`.
        """
        return {}

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        out: list[Violation] = []
        seen_curves: set[int] = set()
        for c in self.curves:
            cid, genus, coeff = c.id, c.genus, c.boundary_coeff
            if cid in seen_curves:
                out.append(Violation("DuplicateId", f"curve id {cid} appears twice"))
            seen_curves.add(cid)
            if not (type(cid) is int and type(genus) is int and type(c.self_intersection) is int):
                for name in ("id", "genus", "self_intersection"):
                    value = getattr(c, name)
                    if type(value) is not int:
                        out.append(
                            Violation(
                                "BadType",
                                f"curve {cid!r} has {name} {value!r} of type "
                                f"{type(value).__name__}, not int",
                            )
                        )
            # A Fraction's denominator is positive, so its range test needs
            # no division.  A float or bool is not read as a nearby rational.
            if type(coeff) is Fraction:
                in_range = 0 <= coeff.numerator <= coeff.denominator
            elif type(coeff) is int:
                in_range = 0 <= coeff <= 1
            else:
                out.append(
                    Violation(
                        "BadType",
                        f"curve {cid!r} has boundary_coeff {coeff!r} of type "
                        f"{type(coeff).__name__}, not Fraction or int",
                    )
                )
                in_range = True
            if not in_range:
                out.append(Violation("BadCoefficient", f"curve {cid} has coefficient {coeff}"))
            if type(genus) is int and genus < 0:
                out.append(Violation("BadGenus", f"curve {cid} has genus {genus}"))
        seen_points: set[int] = set()
        for p in self.points:
            if p.id in seen_points:
                out.append(Violation("DuplicateId", f"point id {p.id} appears twice"))
            seen_points.add(p.id)
            if type(p.id) is not int:
                out.append(
                    Violation(
                        "BadType",
                        f"point {p.id!r} has id {p.id!r} of type {type(p.id).__name__}, not int",
                    )
                )
            incident = p.incident
            if len(incident) > 2:
                out.append(
                    Violation("TriplePoint", f"point {p.id} meets curves {sorted(incident)}")
                )
            if not incident:
                out.append(Violation("EmptyPoint", f"point {p.id} touches no curve"))
            for cid in incident:
                if type(cid) is not int:
                    out.append(
                        Violation(
                            "BadType",
                            f"point {p.id!r} has incident curve {cid!r} of type "
                            f"{type(cid).__name__}, not int",
                        )
                    )
                elif cid not in seen_curves:
                    out.append(
                        Violation("DanglingId", f"point {p.id} references missing curve {cid}")
                    )
        rank = self.picard_rank_of_model
        if rank is not None and type(rank) is not int:
            name = type(rank).__name__
            out.append(Violation("BadType", f"picard_rank_of_model {rank!r} is {name}, not int"))
        elif rank is not None and rank < 0:
            out.append(Violation("BadPicardRank", f"picard_rank_of_model {rank} is negative"))
        return tuple(out)

    def curve(self, cid: int) -> Curve:
        try:
            return self._curve_map[cid]
        except KeyError:
            raise UnknownIdError(f"no curve with id {cid}") from None

    def point(self, pid: int) -> CrossingPoint:
        try:
            return self._point_map[pid]
        except KeyError:
            raise UnknownIdError(f"no point with id {pid}") from None

    def neighbours(self, cid: int) -> dict[int, int]:
        """Curves sharing a point with `cid`, mapped to the crossing count."""
        self.curve(cid)
        return dict(self._adjacency[cid])


def validate_config(config: CurveConfig) -> tuple[Violation, ...]:
    """Check every structural invariant; an empty result means the model is ok."""
    return config._violations


def require_valid(config: CurveConfig) -> None:
    """Raise ``InvalidStateError`` naming every violated invariant, if any."""
    problems = validate_config(config)
    if problems:
        raise InvalidStateError(
            "invalid configuration: " + "; ".join(str(v) for v in problems)
        )


def pairing(config: CurveConfig, i: int, j: int) -> int:
    """Intersection number: self-intersection on the diagonal, shared-point
    count off it."""
    ci = config.curve(i)
    if i == j:
        return ci.self_intersection
    config.curve(j)
    return config._adjacency[i].get(j, 0)


def canonical_degree(config: CurveConfig, i: int) -> int:
    """Degree of the canonical class on the curve, via adjunction: 2g − 2 − C²."""
    c = config.curve(i)
    return 2 * c.genus - 2 - c.self_intersection


@dataclass(frozen=True)
class BlowUpTarget:
    kind: str  # "point" | "free" | "generic"
    ref: int | None = None


def at_point(point_id: int) -> BlowUpTarget:
    return BlowUpTarget("point", point_id)


def free_point_on(curve_id: int) -> BlowUpTarget:
    return BlowUpTarget("free", curve_id)


def generic_point() -> BlowUpTarget:
    return BlowUpTarget("generic")


def next_curve_id(config: CurveConfig) -> int:
    return max((c.id for c in config.curves), default=0) + 1


def blow_up(
    config: CurveConfig, target: BlowUpTarget, new_coeff: Fraction | int
) -> CurveConfig:
    """Blow up the model at a marked point, a fresh point on a curve, or a
    generic point.

    Checks the coefficient, the configuration and the target, then applies
    `blow_up_tables` to the configuration's curves and points, with the new
    curve's id from `next_curve_id` and the new points' ids from one above
    the largest point id.  The Picard rank, when recorded, goes up by 1.
    """
    coeff = _fraction(new_coeff)
    if not (0 <= coeff <= 1):
        raise BadCoefficientError(f"coefficient {coeff} outside [0, 1]")
    require_valid(config)
    if target.kind == "point":
        if target.ref not in config._point_map:
            raise UnknownTargetError(f"no point with id {target.ref}")
    elif target.kind == "free":
        if target.ref not in config._curve_map:
            raise UnknownTargetError(f"no curve with id {target.ref}")
    elif target.kind != "generic":
        raise UnknownTargetError(f"unknown target kind {target.kind!r}")
    curves = dict(config._curve_map)
    points = dict(config._point_map)
    pid = max(points, default=0) + 1
    blow_up_tables(curves, points, target, coeff, next_curve_id(config), pid)
    rank = config.picard_rank_of_model
    return CurveConfig(
        tuple(curves.values()),
        tuple(points.values()),
        None if rank is None else rank + 1,
    )


def blow_up_tables(
    curves: dict[int, Curve],
    points: dict[int, CrossingPoint],
    target: BlowUpTarget,
    coeff: Fraction,
    new_cid: int,
    pid: int,
) -> list[CrossingPoint]:
    """The blow-up rewrite, applied in place to tables of curves and points
    keyed by id; returns the new points.

    The new exceptional curve `new_cid` gets genus 0, self-intersection −1
    and coefficient `coeff`.  Curves through the centre lose 1 from their
    self-intersection and meet the new curve transversally, at new points
    with ids from `pid` up, in curve id order.  A blown-up marked point
    disappears.  Survivors keep their places and the new entries are
    appended, the new curve last, so the tables stay in the order a
    configuration lists them.  The target must exist in the tables.
    """
    if target.kind == "point":
        touched = sorted(points.pop(target.ref).incident)
    elif target.kind == "free":
        touched = [target.ref]
    else:
        touched = []
    curves[new_cid] = Curve(new_cid, 0, -1, coeff)
    new_points = []
    for cid in touched:
        c = curves[cid]
        curves[cid] = Curve(cid, c.genus, c.self_intersection - 1, c.boundary_coeff)
        point = points[pid] = CrossingPoint(pid, frozenset({new_cid, cid}))
        new_points.append(point)
        pid += 1
    return new_points


def connected_components(
    config: CurveConfig, subset: Iterable[int]
) -> tuple[frozenset[int], ...]:
    """Partition of the subset under the relation "share a point", by least
    id (`_components`)."""
    members = frozenset(subset)
    for cid in members:
        config.curve(cid)
    return tuple(frozenset(order) for order, _ in _components(config, members))


def _components(
    config: CurveConfig, ids: frozenset[int]
) -> Iterator[tuple[list[int], list[list[tuple[int, int]]] | None]]:
    """Each connected component of `ids` from one search, by least id: the
    search of `ratlin.forest_post_order` from the least id not yet reached,
    kept within the set, yields the component's curves in post-order and,
    unless it has a cycle, their children, a double contact being an edge
    of weight 2."""
    adjacency = config._adjacency
    reached: set[int] = set()
    for seed in sorted(ids):
        if seed not in reached:
            order, children = forest_post_order(
                (seed,),
                lambda v: [u for u in adjacency[v] if u in ids],
                lambda v, u: adjacency[v][u],
            )
            reached.update(order)
            yield order, children


def gram(config: CurveConfig, ordered_ids: Sequence[int]) -> SymMatrix:
    """Integer Gram matrix of the listed curves under the pairing.

    Entries are plain `int`s read straight from the configuration's curve
    and crossing tables: self-intersections on the diagonal, shared-point
    counts off it.  Each row starts as zeros and gets only its curve's
    crossings, so the Python-level work is the crossing count, not the
    number of entries.  Symmetry holds by construction, so the matrix is
    built without re-checking it.
    """
    ids = list(ordered_ids)
    position = {cid: k for k, cid in enumerate(ids)}
    if len(position) != len(ids):
        raise ValueError("curve ids must be distinct")
    selves = [config.curve(i).self_intersection for i in ids]
    adjacency = config._adjacency
    n = len(ids)
    rows = []
    for k, i in enumerate(ids):
        row = [0] * n
        for j, count in adjacency[i].items():
            at = position.get(j)
            if at is not None:
                row[at] = count
        row[k] = selves[k]
        rows.append(tuple(row))
    return SymMatrix._trusted(tuple(rows))


def factor_blocks(config: CurveConfig, ids: frozenset[int]) -> tuple[Block, ...] | None:
    """The factored blocks of the Gram matrix of `ids`, one per connected
    component, or None when that matrix is not negative definite.

    Each set asked for is factored at most once per configuration, in its
    `_factor_memo`.  It is searched once per component (`_components`),
    which yields the component in post-order, with its children when it is
    a tree.  Each component's block is then taken from the memo or factored
    cold, once (`_cold_block`).  The empty set has no blocks.  A state
    reached by a move finds its one new block from its parent's instead
    (`grow_block`).
    """
    if not ids:
        return ()
    memo = config._factor_memo
    try:
        return memo[ids]
    except KeyError:
        pass
    if not ids <= config._curve_map.keys():
        config.curve(min(ids - config._curve_map.keys()))
    blocks: list[Block] = []
    for order, children in _components(config, ids):
        component = frozenset(order)
        if component not in memo:
            memo[component] = _cold_block(config, component, order, children)
        entry = memo[component]
        if entry is None:
            break
        blocks += entry
    else:
        entry = tuple(blocks)
    memo[ids] = entry
    return entry


def _cold_block(
    config: CurveConfig,
    component: frozenset[int],
    order: list[int],
    children: list[list[tuple[int, int]]] | None,
) -> tuple[Block] | None:
    """The one block of a connected set factored from scratch, or None
    when its Gram matrix is not negative definite.

    `order` and `children` are the component's post-order and children
    from `_components`; `children` is None when the component has a
    cycle.  A tree is factored by `ratlin.tree_factor` into a
    `ratlin.TreeFactor` that stays sparse until a caller reads its dense
    rows.  Dense elimination of the rows in id order decides the rest: a
    set with a cycle through three or more curves, and a tree the subtree
    recurrence rejects, so that every cold "not negative definite" comes
    from the same `is_negative_definite` test as before the recurrence.  A
    rejection is the error path, so the repeated test adds nothing to a
    contractible component's cost.
    """
    if children is not None:
        factor = tree_factor([config.curve(cid).self_intersection for cid in order], children)
        if factor is not None:
            return (Block(tuple(order), factor, component),)
    ids = tuple(sorted(component))
    matrix = gram(config, ids)
    return (Block(ids, matrix.factor, component),) if is_negative_definite(matrix) else None


def grow_block(config: CurveConfig, met: Sequence[Block], cid: int) -> Block | None:
    """The block of the component that curve `cid` forms with the blocks
    `met` of the contracted components it meets, or None when that
    component's Gram matrix is not negative definite.

    The blocks are joined largest first, ties in the order `met` lists them
    (`crepant.SurfaceState._blocks_meeting` lists them in the order the
    curve's crossings do), into one factor bordered by `cid`
    (`DefiniteFactor.join`, `DefiniteFactor.border`): the largest block's
    rows are shared, the others' rebuilt.  The result is memoised under
    the component in `_factor_memo`, so a component is factored once.  A
    grown block's corner verdict is its own, found when first asked.
    """
    component = frozenset([cid]).union(*[block.curves for block in met])
    memo = config._factor_memo
    if component not in memo:
        order, factor = (), DefiniteFactor(())
        for block in sorted(met, key=lambda block: -len(block.order)):
            factor = factor.join(block.factor) if order else block.factor
            order += block.order
        near = config._adjacency[cid]
        bordered = factor.border(
            [near.get(j, 0) for j in order], config.curve(cid).self_intersection
        )
        memo[component] = (
            None if bordered is None else (Block(order + (cid,), bordered, component),)
        )
    entry = memo[component]
    return None if entry is None else entry[0]


class LocalBlowdownModel:
    """Mutable scratch model of a curve set plus the curves meeting it.

    Tracks live self-intersections and crossing counts while curves get
    contracted one at a time; genus and coefficient are read from the
    configuration, since no contraction changes them.  Crossings are
    per-curve partner maps, curve → {partner: count}, holding both ends of
    every crossing, so the pairing stays symmetric; the present curves are
    the map's keys.
    """

    def __init__(
        self,
        curves: dict[int, Curve],
        links: dict[int, dict[int, int]],
        selves: dict[int, int],
    ):
        self._curves = curves
        self._links = links
        self._selves = selves

    @classmethod
    def from_config(cls, config: CurveConfig, curves: Iterable[int]) -> "LocalBlowdownModel":
        """The model of the set `curves` and every curve meeting it."""
        adjacency = config._adjacency
        present = set()
        for cid in curves:
            config.curve(cid)
            present.add(cid)
            present.update(adjacency[cid])
        return cls(
            config._curve_map,
            {cid: {b: n for b, n in adjacency[cid].items() if b in present} for cid in present},
            {cid: config._curve_map[cid].self_intersection for cid in present},
        )

    @property
    def present(self) -> KeysView[int]:
        return self._links.keys()

    def coeff(self, cid: int) -> Fraction:
        return self._curves[cid].boundary_coeff

    def self_intersection(self, cid: int) -> int:
        return self._selves[cid]

    def crossings(self, a: int, b: int) -> int:
        return self._links.get(a, {}).get(b, 0)

    def partners(self, cid: int) -> tuple[int, ...]:
        return tuple(sorted(self._links.get(cid, ())))

    def is_candidate(self, cid: int) -> bool:
        """A rational current (−1)-curve; the raw material of a contraction."""
        return self._selves[cid] == -1 and self._curves[cid].genus == 0

    def is_eligible(self, cid: int) -> bool:
        """Candidate whose contraction keeps the image normal crossing: at most
        two partners, each met exactly once."""
        if not self.is_candidate(cid):
            return False
        near = self._links[cid]
        return len(near) <= 2 and all(count == 1 for count in near.values())

    def contract(self, cid: int) -> None:
        """Contract `cid`: A·B += (A·e)(B·e) for surviving pairs, A² += (A·e)²."""
        links = self._links
        if cid not in links:
            raise UnknownIdError(f"curve {cid} not present in local model")
        near = links.pop(cid)
        for a, b in itertools.combinations(near, 2):
            row = links[a]
            row[b] = links[b][a] = row.get(b, 0) + near[a] * near[b]
        for a, count in near.items():
            del links[a][cid]
            self._selves[a] += count * count
        del self._selves[cid]


def corner_failure(final: LocalBlowdownModel) -> tuple[str, str] | None:
    """Why the curves left by a finished contraction form no boundary corner.

    A corner, what a log blow-down undoes, is exactly two surviving curves,
    both of coefficient 1, crossing exactly once.  Returns (reason, detail)
    for the first condition that fails, or None at a corner.
    """
    survivors = sorted(final.present)
    if len(survivors) != 2:
        return "BoundaryNotTwoCurves", f"{len(survivors)} curves survive: {survivors}"
    a, b = survivors
    if final.coeff(a) != 1 or final.coeff(b) != 1:
        return (
            "BoundaryCoefficientBelowOne",
            f"curves {a}, {b} have coefficients {final.coeff(a)}, {final.coeff(b)}",
        )
    if final.crossings(a, b) != 1:
        return (
            "NoCornerAtImage",
            f"after the final contraction curves {a}, {b} cross "
            f"{final.crossings(a, b)} times",
        )
    return None


NO_MINUS_ONE = "NoMinusOne"
NON_SNC_CONTRACTION = "NonSNCContraction"


@dataclass
class BlowdownSim:
    """Outcome of simulating the stepwise contraction of a curve set."""

    ok: bool
    reason: str | None
    detail: str | None
    order: tuple[int, ...]
    final: LocalBlowdownModel = field(repr=False)

    def __bool__(self) -> bool:
        return self.ok


def run_contraction(model: LocalBlowdownModel, pool: Iterable[int]) -> BlowdownSim:
    """Contract the curves of `pool`, present in the model, one at a time,
    the lowest eligible id first, until none is left; the model's other
    curves stay put.

    Contracting a curve changes only its partners, so only they are
    re-tested: `eligible` is a heap holding every eligible pool curve, plus
    stale entries dropped when they surface.
    """
    pool = set(pool)
    eligible = [c for c in pool if model.is_eligible(c)]
    heapq.heapify(eligible)
    order: list[int] = []
    while pool:
        if not eligible:
            candidates = sorted(c for c in pool if model.is_candidate(c))
            if not candidates:
                return BlowdownSim(
                    False,
                    NO_MINUS_ONE,
                    f"no contractible (-1)-curve among {sorted(pool)}",
                    tuple(order),
                    model,
                )
            return BlowdownSim(
                False,
                NON_SNC_CONTRACTION,
                f"every (-1)-curve in {candidates} meets a partner twice or has valence > 2",
                tuple(order),
                model,
            )
        pick = heapq.heappop(eligible)
        if pick not in pool or not model.is_eligible(pick):
            continue
        partners = model.partners(pick)
        model.contract(pick)
        pool.discard(pick)
        order.append(pick)
        for a in partners:
            if a in pool and model.is_eligible(a):
                heapq.heappush(eligible, a)
    return BlowdownSim(True, None, None, tuple(order), model)


def smooth_point_blowdown(config: CurveConfig, gamma: Iterable[int]) -> BlowdownSim:
    """Simulate contracting the whole set `gamma` to a smooth point.

    Succeeds exactly when repeated (−1)-curve contractions empty the set while
    preserving normal crossings; the final local model then reports the
    surviving adjacent curves, their mutual crossing counts and coefficients.
    The Gram factors come from the configuration's memo (`factor_blocks`).
    """
    gamma_set = frozenset(gamma)
    if not gamma_set:
        raise ValueError("gamma must be nonempty")
    blocks = factor_blocks(config, gamma_set)
    if blocks is None:
        raise ValueError("gram matrix of gamma must be negative definite")
    result = run_contraction(LocalBlowdownModel.from_config(config, gamma_set), gamma_set)
    if result.ok:
        require_unimodular(gamma_set, blocks)
    return result


def require_unimodular(ids: Iterable[int], blocks: Iterable[Block]) -> None:
    """Raise ``TheoremViolationError`` unless the Gram matrix of a set `ids`
    that contracted to smooth points, factored as `blocks`, has determinant
    ±1: the product of its blocks' determinants."""
    det = 1
    for block in blocks:
        det *= block.factor.determinant()
    if abs(det) != 1:
        raise TheoremViolationError(
            f"set {sorted(ids)} contracted to smooth points but its Gram "
            f"determinant is {det}"
        )
