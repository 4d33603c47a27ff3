"""Independent reference computations used to cross-check the library.

Everything here recomputes results from first principles along different
algorithmic routes than the implementation: determinants by Laplace
expansion, linear systems by plain pivoted elimination, intersection data
recounted from the raw point lists, and discrepancy-(−1) valuations probed
by explicit bounded blow-up towers.
"""

from __future__ import annotations

import copy
import itertools
import random
import re
from fractions import Fraction

from logsurf import (
    CurveConfig,
    DecompositionTrace,
    EpsilonChoice,
    MoveKind,
    MoveRecord,
    PointBase,
    SurfaceState,
    TargetBase,
    Violation,
    at_point,
    blow_up,
    free_point_on,
    is_log_blowdown,
    is_log_flopping,
    next_curve_id,
)
from logsurf.cli import parse_fraction


# ---------------------------------------------------------------------------
# exact linear algebra, the long way round

def laplace_det(rows):
    """Determinant by first-row Laplace expansion over remaining-column masks."""
    n = len(rows)
    if n == 0:
        return 1
    memo = {}

    def minor(mask):
        if mask == 0:
            return 1
        if mask in memo:
            return memo[mask]
        row = n - bin(mask).count("1")
        total = 0
        sign = 1
        for col in range(n):
            bit = 1 << col
            if mask & bit:
                entry = rows[row][col]
                if entry:
                    total += sign * entry * minor(mask & ~bit)
                sign = -sign
        memo[mask] = total
        return total

    return minor((1 << n) - 1)


def brute_negative_definite(rows) -> bool:
    """Sign-check the determinant of every nonempty principal submatrix."""
    n = len(rows)
    for size in range(1, n + 1):
        want_positive = size % 2 == 0
        for subset in itertools.combinations(range(n), size):
            sub = [[rows[i][j] for j in subset] for i in subset]
            det = laplace_det(sub)
            if det == 0 or (det > 0) != want_positive:
                return False
    return True


def quadratic_form(rows, vector):
    return sum(
        vector[i] * rows[i][j] * vector[j]
        for i in range(len(rows))
        for j in range(len(rows))
    )


def solve_linear(rows, rhs):
    """Plain pivoted Gaussian elimination over Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("singular system")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] / a[i][i] for i in range(n))


def callback_post_order(roots, neighbours, weight):
    """The forest search as it was written with callbacks: `neighbours(v)`
    lists v's neighbours in the order to take them and `weight(child,
    parent)` gives an edge's weight.  Returns the reverse pre-order of a
    stack search marking each vertex when pushed, and each vertex's
    children as (position, weight), or None for the children when a
    neighbour other than the parent is reached twice.  The reference the
    callback-free `ratlin.forest_post_order` must agree with."""
    parent = {}
    order = []
    forest = True
    for root in roots:
        if root in parent:
            continue
        parent[root] = None
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in neighbours(v):
                if u == parent[v]:
                    continue
                if u in parent:
                    forest = False
                    continue
                parent[u] = v
                stack.append(u)
    order.reverse()
    if not forest:
        return order, None
    position = {v: k for k, v in enumerate(order)}
    children = [[] for _ in order]
    for k, v in enumerate(order):
        if parent[v] is not None:
            children[position[parent[v]]].append((k, weight(v, parent[v])))
    return order, children


# ---------------------------------------------------------------------------
# intersection data recounted from the raw lists

def crossing_counts(config: CurveConfig) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for p in config.points:
        if len(p.incident) == 2:
            key = tuple(sorted(p.incident))
            counts[key] = counts.get(key, 0) + 1
    return counts


def raw_pairing(config: CurveConfig, counts, i: int, j: int) -> int:
    if i == j:
        return next(c.self_intersection for c in config.curves if c.id == i)
    return counts.get(tuple(sorted((i, j))), 0)


def raw_components(config: CurveConfig, subset) -> list[frozenset[int]]:
    counts = crossing_counts(config)
    members = set(subset)
    out = []
    todo = set(members)
    while todo:
        seed = min(todo)
        comp = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for other in members:
                if other not in comp and raw_pairing(config, counts, cur, other) > 0:
                    comp.add(other)
                    frontier.append(other)
        out.append(frozenset(comp))
        todo -= comp
    return out


def residual_identity_gaps(config: CurveConfig, contracted, residual):
    """For each contracted curve, the (expected-zero) log degree recomputed raw."""
    counts = crossing_counts(config)
    gaps = []
    for i in sorted(contracted):
        curve = next(c for c in config.curves if c.id == i)
        total = Fraction(2 * curve.genus - 2 - curve.self_intersection)
        for other in config.curves:
            total += residual[other.id] * raw_pairing(config, counts, other.id, i)
        if total != 0:
            gaps.append((i, total))
    return gaps


# ---------------------------------------------------------------------------
# corner geometry without the contraction simulator

def independent_corner_check(config: CurveConfig, component, contracted, residual) -> bool:
    """Decide whether a contracted component lands on a two-branch boundary corner.

    Works intersection-theoretically: the surviving curves through the image
    point are those meeting the component; the image intersection number of
    the two candidates is computed by solving for the pullback correction —
    no stepwise contraction involved.
    """
    counts = crossing_counts(config)
    comp = sorted(component)
    adjacent = sorted(
        c.id
        for c in config.curves
        if c.id not in contracted
        and any(raw_pairing(config, counts, c.id, m) > 0 for m in comp)
    )
    if len(adjacent) != 2:
        return False
    a, b = adjacent
    coeff = {c.id: c.boundary_coeff for c in config.curves}
    if coeff[a] != 1 or coeff[b] != 1:
        return False
    gram_rows = [
        [raw_pairing(config, counts, x, y) for y in comp] for x in comp
    ]
    rhs = [-raw_pairing(config, counts, a, m) for m in comp]
    try:
        lam = solve_linear(gram_rows, rhs)
    except ValueError:
        return False
    image_cross = Fraction(raw_pairing(config, counts, a, b)) + sum(
        l * raw_pairing(config, counts, b, m) for l, m in zip(lam, comp)
    )
    return image_cross == 1


def depth3_probe(config: CurveConfig, contracted, residual) -> list[str]:
    """Hunt for discrepancy-(−1) valuations of depth ≤ 3 over bad centres.

    The residual of a curve extracted by blowing up a crossing is the sum of
    the two incident residuals minus 1, so residual-1 valuations only arise
    over crossings of two residual-1 curves; the probe therefore only needs
    to expand those.  A residual-1 valuation is acceptable when its centre is
    a crossing of two surviving boundary curves (a corner already on the
    model) or the image point of a contracted component that independently
    verifies as a corner.  Everything else is reported.
    """
    violations: list[str] = []
    components = raw_components(config, contracted)
    by_curve = {m: comp for comp in components for m in comp}
    corner_cache: dict[frozenset[int], bool] = {}

    def component_ok(comp) -> bool:
        if comp not in corner_cache:
            corner_cache[comp] = independent_corner_check(
                config, comp, contracted, residual
            )
        return corner_cache[comp]

    for cid in sorted(contracted):
        if residual[cid] > 1:
            violations.append(f"contracted curve {cid} has residual {residual[cid]} > 1")
        elif residual[cid] == 1 and not component_ok(by_curve[cid]):
            violations.append(
                f"contracted curve {cid} has residual 1 over a non-corner point"
            )

    def expand(e_left: Fraction, e_right: Fraction, origin, depth_left: int) -> None:
        e_new = e_left + e_right - 1
        if e_new > 1:
            violations.append(f"tower over {origin} reaches residual {e_new} > 1")
            return
        if e_new == 1:
            a, b = origin
            inside = [x for x in (a, b) if x in contracted]
            if inside and not component_ok(by_curve[inside[0]]):
                violations.append(
                    f"tower over crossing {origin} extracts a residual-1 valuation "
                    "whose centre is not a corner"
                )
        if depth_left == 0:
            return
        for e_old in (e_left, e_right):
            if e_new + e_old == 2:
                expand(e_new, e_old, origin, depth_left - 1)

    for p in config.points:
        if len(p.incident) == 2:
            a, b = sorted(p.incident)
            if residual[a] + residual[b] == 2:
                expand(residual[a], residual[b], (a, b), 2)
    return violations


# ---------------------------------------------------------------------------
# exhaustive order exploration and candidate scans for the drivers

def explore_decomposition_orders(config: CurveConfig, s1, s2):
    """Try every legal move at every reachable state between the two sets.

    Returns the set of (flop count, blow-down count) outcomes over all
    maximal move sequences; raises AssertionError if any sequence strands
    short of the target set.
    """
    s1 = frozenset(s1)
    s2 = frozenset(s2)
    base = TargetBase(s2)
    seen: dict[frozenset[int], set[tuple[int, int]]] = {}

    def explore(current: frozenset[int]) -> set[tuple[int, int]]:
        if current == s2:
            return {(0, 0)}
        if current in seen:
            return seen[current]
        state = SurfaceState(config, current, base)
        moves = []
        for cid in sorted(s2 - current):
            coeff = next(c.boundary_coeff for c in config.curves if c.id == cid)
            if coeff < 1:
                if is_log_flopping(state, cid):
                    moves.append(("flop", cid))
            elif is_log_blowdown(state, cid):
                moves.append(("down", cid))
        if not moves:
            raise AssertionError(f"no move applies at {sorted(current)}")
        outcomes: set[tuple[int, int]] = set()
        for kind, cid in moves:

            for flops, downs in explore(current | {cid}):
                outcomes.add(
                    (flops + (kind == "flop"), downs + (kind == "down"))
                )
        seen[current] = outcomes
        return outcomes

    return explore(s1)


def lowest_passing(state: SurfaceState, predicate):
    """The passed check of the lowest-id curve in the base's scope, testing
    every curve of the scope in turn, or None: the reference scan for
    `moves.lowest_flop` and `moves.lowest_blowdown`.

    The scope is read from the raw curve list: every uncontracted curve
    over a point base, only those of the target over a target base.
    """
    scope = sorted(c.id for c in state.config.curves if c.id not in state.contracted)
    if isinstance(state.base, TargetBase):
        scope = [cid for cid in scope if cid in state.base.contracted_on_target]
    for cid in scope:
        check = predicate(state, cid)
        if check:
            return check
    return None


# ---------------------------------------------------------------------------
# stepwise contraction over a dense pair table

class DenseContraction:
    """A curve set plus every curve meeting it, contracted one curve at a time.

    Self-intersections and a dense table of every ordered pair's crossing
    count are recounted from the raw point lists; contracting e adds
    (A·e)(B·e) to every surviving pair A, B and (A·e)² to every A².
    """

    def __init__(self, config: CurveConfig, core) -> None:
        counts = crossing_counts(config)
        ids = [c.id for c in config.curves]
        core = set(core)
        near = {
            o for o in ids for m in core
            if o != m and raw_pairing(config, counts, o, m) > 0
        }
        self.genus = {c.id: c.genus for c in config.curves}
        self.core = core
        self.selves = {c: raw_pairing(config, counts, c, c) for c in core | near}
        self.table = {
            (a, b): raw_pairing(config, counts, a, b)
            for a in self.selves for b in self.selves if a != b
        }

    def eligible(self, e: int) -> bool:
        """A rational (−1)-curve meeting at most two curves, each once."""
        met = [self.table[(e, o)] for o in self.selves if o != e and self.table[(e, o)]]
        return (
            self.genus[e] == 0 and self.selves[e] == -1
            and len(met) <= 2 and all(m == 1 for m in met)
        )

    def contract(self, e: int) -> None:
        rest = [a for a in self.selves if a != e]
        for a in rest:
            self.selves[a] += self.table[(a, e)] ** 2
            for b in rest:
                if b != a:
                    self.table[(a, b)] += self.table[(a, e)] * self.table[(b, e)]
        for a in rest:
            del self.table[(a, e)], self.table[(e, a)]
        del self.selves[e]
        self.core.discard(e)

    def lowest_id_order(self, pool) -> tuple[int, ...]:
        """Contract the lowest eligible curve of `pool` until none is left."""
        pool = set(pool)
        order = []
        while (pick := next((c for c in sorted(pool) if self.eligible(c)), None)) is not None:
            self.contract(pick)
            pool.discard(pick)
            order.append(pick)
        return tuple(order)


def all_contraction_orders(config: CurveConfig, gamma) -> set[str]:
    """Outcomes ("ok"/"fail") of every eligible-choice contraction order."""
    results: set[str] = set()

    def rec(model: DenseContraction) -> None:
        if not model.core:
            results.add("ok")
            return
        eligible = [c for c in sorted(model.core) if model.eligible(c)]
        if not eligible:
            results.add("fail")
            return
        for pick in eligible:
            branch = copy.deepcopy(model)
            branch.contract(pick)
            rec(branch)

    rec(DenseContraction(config, gamma))
    return results


def random_symmetric_matrix(rng, n: int, low: int = -5, high: int = 5):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            value = rng.randint(low, high)
            rows[i][j] = value
            rows[j][i] = value
    return rows


# ---------------------------------------------------------------------------
# Hirzebruch–Jung chains in closed form

def continuant(bs) -> int:
    """The continuant [b_1, …, b_r]: the determinant of the tridiagonal
    matrix with b_i on the diagonal and −1 beside it.

    [] = 1, [b_1] = b_1 and [b_1, …, b_k] = b_k·[b_1, …, b_{k−1}] − [b_1, …, b_{k−2}].
    """
    before, current = 0, 1
    for b in bs:
        before, current = current, b * current - before
    return current


def chain_discrepancies(bs, left=Fraction(0), right=Fraction(0)) -> list[Fraction]:
    """Discrepancies of a chain of rational (−b_i)-curves contracted whole.

    `left` and `right` are the coefficients of uncontracted curves meeting
    the first and the last curve once (0 for a bare chain).  Minus the
    inverse Gram matrix has entries [b_1..b_{min−1}]·[b_{max+1}..b_r] / n,
    n = [b_1..b_r] (Kollár–Mori §4.1), and K·C_i = b_i − 2, which sums to
    a_i = −1 + ((1 − left)·[b_{i+1}..b_r] + (1 − right)·[b_1..b_{i−1}]) / n.
    """
    r = len(bs)
    prefix = [continuant(bs[:i]) for i in range(r)]
    suffix = [continuant(bs[i + 1:]) for i in range(r)]
    n = continuant(bs)
    return [
        Fraction((1 - left) * suffix[i] + (1 - right) * prefix[i], n) - 1
        for i in range(r)
    ]


# ---------------------------------------------------------------------------
# the move algebra, in plain Fractions over raw pairings

def raw_residuals(config: CurveConfig, contracted) -> dict[int, Fraction]:
    """Every curve's residual: on the contracted set the solution of its
    whole raw Gram system (−deg K|_i minus the uncontracted coefficients'
    pairings on the right), elsewhere the curve's coefficient."""
    counts = crossing_counts(config)
    ids = sorted(contracted)
    residual = {c.id: Fraction(c.boundary_coeff) for c in config.curves}
    rhs = []
    for i in ids:
        curve = next(c for c in config.curves if c.id == i)
        total = Fraction(2 * curve.genus - 2 - curve.self_intersection)
        for c in config.curves:
            if c.id not in contracted:
                total += c.boundary_coeff * raw_pairing(config, counts, c.id, i)
        rhs.append(-total)
    if ids:
        rows = [[raw_pairing(config, counts, i, j) for j in ids] for i in ids]
        residual.update(zip(ids, solve_linear(rows, rhs)))
    return residual


def raw_log_degree(config: CurveConfig, residual, cid: int) -> Fraction:
    """deg K|_C + Σ_k e_k (C_k·C) over every curve k, C itself included."""
    counts = crossing_counts(config)
    curve = next(c for c in config.curves if c.id == cid)
    total = Fraction(2 * curve.genus - 2 - curve.self_intersection)
    for other in config.curves:
        total += residual[other.id] * raw_pairing(config, counts, other.id, cid)
    return total


def raw_multiplicities(config: CurveConfig, contracted, cid: int) -> dict[int, Fraction]:
    """λ solving gram(S)·λ = −(C·E_j)_j over the whole contracted set S at
    once, by id."""
    counts = crossing_counts(config)
    ids = sorted(contracted)
    if not ids:
        return {}
    rows = [[raw_pairing(config, counts, i, j) for j in ids] for i in ids]
    rhs = [-raw_pairing(config, counts, cid, j) for j in ids]
    return dict(zip(ids, solve_linear(rows, rhs)))


def raw_image_self_intersection(config: CurveConfig, multiplicities, cid: int) -> Fraction:
    """C² + Σ λ_j (C·E_j), summed term by term."""
    counts = crossing_counts(config)
    total = Fraction(raw_pairing(config, counts, cid, cid))
    for j, value in multiplicities.items():
        total += value * raw_pairing(config, counts, cid, j)
    return total


def raw_epsilon_bound(config: CurveConfig, residual, multiplicities, cid: int):
    """(supremum, chosen): the least of 1 − d and (1 − e_j)/λ_j over every
    λ_j > 0, and half of it."""
    curve = next(c for c in config.curves if c.id == cid)
    bounds = [1 - Fraction(curve.boundary_coeff)]
    bounds += [(1 - residual[j]) / value for j, value in multiplicities.items() if value > 0]
    supremum = min(bounds)
    return supremum, supremum / 2


# ---------------------------------------------------------------------------
# the seeded generator and the validator, by full rescans

def rescan_crepant_towers(template: CurveConfig, depth: int, seed: int):
    """Yield (configuration, new curve ids) after each of 0..`depth` seeded
    crepant blow-ups, listing every admissible centre afresh at each step:
    crossing points by id whose two coefficients sum to at least 1, then
    coefficient-1 curves in curve order."""
    rng = random.Random(seed)
    config = template
    new_ids = []
    yield config, frozenset()
    for _ in range(depth):
        choices = []
        for p in sorted(config.points, key=lambda p: p.id):
            if len(p.incident) == 2:
                total = sum(
                    (config.curve(cid).boundary_coeff for cid in p.incident), start=0
                )
                if total >= 1:
                    choices.append((at_point(p.id), total - 1))
        for c in config.curves:
            if c.boundary_coeff == 1:
                choices.append((free_point_on(c.id), 0))
        if not choices:
            raise ValueError("no crepant blow-up centre")
        target, coeff = rng.choice(choices)
        new_ids.append(next_curve_id(config))
        config = blow_up(config, target, coeff)
        yield config, frozenset(new_ids)


def rescan_violations(curves, points) -> tuple[Violation, ...]:
    """Every structural violation of raw curve and point rows, in the order
    the validator reports them: curve by curve, then point by point."""
    out = []
    seen_curves = set()
    for c in curves:
        if c.id in seen_curves:
            out.append(Violation("DuplicateId", f"curve id {c.id} appears twice"))
        seen_curves.add(c.id)
        for name in ("id", "genus", "self_intersection"):
            value = getattr(c, name)
            if type(value) is not int:
                out.append(
                    Violation(
                        "BadType",
                        f"curve {c.id!r} has {name} {value!r} of type "
                        f"{type(value).__name__}, not int",
                    )
                )
        if type(c.boundary_coeff) not in (Fraction, int):
            out.append(
                Violation(
                    "BadType",
                    f"curve {c.id!r} has boundary_coeff {c.boundary_coeff!r} of type "
                    f"{type(c.boundary_coeff).__name__}, not Fraction or int",
                )
            )
        elif not (0 <= c.boundary_coeff <= 1):
            out.append(
                Violation("BadCoefficient", f"curve {c.id} has coefficient {c.boundary_coeff}")
            )
        if type(c.genus) is int and c.genus < 0:
            out.append(Violation("BadGenus", f"curve {c.id} has genus {c.genus}"))
    seen_points = set()
    for p in points:
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
        if len(p.incident) > 2:
            out.append(
                Violation("TriplePoint", f"point {p.id} meets curves {sorted(p.incident)}")
            )
        if not p.incident:
            out.append(Violation("EmptyPoint", f"point {p.id} touches no curve"))
        for cid in p.incident:
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
    return tuple(out)


# ---------------------------------------------------------------------------
# the document readers as they were written, one typed-reader call per field

_FIELD_ID = re.compile(r"0|-?[1-9][0-9]*")


def _field_path(parts) -> str:
    text = parts[0]
    for part in parts[1:]:
        text += f"[{part}]" if type(part) is int else f".{part}"
    return text


def _field_required(doc: dict, read, path):
    key = path[-1]
    if key not in doc:
        raise ValueError(f"{_field_path(path)} is missing")
    return read(doc[key], path)


def _field_int(value, path) -> int:
    if type(value) is not int:
        raise ValueError(f"{_field_path(path)} must be an integer, got {value!r}")
    return value


def _field_ints(value, path) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"{_field_path(path)} must be a list of integers, got {value!r}")
    return [_field_int(item, (*path, i)) for i, item in enumerate(value)]


def _field_distinct_ints(value, path) -> list[int]:
    ids = _field_ints(value, path)
    if len(set(ids)) != len(ids):
        raise ValueError(f"{_field_path(path)} repeats a curve: {ids}")
    return ids


def _field_fraction(value, parsed: dict, path) -> Fraction:
    fraction = parsed.get(value) if type(value) is str else None
    if fraction is None:
        try:
            fraction = parse_fraction(value)
        except ValueError as exc:
            raise ValueError(f"{_field_path(path)}: {exc}") from None
        if type(value) is str:
            parsed[value] = fraction
    return fraction


def _field_object(value, path) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{_field_path(path)} must be a JSON object, got {value!r}")
    return value


def _field_objects(value, path) -> list[dict]:
    if not isinstance(value, list):
        raise ValueError(f"{_field_path(path)} must be a list, got {value!r}")
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise ValueError(f"{_field_path((*path, i))} must be a JSON object, got {item!r}")
    return value


def _field_kind(value, path) -> MoveKind:
    try:
        return MoveKind(value)
    except ValueError as exc:
        raise ValueError(f"{_field_path(path)}: {exc}") from None


def _field_fractions(data: dict, parsed: dict, path) -> dict[int, Fraction]:
    out = {}
    for key, value in data.items():
        cid = int(key) if _FIELD_ID.fullmatch(key) else None
        if cid is None:
            raise ValueError(f"{_field_path(path)} has a key {key!r} that is not a curve id")
        out[cid] = _field_fraction(value, parsed, (*path, key))
    return out


def field_config_from_json(data):
    """A scenario document as (config, default contracted, default base),
    read field by field, each through its typed reader; the reference the
    readers of `logsurf.cli` must agree with, error messages included."""
    if not isinstance(data, dict):
        raise ValueError("scenario document must be a JSON object")
    parsed: dict = {}
    curves = [
        (
            _field_required(entry, _field_int, ("curves", i, "id")),
            _field_int(entry.get("genus", 0), ("curves", i, "genus")),
            _field_required(entry, _field_int, ("curves", i, "self_intersection")),
            _field_fraction(entry.get("coeff", 0), parsed, ("curves", i, "coeff")),
        )
        for i, entry in enumerate(_field_objects(data.get("curves", []), ("curves",)))
    ]
    points = []
    for i, entry in enumerate(_field_objects(data.get("points", []), ("points",))):
        incident = _field_required(entry, _field_distinct_ints, ("points", i, "incident"))
        points.append((_field_required(entry, _field_int, ("points", i, "id")), incident))
    rank = data.get("picard_rank_of_model")
    config = CurveConfig.build(
        curves, points, None if rank is None else _field_int(rank, ("picard_rank_of_model",))
    )
    contracted = frozenset(_field_distinct_ints(data.get("contracted", []), ("contracted",)))
    raw_base = data.get("base", "point")
    if raw_base == "point":
        base = PointBase()
    elif isinstance(raw_base, dict) and "target" in raw_base:
        base = TargetBase(_field_distinct_ints(raw_base["target"], ("base", "target")))
    else:
        raise ValueError(f"expected base 'point' or {{'target': IDS}}, got {raw_base!r}")
    return config, contracted, base


def field_trace_from_json(data):
    """A trace document as (scenario digest, trace), read field by field
    and every discrepancy map in full, with the digest coerced by `str`;
    otherwise the reference of `field_config_from_json`."""
    if not isinstance(data, dict):
        raise ValueError("trace document must be a JSON object")
    parsed: dict = {}
    steps = []

    def fraction(value, path):
        return _field_fraction(value, parsed, path)

    for i, entry in enumerate(_field_objects(data.get("steps", []), ("steps",))):
        kind = _field_required(entry, _field_kind, ("steps", i, "kind"))
        epsilon = None
        order = None
        if kind is MoveKind.FLOP:
            eps = _field_required(entry, _field_object, ("steps", i, "epsilon"))
            epsilon = EpsilonChoice(
                _field_required(eps, fraction, ("steps", i, "epsilon", "supremum")),
                _field_required(eps, fraction, ("steps", i, "epsilon", "chosen")),
            )
        else:
            order = tuple(_field_required(entry, _field_ints, ("steps", i, "order")))
        curve = _field_required(entry, _field_int, ("steps", i, "curve"))
        maps = []
        for name in ("discrepancies_before", "discrepancies_after"):
            path = ("steps", i, name)
            maps.append(_field_fractions(_field_required(entry, _field_object, path), parsed, path))
        steps.append(MoveRecord(kind, curve, *maps, epsilon=epsilon, order=order))
    end = frozenset(_field_required(data, _field_distinct_ints, ("end",)))
    raw_base = data.get("base")
    if raw_base is None:
        base = TargetBase(end)
    elif raw_base == "point":
        base = PointBase()
    else:
        raise ValueError(f"base: expected 'point' or no key, got {raw_base!r}")
    trace = DecompositionTrace(
        tuple(steps),
        _field_required(data, _field_int, ("flop_minimal_index",)),
        frozenset(_field_required(data, _field_distinct_ints, ("start",))),
        end,
        base,
    )
    return str(data.get("scenario_digest", "")), trace
