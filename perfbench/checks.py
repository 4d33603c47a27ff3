"""Independent checks of logsurf's outputs.

Nothing here asks logsurf for an expected value.  Intersection numbers are
recounted from the raw curve and point lists, linear systems and
determinants are solved by the plain `Fraction` elimination below, the
corner condition is decided intersection-theoretically instead of by the
contraction simulator, and chain discrepancies come from Hirzebruch–Jung
continuants (Kollár–Mori, *Birational Geometry of Algebraic Varieties*,
§4.1).  Every check returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

# ---------------------------------------------------------------------------
# raw intersection data


@dataclass(frozen=True)
class Raw:
    """A configuration read straight from the lists of its scenario document."""

    genus: dict[int, int]
    selves: dict[int, int]
    coeff: dict[int, Fraction]
    cross: dict[tuple[int, int], int]

    @classmethod
    def of(cls, scenario: dict) -> "Raw":
        cross: dict[tuple[int, int], int] = {}
        for p in scenario["points"]:
            if len(set(p["incident"])) == 2:
                key = tuple(sorted(p["incident"]))
                cross[key] = cross.get(key, 0) + 1
        curves = scenario["curves"]
        return cls(
            {c["id"]: c["genus"] for c in curves},
            {c["id"]: c["self_intersection"] for c in curves},
            {c["id"]: Fraction(c["coeff"]) for c in curves},
            cross,
        )

    def pair(self, i: int, j: int) -> int:
        if i == j:
            return self.selves[i]
        return self.cross.get((i, j) if i < j else (j, i), 0)

    def meets(self, i: int, group: Iterable[int]) -> bool:
        return any(self.pair(i, m) > 0 for m in group)

    def components(self, subset: Iterable[int]) -> list[frozenset[int]]:
        todo = set(subset)
        out = []
        while todo:
            comp = {min(todo)}
            frontier = list(comp)
            while frontier:
                cur = frontier.pop()
                for other in todo - comp:
                    if self.pair(cur, other) > 0:
                        comp.add(other)
                        frontier.append(other)
            out.append(frozenset(comp))
            todo -= comp
        return sorted(out, key=min)


# ---------------------------------------------------------------------------
# exact linear algebra, written out here


def solve(rows: Sequence[Sequence[int]], rhs: Sequence[Fraction | int]) -> list[Fraction]:
    """Gauss–Jordan elimination over `Fraction`; raises ValueError if singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def det(rows: Sequence[Sequence[int]]) -> Fraction:
    """Determinant by pivoted elimination over `Fraction`."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


# ---------------------------------------------------------------------------
# states: residuals and classification


def log_degree_gaps(
    raw: Raw, contracted: frozenset[int], discrepancies: dict[int, Fraction]
) -> list[str]:
    """The log degree on each contracted curve, recounted raw, must be 0.

    The residual is minus the reported discrepancy on contracted curves and
    the stated coefficient elsewhere.  The Gram matrix of a contractible set
    is invertible, so vanishing degrees pin every discrepancy down.
    """
    if set(discrepancies) != set(contracted):
        return [f"discrepancies cover {sorted(discrepancies)}, not {sorted(contracted)}"]
    residual = dict(raw.coeff)
    for cid, a in discrepancies.items():
        residual[cid] = -a
    out = []
    for i in sorted(contracted):
        total = Fraction(2 * raw.genus[i] - 2 - raw.selves[i])
        for j, r in residual.items():
            total += r * raw.pair(i, j)
        if total != 0:
            out.append(f"log degree on contracted curve {i} is {total}, not 0")
    return out


def is_corner(raw: Raw, contracted: frozenset[int], component: frozenset[int]) -> bool:
    """Whether `component` contracts onto a normal-crossing corner of the boundary.

    Exactly two uncontracted curves meet it, both of coefficient 1; the
    component's Gram determinant is ±1, so every curve through the image
    point is Cartier there; and the images of the two curves meet with
    intersection number exactly 1, computed from the pullback correction.
    Two Cartier curves meeting with multiplicity 1 force a smooth point and a
    transverse crossing.
    """
    comp = sorted(component)
    adjacent = [c for c in sorted(raw.coeff) if c not in contracted and raw.meets(c, comp)]
    if len(adjacent) != 2:
        return False
    a, b = adjacent
    if raw.coeff[a] != 1 or raw.coeff[b] != 1:
        return False
    gram_rows = [[raw.pair(x, y) for y in comp] for x in comp]
    if abs(det(gram_rows)) != 1:
        return False
    lam = solve(gram_rows, [-raw.pair(a, m) for m in comp])
    return raw.pair(a, b) + sum(l * raw.pair(b, m) for l, m in zip(lam, comp)) == 1


def expected_class(raw: Raw, contracted: frozenset[int], residual: dict[int, Fraction]) -> str:
    """The classification rule applied to the residuals."""
    on_s = [residual[c] for c in contracted]
    if any(v > 1 for v in on_s):
        return "NOT_LC"
    for comp in raw.components(contracted):
        if any(residual[c] == 1 for c in comp) and not is_corner(raw, contracted, comp):
            return "LOG_CANONICAL"
    uncontracted = [c for c in raw.coeff if c not in contracted]
    if all(v < 1 for v in on_s) and all(raw.coeff[c] < 1 for c in uncontracted):
        return "KLT"
    return "LOG_TERMINAL"


def check_state(
    scenario: dict, contracted: frozenset[int], verdict: str, discrepancies: dict[int, Fraction]
) -> list[str]:
    """A classified state: raw log degrees vanish and the verdict follows the rule."""
    raw = Raw.of(scenario)
    gaps = log_degree_gaps(raw, contracted, discrepancies)
    if gaps:
        return gaps
    residual = dict(raw.coeff)
    for cid, a in discrepancies.items():
        residual[cid] = -a
    want = expected_class(raw, contracted, residual)
    if verdict != want:
        return [f"state {sorted(contracted)} classified {verdict}, the rule gives {want}"]
    return []


# ---------------------------------------------------------------------------
# Hirzebruch–Jung chains


def continuant(bs: Sequence[int]) -> int:
    """Determinant of the tridiagonal matrix with b_i on the diagonal, −1 beside it."""
    prev, cur = 0, 1
    for b in bs:
        prev, cur = cur, b * cur - prev
    return cur


def chain_discrepancies(
    bs: Sequence[int], left: Fraction = Fraction(0), right: Fraction = Fraction(0)
) -> list[Fraction]:
    """Discrepancies of a contracted chain of rational (−b_i)-curves.

    `left` and `right` are the coefficients of the uncontracted curves that
    meet the first and the last curve once.  With n = [b_1..b_r],
    μ_i = [b_1..b_{i−1}] and ν_i = [b_{i+1}..b_r], the inverse of minus the
    Gram matrix is μ_min ν_max / n, and the crepant system gives
    a_i = −1 + ((1 − left)·ν_i + (1 − right)·μ_i) / n.
    """
    n = continuant(bs)
    r = len(bs)
    return [
        -1 + ((1 - left) * continuant(bs[i + 1 :]) + (1 - right) * continuant(bs[:i])) / Fraction(n)
        for i in range(r)
    ]


def check_chain_state(
    bs: Sequence[int],
    left: Fraction,
    right: Fraction,
    verdict: str,
    discrepancies: dict[int, Fraction],
    determinant: Fraction,
) -> list[str]:
    """Whole-chain contraction of curves 1..r against the closed forms."""
    out = []
    r = len(bs)
    want = dict(zip(range(1, r + 1), chain_discrepancies(bs, left, right)))
    if discrepancies != want:
        bad = [i for i in want if discrepancies.get(i) != want[i]]
        out.append(f"chain discrepancies differ from the continuant form at curves {bad[:5]}")
    if determinant != (-1) ** r * continuant(bs):
        out.append(f"chain determinant {determinant} is not (-1)^{r}·{continuant(bs)}")
    if left == 0 and right == 0 and verdict != "KLT":
        out.append(f"coefficient-0 chain classified {verdict}, not KLT")
    return out


def check_minimize_doc(scenario: dict, doc: dict) -> list[str]:
    """A coefficient-0 chain minimised over a point base from nothing.

    Only (−2)-curves have log degree 0, and contracting (−2)-runs is crepant,
    so the run flops exactly the (−2)-curves in ascending id order and never
    blows down.  Recorded discrepancies are the continuant form on each
    contracted run, whose neighbours carry coefficient 0.
    """
    bs = [-c["self_intersection"] for c in sorted(scenario["curves"], key=lambda c: c["id"])]
    minus_two = [i + 1 for i, b in enumerate(bs) if b == 2]
    steps = doc["steps"]
    out = []
    if doc["scenario_digest"] != scenario_digest(scenario):
        out.append("trace digest does not match the scenario")
    if [s["kind"] for s in steps] != ["flop"] * len(steps):
        out.append("minimisation of a coefficient-0 chain recorded a non-flop step")
    if [s["curve"] for s in steps] != minus_two:
        out.append(f"flops {[s['curve'] for s in steps]}, expected the (-2)-curves {minus_two}")
    if doc["flop_minimal_index"] != len(steps):
        out.append("flop_minimal_index is not the number of flops")
    if doc["start"] != [] or doc["end"] != minus_two:
        out.append(f"trace runs {doc['start']} -> {doc['end']}, expected [] -> {minus_two}")
    contracted: set[int] = set()
    for index, step in enumerate(steps):
        for label, ids in (("before", contracted), ("after", contracted | {step["curve"]})):
            want = _chain_run_discrepancies(bs, ids)
            got = {int(k): Fraction(v) for k, v in step[f"discrepancies_{label}"].items()}
            if got != want:
                out.append(f"step {index}: discrepancies {label} differ from the continuant form")
        _check_epsilon(step, Fraction(0), out, index)
        contracted.add(step["curve"])
    return out


def _chain_run_discrepancies(bs: Sequence[int], ids: set[int]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    run: list[int] = []
    for cid in list(range(1, len(bs) + 1)) + [None]:
        if cid in ids:
            run.append(cid)
            continue
        if run:
            values = chain_discrepancies([bs[i - 1] for i in run])
            out.update(zip(run, values))
            run = []
    return out


# ---------------------------------------------------------------------------
# decomposition traces of generated crepant pairs


def scenario_digest(scenario: dict) -> str:
    """SHA-256 of the canonical configuration, rebuilt from the scenario document."""
    canonical = {
        "curves": [
            [c["id"], c["genus"], c["self_intersection"], c["coeff"]]
            for c in sorted(scenario["curves"], key=lambda c: c["id"])
        ],
        "points": [
            [p["id"], sorted(p["incident"])]
            for p in sorted(scenario["points"], key=lambda p: p["id"])
        ],
        "picard_rank_of_model": scenario.get("picard_rank_of_model"),
    }
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_epsilon(step: dict, coeff: Fraction, out: list[str], index: int) -> None:
    eps = step.get("epsilon")
    if eps is None:
        out.append(f"step {index}: flop without a perturbation certificate")
        return
    chosen = Fraction(eps["chosen"])
    if eps["supremum"] is None:
        if chosen != Fraction(1, 2):
            out.append(f"step {index}: unbounded perturbation should choose 1/2, not {chosen}")
        return
    supremum = Fraction(eps["supremum"])
    if not 0 < supremum <= 1 - coeff or chosen != supremum / 2:
        out.append(f"step {index}: perturbation certificate {eps} is inconsistent")


def check_decomposition_doc(
    scenario: dict, source: frozenset[int], target: frozenset[int], doc: dict
) -> list[str]:
    """A trace of a generated pair, checked from the documents alone.

    Crepancy of the pair forces every contracted curve's discrepancy to be
    minus its coefficient.  Phase 1 contracts the new curves of coefficient
    below 1 in ascending id order, phase 2 the coefficient-1 curves; each
    blow-down's order is the adjacent contracted components, then the curve.
    """
    coeff = {c["id"]: Fraction(c["coeff"]) for c in scenario["curves"]}
    new = sorted(target - source)
    flops = [c for c in new if coeff[c] < 1]
    downs = {c for c in new if coeff[c] == 1}
    steps = doc["steps"]
    kinds = [s["kind"] for s in steps]
    out = []
    if doc["scenario_digest"] != scenario_digest(scenario):
        out.append("trace digest does not match the scenario")
    if doc["start"] != sorted(source) or doc["end"] != sorted(target):
        out.append(f"trace runs {doc['start']} -> {doc['end']}")
    if kinds != ["flop"] * len(flops) + ["blowdown"] * len(downs):
        out.append(f"step kinds {kinds} are not {len(flops)} flops then {len(downs)} blow-downs")
    if doc["flop_minimal_index"] != len(flops):
        out.append(f"flop_minimal_index {doc['flop_minimal_index']}, expected {len(flops)}")
    if [s["curve"] for s in steps[: len(flops)]] != flops:
        out.append(f"flop steps {[s['curve'] for s in steps[:len(flops)]]}, expected {flops}")
    if sorted(s["curve"] for s in steps[len(flops) :]) != sorted(downs):
        out.append("blow-down steps are not the coefficient-1 curves")
    if out:
        return out
    raw = Raw.of(scenario)
    contracted = set(source)
    for index, step in enumerate(steps):
        cid = step["curve"]
        for label, ids in (("before", contracted), ("after", contracted | {cid})):
            got = {int(k): Fraction(v) for k, v in step[f"discrepancies_{label}"].items()}
            if got != {i: -coeff[i] for i in ids}:
                out.append(f"step {index}: discrepancies {label} are not minus the coefficients")
        if step["kind"] == "flop":
            _check_epsilon(step, coeff[cid], out, index)
        else:
            adjacent = set()
            for comp in raw.components(contracted):
                if raw.meets(cid, comp):
                    adjacent |= comp
            order = step.get("order") or []
            if order[-1:] != [cid] or len(set(order)) != len(order) or set(order[:-1]) != adjacent:
                out.append(f"step {index}: blow-down order {order} is not its adjacent set then {cid}")
        contracted.add(cid)
    return out

