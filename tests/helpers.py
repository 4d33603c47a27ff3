"""Shared builders for the canonical test configurations, and for scenario
and trace documents.

Each builder returns a fresh ``CurveConfig``.  The two-step corner tower
(`corner_once`, `corner_twice`) is built through `blow_up` itself, so the
literal expected configurations in the surface tests double as checks of the
rewrite rules.
"""

from __future__ import annotations

import inspect
import json
from fractions import Fraction

import logsurf.cli as cli
from logsurf import CurveConfig, at_point, blow_up, free_point_on


def one_curve(genus: int, self_intersection: int, coeff) -> CurveConfig:
    return CurveConfig.build([(1, genus, self_intersection, coeff)])


def du_val_a1() -> CurveConfig:
    """A single (−2)-curve with coefficient 0."""
    return one_curve(0, -2, 0)


def du_val_a1_half() -> CurveConfig:
    """A single (−2)-curve with coefficient 1/2."""
    return one_curve(0, -2, Fraction(1, 2))


def elliptic() -> CurveConfig:
    """A single genus-1 curve of self-intersection −1, coefficient 0."""
    return one_curve(1, -1, 0)


def chain() -> CurveConfig:
    """Two (−2)-curves crossing once, coefficients 0."""
    return CurveConfig.build(
        [(1, 0, -2, 0), (2, 0, -2, 0)],
        [(1, [1, 2])],
    )


def boundary_chain() -> CurveConfig:
    """Two (−2)-curves crossing once, both carrying coefficient 1."""
    return CurveConfig.build(
        [(1, 0, -2, 1), (2, 0, -2, 1)],
        [(1, [1, 2])],
    )


def corner() -> CurveConfig:
    """Two coefficient-1 curves of self-intersection 0 crossing once."""
    return CurveConfig.build(
        [(1, 0, 0, 1), (2, 0, 0, 1)],
        [(1, [1, 2])],
    )


def corner_once() -> CurveConfig:
    """The corner blown up at its crossing, new coefficient 1 (curve 3)."""
    return blow_up(corner(), at_point(1), 1)


def corner_twice() -> CurveConfig:
    """`corner_once` blown up at a free point of curve 3, new coefficient 0 (curve 4)."""
    return blow_up(corner_once(), free_point_on(3), 0)


def fresh(config: CurveConfig) -> CurveConfig:
    """An equal configuration with nothing cached on it."""
    return CurveConfig(config.curves, config.points, config.picard_rank_of_model)


def replace(record, **changes):
    """A copy of `record` with `changes`, rebuilt through its class's own
    `__init__` from the fields that constructor takes."""
    names = inspect.signature(type(record)).parameters
    return type(record)(**({name: getattr(record, name) for name in names} | changes))


def write_scenario(path, config, contracted=(), base=None) -> str:
    doc = cli.config_to_json(config, contracted, base)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


# One change to a discrepancy map of a trace document, each a mismatch that
# the replay must report at the changed step.
MAP_MUTATIONS = ("inherited value", "new value", "drop a key", "add a key", "swap two values")


def mutate_map(doc: dict, config: CurveConfig, index: int, field: str, mutation: str) -> None:
    """Apply `mutation`, one of `MAP_MUTATIONS`, to the `field` map
    ("discrepancies_before" or "discrepancies_after") of step `index` of a
    parsed trace document, in place.

    The new entry is the one the map added last: the step's own curve's, or
    the previous step's for a "before" map."""
    steps = doc["steps"]
    new = str(steps[index if field == "discrepancies_after" else index - 1]["curve"])
    record = steps[index][field]
    inherited = sorted(key for key in record if key != new)
    if mutation == "inherited value":
        record[inherited[0]] = str(Fraction(record[inherited[0]]) + 1)
    elif mutation == "new value":
        record[new] = str(Fraction(record[new]) - 1)
    elif mutation == "drop a key":
        del record[inherited[-1]]
    elif mutation == "add a key":
        extra = min(c.id for c in config.curves if str(c.id) not in record)
        record[str(extra)] = str(-config.curve(extra).boundary_coeff)
    else:
        other = next(key for key in inherited if record[key] != record[new])
        record[other], record[new] = record[new], record[other]
