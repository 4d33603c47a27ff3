"""Command-line interface: scenario files in, verdicts/traces/graphs out.

Scenario and trace documents are JSON with every rational written as an
exact fraction string ("p/q"); a SHA-256 digest of the configuration ties
each trace to its scenario.  Exit codes: 0 success, 2 validation or parse
failure, 3 broken internal guarantee or stuck decomposition.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, NoReturn

from .crepant import (
    Base,
    Classification,
    PointBase,
    SurfaceState,
    TargetBase,
)
from .decompose import (
    DecompositionTrace,
    MorphismSpec,
    decompose_morphism,
    minimize,
    verify_trace,
)
from .errors import (
    LogSurfaceError,
    StuckInPhase2Error,
    TheoremViolationError,
)
from .moves import EpsilonChoice, MoveKind, MoveRecord, is_log_flopping
from .surface import (
    BlowUpTarget,
    CurveConfig,
    at_point,
    blow_up,
    free_point_on,
    generic_point,
    next_curve_id,
    require_valid,
    validate_config,
)

if TYPE_CHECKING:
    import argparse

CLASS_NAMES = {
    Classification.NOT_LC: "NotLC",
    Classification.LOG_CANONICAL: "LogCanonical",
    Classification.LOG_TERMINAL: "LogTerminal",
    Classification.KLT: "KLT",
}


# ---------------------------------------------------------------------------
# parsing helpers

_FRACTION = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")
# An id as `str(id)` writes it: '0', or an optional '-' and ASCII digits
# without a leading zero.  `int()` alone would also read '0_4' as 4, ' 1' as
# 1 and '+1' as 1, and '03' and '-0' would alias 3 and 0.
_ID = re.compile(r"0|-?[1-9][0-9]*")


def parse_fraction(value: Any) -> Fraction:
    """An integer, or a string "p" or "p/q"; decimals and exponents are rejected.

    The string is stripped and matched once, and its two ASCII integers
    make the `Fraction`, which is `Fraction(value)` without its own parse.
    """
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        match = _FRACTION.fullmatch(value.strip())
        if match:
            p, q = match.groups()
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
    raise ValueError(f"expected an integer or a fraction string 'p/q', got {value!r}")


def _read_id(text: str) -> int | None:
    """The id that `text` spells, or None unless `text` is its one spelling."""
    return int(text) if _ID.fullmatch(text) else None


def parse_ids(text: str) -> tuple[int, ...]:
    """Comma-separated distinct curve ids; the error names the first
    malformed or repeated item."""
    text = text.strip()
    if not text:
        return ()
    ids = []
    for part in text.split(","):
        cid = _read_id(part)
        if cid is None:
            raise ValueError(
                f"bad curve id {part!r} in {text!r}: expected comma-separated "
                "integers without '+' or leading zeros"
            )
        if cid in ids:
            raise ValueError(f"curve id {part!r} is repeated in {text!r}")
        ids.append(cid)
    return tuple(ids)


def parse_base(text: str) -> Base:
    if text == "point":
        return PointBase()
    if text.startswith("target:"):
        return TargetBase(parse_ids(text[len("target:"):]))
    raise ValueError(f"expected 'point' or 'target:IDS', got {text!r}")


def parse_target(text: str) -> BlowUpTarget:
    if text == "generic":
        return generic_point()
    kind, _, ref = text.partition(":")
    make = {"point": at_point, "free": free_point_on}.get(kind)
    if make is None:
        raise ValueError(f"expected 'point:ID', 'free:CURVE' or 'generic', got {text!r}")
    rid = _read_id(ref)
    if rid is None:
        raise ValueError(
            f"bad id {ref!r} in {text!r}: expected an integer without '+' or leading zeros"
        )
    return make(rid)


# ---------------------------------------------------------------------------
# reading documents: every error names the path of the bad field
#
# A field's path is passed as a tuple of its parts, ("steps", 1, "order",
# 0), and spelled "steps[1].order[0]" only for an error: a valid document
# builds no path string.  The document readers fetch each field once, with
# `dict.get` and the sentinel `_MISSING` for a required field, and test its
# exact type inline, so they accept exactly the types `json.loads` returns:
# a `dict` or `list` subclass fails the test like any other wrong type.  A
# field that fails its test is handed to a raise-only builder below, which
# raises the field's one error message.

_Path = tuple[str | int, ...]

_MISSING = object()
_INT = {int}
_DICT = {dict}
# The name of a list that failed its test, and of its items, by item type.
_LISTS = {int: ("a list of integers", "an integer"), dict: ("a list", "a JSON object")}


def _path(parts: _Path) -> str:
    """The path of a field as an error names it, from its parts."""
    text = parts[0]
    for part in parts[1:]:
        text += f"[{part}]" if type(part) is int else f".{part}"
    return text


def _bad(value: Any, path: _Path, expected: str) -> NoReturn:
    """Raise the error of the field at `path`, missing or not `expected`: a
    bool, float or string in place of an integer is refused, not coerced."""
    if value is _MISSING:
        raise ValueError(f"{_path(path)} is missing")
    raise ValueError(f"{_path(path)} must be {expected}, got {value!r}")


def _bad_list(value: Any, path: _Path, item_type: type) -> NoReturn:
    """Raise the error of a list of `item_type` items that failed its inline
    test: missing, not a list, its first item of another type, or else, for
    a list of ids, a repeated id, since collapsing a repeat would change
    what the document says."""
    name, item_name = _LISTS[item_type]
    if type(value) is not list:
        _bad(value, path, name)
    for i, item in enumerate(value):
        if type(item) is not item_type:
            _bad(item, (*path, i), item_name)
    raise ValueError(f"{_path(path)} repeats a curve: {value}")


def _distinct_ids(value: Any) -> bool:
    """Whether `value` is a list of distinct exact `int`s, tested at C level."""
    return type(value) is list and {*map(type, value)} <= _INT and len({*value}) == len(value)


def _fraction(value: Any, parsed: dict[str, Fraction], path: _Path) -> Fraction:
    """`parse_fraction` of the field at `path`, a value that `parsed` does not
    hold yet; a string is entered in it.

    `parsed` maps the strings of a document read so far to their values, so
    that each distinct string is parsed once.  Only strings are keys: a JSON
    true or 1.0 equals 1 and hashes like it, so a table keyed on values
    would accept it as a cached "1".
    """
    if value is _MISSING:
        raise ValueError(f"{_path(path)} is missing")
    try:
        fraction = parse_fraction(value)
    except ValueError as exc:
        raise ValueError(f"{_path(path)}: {exc}") from None
    if type(value) is str:
        parsed[value] = fraction
    return fraction


# ---------------------------------------------------------------------------
# scenario documents

def config_from_json(data: Any) -> tuple[CurveConfig, frozenset[int], Base]:
    """Parse a scenario document into (config, default contracted, default base)."""
    if type(data) is not dict:
        raise ValueError("scenario document must be a JSON object")
    parsed: dict[str, Fraction] = {}
    entries = data.get("curves", [])
    if type(entries) is not list or not {*map(type, entries)} <= _DICT:
        _bad_list(entries, ("curves",), dict)
    curves = []
    for i, entry in enumerate(entries):
        cid = entry.get("id", _MISSING)
        if type(cid) is not int:
            _bad(cid, ("curves", i, "id"), "an integer")
        genus = entry.get("genus", 0)
        if type(genus) is not int:
            _bad(genus, ("curves", i, "genus"), "an integer")
        self_intersection = entry.get("self_intersection", _MISSING)
        if type(self_intersection) is not int:
            _bad(self_intersection, ("curves", i, "self_intersection"), "an integer")
        raw = entry.get("coeff", 0)
        coeff = parsed.get(raw) if type(raw) is str else None
        if coeff is None:
            coeff = _fraction(raw, parsed, ("curves", i, "coeff"))
        curves.append((cid, genus, self_intersection, coeff))
    entries = data.get("points", [])
    if type(entries) is not list or not {*map(type, entries)} <= _DICT:
        _bad_list(entries, ("points",), dict)
    points = []
    for i, entry in enumerate(entries):
        incident = entry.get("incident", _MISSING)
        if not _distinct_ids(incident):
            _bad_list(incident, ("points", i, "incident"), int)
        pid = entry.get("id", _MISSING)
        if type(pid) is not int:
            _bad(pid, ("points", i, "id"), "an integer")
        points.append((pid, incident))
    rank = data.get("picard_rank_of_model")
    if rank is not None and type(rank) is not int:
        _bad(rank, ("picard_rank_of_model",), "an integer")
    config = CurveConfig.build(curves, points, rank)
    contracted = data.get("contracted", [])
    if not _distinct_ids(contracted):
        _bad_list(contracted, ("contracted",), int)
    raw_base = data.get("base", "point")
    if raw_base == "point":
        base: Base = PointBase()
    elif type(raw_base) is dict and "target" in raw_base:
        target = raw_base["target"]
        if not _distinct_ids(target):
            _bad_list(target, ("base", "target"), int)
        base = TargetBase(target)
    else:
        raise ValueError(f"expected base 'point' or {{'target': IDS}}, got {raw_base!r}")
    return config, frozenset(contracted), base


def _canonical(config: CurveConfig) -> tuple[list[list], list[list]]:
    """The configuration's rows by id: [id, genus, self², coeff] per curve and
    [id, incident] per point, every rational a fraction string."""
    curves = [
        [c.id, c.genus, c.self_intersection, str(c.boundary_coeff)]
        for c in sorted(config.curves, key=lambda c: c.id)
    ]
    points = [[p.id, sorted(p.incident)] for p in sorted(config.points, key=lambda p: p.id)]
    return curves, points


def config_to_json(
    config: CurveConfig,
    contracted: Iterable[int] = (),
    base: Base | None = None,
) -> dict:
    curves, points = _canonical(config)
    doc: dict[str, Any] = {
        "curves": [
            dict(zip(("id", "genus", "self_intersection", "coeff"), row)) for row in curves
        ],
        "points": [dict(zip(("id", "incident"), row)) for row in points],
    }
    if config.picard_rank_of_model is not None:
        doc["picard_rank_of_model"] = config.picard_rank_of_model
    contracted = sorted(contracted)
    if contracted:
        doc["contracted"] = contracted
    if isinstance(base, TargetBase):
        doc["base"] = {"target": sorted(base.contracted_on_target)}
    return doc


def config_digest(config: CurveConfig) -> str:
    """SHA-256 of the canonical rows and the model's Picard rank, as compact JSON."""
    import hashlib
    curves, points = _canonical(config)
    canonical = {
        "curves": curves,
        "points": points,
        "picard_rank_of_model": config.picard_rank_of_model,
    }
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The JSON object of `pairs`, none of whose keys may repeat: `json.loads`
    alone keeps a repeated key's last value, so `{"id": 1, "id": 2}` would
    read as curve 2."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"key {repeated!r} is repeated in one JSON object")
    return doc


def _load_json(path: str) -> Any:
    """The JSON document in the file at `path`, whose objects repeat no key;
    a document nested too deeply to decode is a ValueError naming the file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply to read as JSON") from None


def load_scenario(path: str) -> tuple[CurveConfig, frozenset[int], Base]:
    return config_from_json(_load_json(path))


# ---------------------------------------------------------------------------
# trace documents

def _fractions_to_json(values: dict[int, Fraction]) -> dict[str, str]:
    return {str(cid): str(value) for cid, value in values.items()}


_KINDS = {kind.value: kind for kind in MoveKind}


def _bad_kind(value: Any, path: _Path) -> NoReturn:
    """Raise the error of a step's "kind" that names no move."""
    if value is _MISSING:
        raise ValueError(f"{_path(path)} is missing")
    raise ValueError(f"{_path(path)}: {value!r} is not a valid MoveKind")


def _fractions_from_json(
    data: dict,
    parsed: dict[str, Fraction],
    prior: tuple[dict, dict[int, Fraction]] | None,
    path: _Path,
) -> tuple[dict[int, Fraction], tuple[dict, dict[int, Fraction]] | None]:
    """The map `data` by curve id, and the `prior` for the next map: `data`
    with its parse when its every value is a string, else None.

    `prior` is a raw map read before, every value a string, with its parse.
    When `data` equals it, the result is that parse itself; when `data`
    extends it by exactly one key (a C-level `items() >=`), a copy of the
    parse plus that one entry, read alone: every other entry equals one
    already read, since a string equals only the same string.  Any other
    map is read entry by entry.  Either way the first bad entry raises,
    with its path.
    """
    entries: Iterable[tuple[Any, Any]] = data.items()
    out: dict[int, Fraction] = {}
    if prior is not None:
        raw, read = prior
        if data == raw:
            return read, prior
        if len(data) == len(raw) + 1 and data.items() >= raw.items():
            (key,) = data.keys() - raw.keys()
            entries = ((key, data[key]),)
            out = dict(read)
    strings = True
    for key, value in entries:
        cid = _read_id(key)
        if cid is None:
            raise ValueError(f"{_path(path)} has a key {key!r} that is not a curve id")
        fraction = parsed.get(value) if type(value) is str else None
        if fraction is None:
            fraction = _fraction(value, parsed, (*path, key))
            strings = strings and type(value) is str
        out[cid] = fraction
    return out, (data, out) if strings else None


def trace_to_json(config: CurveConfig, trace: DecompositionTrace) -> dict:
    """The trace document of `trace` over `config`.

    A step's "discrepancies_after" is usually the very mapping the next
    step records as "discrepancies_before", the state between them being
    one; such a mapping is written once, and both fields hold the same JSON
    object.
    """
    steps = []
    after = after_doc = None
    for step in trace.steps:
        before = step.discrepancies_before
        before_doc = after_doc if before is after else _fractions_to_json(before)
        after = step.discrepancies_after
        after_doc = _fractions_to_json(after)
        doc: dict[str, Any] = {
            "kind": step.kind.value,
            "curve": step.curve,
            "discrepancies_before": before_doc,
            "discrepancies_after": after_doc,
        }
        if step.kind is MoveKind.FLOP:
            eps = step.epsilon
            doc["epsilon"] = {"supremum": str(eps.supremum), "chosen": str(eps.chosen)}
        else:
            doc["order"] = list(step.order)
        steps.append(doc)
    doc = {
        "scenario_digest": config_digest(config),
        "start": sorted(trace.start),
        "end": sorted(trace.end),
        "flop_minimal_index": trace.flop_minimal_index,
        "steps": steps,
    }
    if isinstance(trace.base, PointBase):
        doc["base"] = "point"
    return doc


def trace_from_json(data: Any) -> tuple[str, DecompositionTrace]:
    """Parse a trace document into (scenario digest, trace).

    A trace without a "base" key is a decomposition over the target base of
    its end set; "base": "point" marks a minimization over a point base.
    Each distinct fraction string is parsed once per document, in a table
    local to this call, so equal values read from equal strings are one
    `Fraction` object; an error still names the first bad field's path.
    A "scenario_digest" must be a string; a missing one reads as "".

    Maps whose every value is a string are reused, as a trace written by
    `trace_to_json` allows: a string equals only the same string, so a bool
    or float that equals a parsed JSON integer is still read, and rejected,
    on its own.  Both maps of a step follow one rule against the map read
    just before (`_fractions_from_json`): a "discrepancies_before" equal to
    the previous step's "discrepancies_after" is that step's parsed dict
    itself, and a map that extends the one before it by one key is a copy
    of its parse plus that entry, so a step reads one entry.  Any other map
    is read in full.
    """
    if type(data) is not dict:
        raise ValueError("trace document must be a JSON object")
    parsed: dict[str, Fraction] = {}
    steps = []
    # The last map read, with its parse, when its every value is a string.
    prior: tuple[dict, dict[int, Fraction]] | None = None
    entries = data.get("steps", [])
    if type(entries) is not list or not {*map(type, entries)} <= _DICT:
        _bad_list(entries, ("steps",), dict)
    for i, entry in enumerate(entries):
        raw = entry.get("kind", _MISSING)
        kind = _KINDS.get(raw) if type(raw) is str else None
        if kind is None:
            _bad_kind(raw, ("steps", i, "kind"))
        epsilon = None
        order = None
        if kind is MoveKind.FLOP:
            eps = entry.get("epsilon", _MISSING)
            if type(eps) is not dict:
                _bad(eps, ("steps", i, "epsilon"), "a JSON object")
            raw = eps.get("supremum", _MISSING)
            supremum = parsed.get(raw) if type(raw) is str else None
            if supremum is None:
                supremum = _fraction(raw, parsed, ("steps", i, "epsilon", "supremum"))
            raw = eps.get("chosen", _MISSING)
            chosen = parsed.get(raw) if type(raw) is str else None
            if chosen is None:
                chosen = _fraction(raw, parsed, ("steps", i, "epsilon", "chosen"))
            epsilon = EpsilonChoice(supremum, chosen)
        else:
            order = entry.get("order", _MISSING)
            if type(order) is not list or not {*map(type, order)} <= _INT:
                _bad_list(order, ("steps", i, "order"), int)
            order = tuple(order)
        curve = entry.get("curve", _MISSING)
        if type(curve) is not int:
            _bad(curve, ("steps", i, "curve"), "an integer")
        path = ("steps", i, "discrepancies_before")
        raw = entry.get("discrepancies_before", _MISSING)
        if type(raw) is not dict:
            _bad(raw, path, "a JSON object")
        before, prior = _fractions_from_json(raw, parsed, prior, path)
        path = ("steps", i, "discrepancies_after")
        raw = entry.get("discrepancies_after", _MISSING)
        if type(raw) is not dict:
            _bad(raw, path, "a JSON object")
        after, prior = _fractions_from_json(raw, parsed, prior, path)
        steps.append(MoveRecord(kind, curve, before, after, epsilon=epsilon, order=order))
    end = data.get("end", _MISSING)
    if not _distinct_ids(end):
        _bad_list(end, ("end",), int)
    end = frozenset(end)
    raw_base = data.get("base")
    if raw_base is None:
        base: Base = TargetBase(end)
    elif raw_base == "point":
        base = PointBase()
    else:
        raise ValueError(f"base: expected 'point' or no key, got {raw_base!r}")
    index = data.get("flop_minimal_index", _MISSING)
    if type(index) is not int:
        _bad(index, ("flop_minimal_index",), "an integer")
    start = data.get("start", _MISSING)
    if not _distinct_ids(start):
        _bad_list(start, ("start",), int)
    trace = DecompositionTrace(tuple(steps), index, frozenset(start), end, base)
    digest = data.get("scenario_digest", "")
    if type(digest) is not str:
        _bad(digest, ("scenario_digest",), "a string")
    return digest, trace


def _dump_json(doc: dict, path: str) -> None:
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# DOT emission

def dot_graph(config: CurveConfig, contracted: frozenset[int]) -> str:
    lines = ["graph curve_config {", "  node [shape=box];"]
    for c in sorted(config.curves, key=lambda c: c.id):
        label = f"{c.id}: {c.genus},{c.self_intersection},{c.boundary_coeff}"
        style = ", style=filled" if c.id in contracted else ""
        lines.append(f'  c{c.id} [label="{label}"{style}];')
    for p in sorted(config.points, key=lambda p: p.id):
        incident = sorted(p.incident)
        if len(incident) == 2:
            a, b = incident
            lines.append(f'  c{a} -- c{b} [label="p{p.id}"];')
        elif len(incident) == 1:
            lines.append(f"  p{p.id} [shape=point];")
            lines.append(f'  p{p.id} -- c{incident[0]} [label="p{p.id}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# step/trace pretty printing

def _print_trace(trace: DecompositionTrace) -> None:
    for index, step in enumerate(trace.steps, start=1):
        if step.kind is MoveKind.FLOP:
            print(f"{index}. flop curve {step.curve} epsilon {step.epsilon.chosen}")
        else:
            order = ",".join(str(cid) for cid in step.order)
            print(f"{index}. blowdown curve {step.curve} order {order}")
    print(f"flop phase length: {trace.flop_minimal_index}")


def _print_discrepancies(state: SurfaceState) -> None:
    for cid, value in sorted(state.crepant.discrepancies.items()):
        print(f"{cid}: a = {value}")


# ---------------------------------------------------------------------------
# command handlers

def _cmd_validate(args: argparse.Namespace) -> int:
    config, _, _ = load_scenario(args.file)
    problems = validate_config(config)
    if problems:
        for violation in problems:
            print(str(violation), file=sys.stderr)
        return 2
    print(f"valid: {len(config.curves)} curves, {len(config.points)} points")
    return 0


def _load_state(args: argparse.Namespace, base: Base | None = None) -> SurfaceState:
    """The state a command names: the scenario's checked configuration with
    `--contract` (default: the scenario's set) over `base`, else `--base`
    where the command has it, else the scenario's base."""
    config, contracted, scenario_base = load_scenario(args.file)
    require_valid(config)
    if base is None:
        text = getattr(args, "base", None)
        base = scenario_base if text is None else parse_base(text)
    if args.contract is not None:
        contracted = frozenset(parse_ids(args.contract))
    return SurfaceState(config, contracted, base)


def _cmd_classify(args: argparse.Namespace) -> int:
    print(CLASS_NAMES[_load_state(args).classification])
    return 0


def _cmd_discrepancies(args: argparse.Namespace) -> int:
    _print_discrepancies(_load_state(args))
    return 0


def _cmd_flops(args: argparse.Namespace) -> int:
    state = _load_state(args)
    for cid in sorted(state.uncontracted):
        check = is_log_flopping(state, cid)
        if check:
            print(f"{cid}: yes")
        else:
            print(f"{cid}: no ({check.reason})")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    config, _, _ = load_scenario(args.file)
    require_valid(config)
    spec = MorphismSpec(config, parse_ids(args.from_ids), parse_ids(args.to_ids))
    trace = decompose_morphism(spec)
    _print_trace(trace)
    _print_discrepancies(SurfaceState(config, trace.end, TargetBase(trace.end)))
    if args.trace is not None:
        _dump_json(trace_to_json(config, trace), args.trace)
    return 0


def _cmd_minimize(args: argparse.Namespace) -> int:
    state = _load_state(args, PointBase())
    trace = minimize(state)
    _print_trace(trace)
    final = ",".join(str(cid) for cid in sorted(trace.end)) or "(none)"
    print(f"final contracted: {final}")
    if args.trace is not None:
        _dump_json(trace_to_json(state.config, trace), args.trace)
    return 0


def _cmd_blowup(args: argparse.Namespace) -> int:
    config, contracted, base = load_scenario(args.file)
    require_valid(config)
    target = parse_target(args.at)
    coeff = parse_fraction(args.coeff)
    new_id = next_curve_id(config)
    new_config = blow_up(config, target, coeff)
    _dump_json(config_to_json(new_config, contracted, base), args.output)
    print(f"new curve {new_id}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config, _, _ = load_scenario(args.file)
    require_valid(config)
    digest, trace = trace_from_json(_load_json(args.trace))
    actual = config_digest(config)
    if digest != actual:
        print(
            f"error: trace digest {digest or '(missing)'} does not match scenario "
            f"digest {actual}",
            file=sys.stderr,
        )
        return 2
    result = verify_trace(config, trace.start, trace)
    if result:
        print(f"verified: {len(trace.steps)} steps")
        return 0
    where = "" if result.step_index is None else f" at step {result.step_index}"
    print(f"verification failed{where}: {result.failure}", file=sys.stderr)
    return 2


def _cmd_dot(args: argparse.Namespace) -> int:
    config, contracted, _ = load_scenario(args.file)
    require_valid(config)
    text = dot_graph(config, contracted)
    if args.output is not None:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="logsurf",
        description="Exact combinatorial toolkit for contracting curve "
        "configurations on log surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file's structural invariants")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="classify the contraction of a curve set")
    p.add_argument("file")
    p.add_argument("--contract", help="comma-separated curve ids (default: scenario)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("discrepancies", help="print exact discrepancies of a contraction")
    p.add_argument("file")
    p.add_argument("--contract", help="comma-separated curve ids (default: scenario)")
    p.set_defaults(func=_cmd_discrepancies)

    p = sub.add_parser("flops", help="report which curves admit a flop-type contraction")
    p.add_argument("file")
    p.add_argument("--contract", help="comma-separated curve ids (default: scenario)")
    p.add_argument("--base", help="'point' or 'target:IDS' (default: scenario)")
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("decompose", help="factor a log crepant contraction into moves")
    p.add_argument("file")
    p.add_argument("--from", dest="from_ids", required=True, metavar="IDS")
    p.add_argument("--to", dest="to_ids", required=True, metavar="IDS")
    p.add_argument("--trace", help="write the trace document to this path")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("minimize", help="contract moves over a point base until minimal")
    p.add_argument("file")
    p.add_argument("--contract", help="comma-separated curve ids (default: scenario)")
    p.add_argument("--trace", help="write the trace document to this path")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("blowup", help="blow up a centre and write the new scenario")
    p.add_argument("file")
    p.add_argument("--at", required=True, help="point:ID, free:CURVE or generic")
    p.add_argument("--coeff", required=True, help="coefficient of the new curve, P/Q")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("verify", help="replay and check a trace document")
    p.add_argument("file")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dot", help="emit the configuration as a Graphviz graph")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TheoremViolationError, StuckInPhase2Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LogSurfaceError, OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
