"""Command-line interface: scenario files in, verdicts/traces/graphs out.

Scenario and trace documents are JSON with every rational written as an
exact fraction string ("p/q"); a SHA-256 digest of the configuration ties
each trace to its scenario.  Exit codes: 0 success, 2 validation or parse
failure, 3 broken internal guarantee or stuck decomposition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable

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

CLASS_NAMES = {
    Classification.NOT_LC: "NotLC",
    Classification.LOG_CANONICAL: "LogCanonical",
    Classification.LOG_TERMINAL: "LogTerminal",
    Classification.KLT: "KLT",
}


# ---------------------------------------------------------------------------
# parsing helpers

_FRACTION = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")
# An id as `str(id)` writes it: '0', or an optional '-' and ASCII digits
# without a leading zero.  `int()` alone would also read '0_4' as 4, ' 1' as
# 1 and '+1' as 1, and '03' and '-0' would alias 3 and 0.
_ID = re.compile(r"0|-?[1-9][0-9]*")


def parse_fraction(value: Any) -> Fraction:
    """An integer, or a string "p" or "p/q"; decimals and exponents are rejected."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str) and _FRACTION.fullmatch(value.strip()):
        return Fraction(value.strip())
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
# typed reading of documents: every error names the path of the bad field

def _required(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise ValueError(f"{path}{key} is missing")
    return doc[key]


def _int(value: Any, path: str) -> int:
    """A JSON integer; a bool, float or string is rejected, not coerced."""
    if type(value) is not int:
        raise ValueError(f"{path} must be an integer, got {value!r}")
    return value


def _ints(value: Any, path: str) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"{path} must be a list of integers, got {value!r}")
    return [_int(item, f"{path}[{i}]") for i, item in enumerate(value)]


def _distinct_ints(value: Any, path: str) -> list[int]:
    """`_ints` of a list of ids, none repeated: collapsing a repeat would
    change what the document says."""
    ids = _ints(value, path)
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path} repeats a curve: {ids}")
    return ids


def _fraction(value: Any, path: str) -> Fraction:
    try:
        return parse_fraction(value)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _objects(value: Any, path: str) -> list[tuple[str, dict]]:
    """The JSON objects of a list, each with its path."""
    if not isinstance(value, list):
        raise ValueError(f"{path} must be a list, got {value!r}")
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise ValueError(f"{path}[{i}] must be a JSON object, got {item!r}")
    return [(f"{path}[{i}].", item) for i, item in enumerate(value)]


# ---------------------------------------------------------------------------
# scenario documents

def config_from_json(data: Any) -> tuple[CurveConfig, frozenset[int], Base]:
    """Parse a scenario document into (config, default contracted, default base)."""
    if not isinstance(data, dict):
        raise ValueError("scenario document must be a JSON object")
    curves = [
        (
            _int(_required(entry, "id", at), f"{at}id"),
            _int(entry.get("genus", 0), f"{at}genus"),
            _int(_required(entry, "self_intersection", at), f"{at}self_intersection"),
            _fraction(entry.get("coeff", 0), f"{at}coeff"),
        )
        for at, entry in _objects(data.get("curves", []), "curves")
    ]
    points = []
    for at, entry in _objects(data.get("points", []), "points"):
        incident = _distinct_ints(_required(entry, "incident", at), f"{at}incident")
        points.append((_int(_required(entry, "id", at), f"{at}id"), incident))
    rank = data.get("picard_rank_of_model")
    config = CurveConfig.build(
        curves, points, None if rank is None else _int(rank, "picard_rank_of_model")
    )
    contracted = frozenset(_distinct_ints(data.get("contracted", []), "contracted"))
    raw_base = data.get("base", "point")
    if raw_base == "point":
        base: Base = PointBase()
    elif isinstance(raw_base, dict) and "target" in raw_base:
        base = TargetBase(_distinct_ints(raw_base["target"], "base.target"))
    else:
        raise ValueError(f"expected base 'point' or {{'target': IDS}}, got {raw_base!r}")
    return config, contracted, base


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
    curves, points = _canonical(config)
    canonical = {
        "curves": curves,
        "points": points,
        "picard_rank_of_model": config.picard_rank_of_model,
    }
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_scenario(path: str) -> tuple[CurveConfig, frozenset[int], Base]:
    return config_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


# ---------------------------------------------------------------------------
# trace documents

def _fractions_to_json(values: dict[int, Fraction]) -> dict[str, str]:
    return {str(cid): str(value) for cid, value in sorted(values.items())}


def _interned_fraction(
    value: Any, parsed: dict[str, Fraction], path: str, key: str
) -> Fraction:
    """`_fraction` of the field `key` of `path`, parsing each distinct
    string of a document once; the field's path is built only for an error.

    `parsed` maps the strings read so far to their values.  Only strings are
    keys: a JSON true or 1.0 equals 1 and hashes like it, so a table keyed
    on values would accept it as a cached "1".
    """
    fraction = parsed.get(value) if type(value) is str else None
    if fraction is None:
        try:
            fraction = parse_fraction(value)
        except ValueError as exc:
            raise ValueError(f"{path}.{key}: {exc}") from None
        if type(value) is str:
            parsed[value] = fraction
    return fraction


def _fractions_from_json(
    data: Any, path: str, parsed: dict[str, Fraction]
) -> dict[int, Fraction]:
    if not isinstance(data, dict):
        raise ValueError(f"{path} must be a JSON object, got {data!r}")
    out = {}
    for key, value in data.items():
        cid = _read_id(key)
        if cid is None:
            raise ValueError(f"{path} has a key {key!r} that is not a curve id")
        out[cid] = _interned_fraction(value, parsed, path, key)
    return out


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
            doc["epsilon"] = {
                "supremum": None if eps.supremum is None else str(eps.supremum),
                "chosen": str(eps.chosen),
            }
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
    `Fraction` object; an error still names the first bad field's path.  A
    step's "discrepancies_before" equal to the previous step's
    "discrepancies_after", as a trace written by `trace_to_json` has it,
    is that step's parsed dict itself, when every value of the latter is a
    string: a string equals only the same string, so a bool or float that
    equals a parsed JSON integer is still read, and rejected, on its own.
    """
    if not isinstance(data, dict):
        raise ValueError("trace document must be a JSON object")
    parsed: dict[str, Fraction] = {}
    steps = []
    raw_after = after = None
    for at, entry in _objects(data.get("steps", []), "steps"):
        try:
            kind = MoveKind(_required(entry, "kind", at))
        except ValueError as exc:
            raise ValueError(f"{at}kind: {exc}") from None
        epsilon = None
        order = None
        if kind is MoveKind.FLOP:
            eps = _required(entry, "epsilon", at)
            if not isinstance(eps, dict):
                raise ValueError(f"{at}epsilon must be a JSON object, got {eps!r}")
            supremum = eps.get("supremum")
            epsilon = EpsilonChoice(
                None
                if supremum is None
                else _interned_fraction(supremum, parsed, f"{at}epsilon", "supremum"),
                _interned_fraction(
                    _required(eps, "chosen", f"{at}epsilon."), parsed, f"{at}epsilon", "chosen"
                ),
            )
        else:
            order = tuple(_ints(_required(entry, "order", at), f"{at}order"))
        curve = _int(_required(entry, "curve", at), f"{at}curve")
        raw_before = _required(entry, "discrepancies_before", at)
        if (
            raw_after is not None
            and raw_before == raw_after
            and all(type(v) is str for v in raw_after.values())
        ):
            before = after
        else:
            before = _fractions_from_json(raw_before, f"{at}discrepancies_before", parsed)
        raw_after = _required(entry, "discrepancies_after", at)
        after = _fractions_from_json(raw_after, f"{at}discrepancies_after", parsed)
        steps.append(MoveRecord(kind, curve, before, after, epsilon=epsilon, order=order))
    end = frozenset(_distinct_ints(_required(data, "end", ""), "end"))
    raw_base = data.get("base")
    if raw_base is None:
        base: Base = TargetBase(end)
    elif raw_base == "point":
        base = PointBase()
    else:
        raise ValueError(f"base: expected 'point' or no key, got {raw_base!r}")
    trace = DecompositionTrace(
        tuple(steps),
        _int(_required(data, "flop_minimal_index", ""), "flop_minimal_index"),
        frozenset(_distinct_ints(_required(data, "start", ""), "start")),
        end,
        base,
    )
    return str(data.get("scenario_digest", "")), trace


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


def _resolve_contract(args: argparse.Namespace, default: frozenset[int]) -> frozenset[int]:
    if getattr(args, "contract", None) is None:
        return default
    return frozenset(parse_ids(args.contract))


def _cmd_classify(args: argparse.Namespace) -> int:
    config, default_contracted, base = load_scenario(args.file)
    require_valid(config)
    state = SurfaceState(config, _resolve_contract(args, default_contracted), base)
    print(CLASS_NAMES[state.classification])
    return 0


def _cmd_discrepancies(args: argparse.Namespace) -> int:
    config, default_contracted, base = load_scenario(args.file)
    require_valid(config)
    state = SurfaceState(config, _resolve_contract(args, default_contracted), base)
    _print_discrepancies(state)
    return 0


def _cmd_flops(args: argparse.Namespace) -> int:
    config, default_contracted, base = load_scenario(args.file)
    require_valid(config)
    if args.base is not None:
        base = parse_base(args.base)
    state = SurfaceState(config, _resolve_contract(args, default_contracted), base)
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
    config, default_contracted, _ = load_scenario(args.file)
    require_valid(config)
    state = SurfaceState(config, _resolve_contract(args, default_contracted), PointBase())
    trace = minimize(state)
    _print_trace(trace)
    final = ",".join(str(cid) for cid in sorted(trace.end)) or "(none)"
    print(f"final contracted: {final}")
    if args.trace is not None:
        _dump_json(trace_to_json(config, trace), args.trace)
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
    digest, trace = trace_from_json(
        json.loads(Path(args.trace).read_text(encoding="utf-8"))
    )
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
    except LogSurfaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
