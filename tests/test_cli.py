"""Command-line behaviour: documents, exit codes, determinism, DOT output."""

import contextlib
from fractions import Fraction
import importlib
import io
import json
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from helpers import write_scenario
from logsurf import (
    CurveConfig,
    EpsilonChoice,
    MorphismSpec,
    MoveKind,
    MoveRecord,
    StuckInPhase2Error,
    TargetBase,
    TheoremViolationError,
    decompose_morphism,
    generate_crepant_pair,
    verify_trace,
)
import logsurf.cli as cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture()
def tower(tmp_path):
    return write_scenario(tmp_path / "tower.json", helpers.corner_twice())


@pytest.fixture()
def du_val(tmp_path):
    return write_scenario(tmp_path / "a1.json", helpers.du_val_a1())


class TestScenarioDocuments:
    def test_round_trip_is_identity(self):
        from logsurf import CurveConfig, TargetBase

        config = helpers.corner_twice()
        doc = cli.config_to_json(config, {4}, TargetBase({3, 4}))
        back, contracted, base = cli.config_from_json(doc)
        assert back == config
        assert contracted == frozenset({4})
        assert isinstance(base, TargetBase)
        assert base.contracted_on_target == frozenset({3, 4})

    def test_round_trip_with_rank_and_point_base(self):
        from logsurf import CurveConfig, PointBase

        config = CurveConfig.build(
            [(1, 0, -2, 0)], [], picard_rank_of_model=5
        )
        back, contracted, base = cli.config_from_json(cli.config_to_json(config))
        assert back == config
        assert contracted == frozenset()
        assert isinstance(base, PointBase)

    def test_fractions_serialize_as_strings(self):
        doc = cli.config_to_json(helpers.du_val_a1_half())
        assert doc["curves"][0]["coeff"] == "1/2"

    def test_digest_tracks_content(self):
        a = cli.config_digest(helpers.corner_twice())
        b = cli.config_digest(helpers.corner_twice())
        c = cli.config_digest(helpers.corner_once())
        assert a == b
        assert a != c

    def test_rejects_non_object_document(self):
        with pytest.raises(ValueError):
            cli.config_from_json([1, 2, 3])

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            cli.config_from_json({"curves": [], "points": [], "base": "sphere"})


class TestParseFraction:
    """`parse_fraction` reads a string `_FRACTION` accepts as `Fraction` reads
    it, and rejects everything else with one message."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["", " ", "\t", "\n "]),
        st.from_regex(cli._FRACTION, fullmatch=True),
        st.sampled_from(["", " ", "\t", " \n"]),
    )
    def test_equals_fraction_on_every_accepted_string(self, lead, text, trail):
        value = cli.parse_fraction(lead + text + trail)
        assert type(value) is Fraction and value == Fraction(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789+-/ _.eE\t", max_size=8) | st.integers())
    def test_accepts_exactly_what_the_pattern_accepts(self, value):
        if type(value) is int or cli._FRACTION.fullmatch(value.strip()):
            assert cli.parse_fraction(value) == Fraction(value)
        else:
            with pytest.raises(ValueError):
                cli.parse_fraction(value)

    @pytest.mark.parametrize(
        "value",
        ["0.5", "1.", "1e-1", "1E2", "1/0", "-3/00", "1_000", "1/2_0", "", " ", "1/",
         "/2", "+", "1/-2", "1/+2", "--1", "١", True, False, 0.5, 1.0, None, [1]],
    )
    def test_rejects_with_its_message(self, value):
        with pytest.raises(ValueError) as raised:
            cli.parse_fraction(value)
        assert str(raised.value) == (
            f"expected an integer or a fraction string 'p/q', got {value!r}"
        )


class TestValidateCommand:
    def test_valid_scenario(self, tower, capsys):
        assert cli.main(["validate", tower]) == 0
        assert "valid: 4 curves, 3 points" in capsys.readouterr().out

    def test_triple_point_rejected(self, tmp_path, capsys):
        from logsurf import CurveConfig

        config = CurveConfig.build(
            [(1, 0, -2, 0), (2, 0, -2, 0), (3, 0, -2, 0)], [(1, [1, 2, 3])]
        )
        path = write_scenario(tmp_path / "bad.json", config)
        assert cli.main(["validate", path]) == 2
        assert "TriplePoint" in capsys.readouterr().err

    def test_negative_picard_rank_rejected(self, tmp_path, capsys):
        from logsurf import CurveConfig

        config = CurveConfig.build([(1, 0, -2, 0)], [], picard_rank_of_model=-3)
        path = write_scenario(tmp_path / "rank.json", config)
        assert cli.main(["validate", path]) == 2
        assert "BadPicardRank: picard_rank_of_model -3 is negative" in capsys.readouterr().err

    def test_string_picard_rank_rejected(self, tmp_path, capsys):
        doc = cli.config_to_json(helpers.corner_twice())
        doc["picard_rank_of_model"] = "5"
        path = tmp_path / "rank.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 2
        assert "picard_rank_of_model must be an integer" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["validate", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 2


DELETE = object()


def _mutated(doc, path, value):
    """A deep copy of `doc` with the field at `path` set to `value`, or deleted
    when `value` is DELETE."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


class TestStrictDocuments:
    """Malformed fields are rejected with their path and exit code 2, never coerced."""

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("curves", 0, "id"), 1.9, "curves[0].id"),
            (("curves", 0, "id"), True, "curves[0].id"),
            (("curves", 0, "id"), "1", "curves[0].id"),
            (("curves", 1, "genus"), True, "curves[1].genus"),
            (("curves", 1, "genus"), 0.0, "curves[1].genus"),
            (("curves", 2, "self_intersection"), -2.7, "curves[2].self_intersection"),
            (("curves", 2, "self_intersection"), "-2", "curves[2].self_intersection"),
            (("curves", 0, "coeff"), "1e-1", "curves[0].coeff"),
            (("curves", 0, "coeff"), "0.5", "curves[0].coeff"),
            (("curves", 0, "coeff"), 0.5, "curves[0].coeff"),
            (("curves", 0, "coeff"), "1/0", "curves[0].coeff"),
            (("points", 0, "id"), False, "points[0].id"),
            (("points", 0, "incident"), [1, 3.0], "points[0].incident[1]"),
            (("points", 0, "incident"), [1, 1], "points[0].incident"),
            (("curves", 1, "self_intersection"), DELETE, "curves[1].self_intersection"),
            (("curves", 1, "id"), DELETE, "curves[1].id"),
            (("points", 2, "incident"), DELETE, "points[2].incident"),
            (("contracted",), [4, 4], "contracted repeats a curve"),
            (("base",), {"target": [3, 4, 4]}, "base.target repeats a curve"),
        ],
    )
    def test_scenario_field_rejected(self, tmp_path, capsys, path, value, named):
        doc = _mutated(cli.config_to_json(helpers.corner_twice()), path, value)
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["validate", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("start",), [0.0], "start[0]"),
            (("end",), [3, "4"], "end[1]"),
            (("end",), [3, True], "end[1]"),
            (("flop_minimal_index",), 1.0, "flop_minimal_index"),
            (("flop_minimal_index",), True, "flop_minimal_index"),
            (("steps", 0, "curve"), "4", "steps[0].curve"),
            (("steps", 1, "order"), [4, 3.5], "steps[1].order[1]"),
            (("steps", 0, "epsilon", "chosen"), "0.5", "steps[0].epsilon.chosen"),
            (("steps", 0, "discrepancies_after", "4"), "1e0", "steps[0].discrepancies_after.4"),
            (("flop_minimal_index",), DELETE, "flop_minimal_index"),
            (("steps", 1, "order"), DELETE, "steps[1].order"),
            (("base",), "sphere", "base"),
            (("end",), [3, 4, 4, 3], "end repeats a curve"),
            (("start",), [3, 3], "start repeats a curve"),
            (("steps", 0, "kind"), "teleport", "steps[0].kind: 'teleport' is not a valid MoveKind"),
            (("steps", 0, "epsilon"), "half", "steps[0].epsilon must be a JSON object, got 'half'"),
        ],
    )
    def test_trace_field_rejected(self, tower, tmp_path, capsys, path, value, named):
        trace_path = tmp_path / "trace.json"
        argv = ["decompose", tower, "--from", "", "--to", "3,4", "--trace", str(trace_path)]
        assert cli.main(argv) == 0
        doc = _mutated(json.loads(trace_path.read_text(encoding="utf-8")), path, value)
        trace_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["verify", tower, "--trace", str(trace_path)]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    def test_a_trace_document_must_be_an_object(self, tower, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text("[]", encoding="utf-8")
        assert cli.main(["verify", tower, "--trace", str(trace_path)]) == 2
        assert "trace document must be a JSON object" in capsys.readouterr().err


_LEAF = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3)
    | st.sampled_from(["", "0", "1", "1/2", "-1", "2/0", "1e-1", "0.5", " 1", "x"])
)
_JUNK = st.recursive(
    _LEAF,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "incident", "target", "coeff", "x"]), kids, max_size=3),
    max_leaves=8,
)


def _mostly(good):
    """Usually a well-formed value, sometimes anything JSON can hold."""
    return st.one_of(good, good, good, _JUNK)


_ID = st.integers(0, 4)
_CURVE = st.fixed_dictionaries({}, optional={
    "id": _mostly(_ID),
    "genus": _mostly(st.integers(0, 1)),
    "self_intersection": _mostly(st.integers(-4, 1)),
    "coeff": _mostly(st.sampled_from([0, 1, "0", "1", "1/2", "2/3"])),
})
_POINT = st.fixed_dictionaries({}, optional={
    "id": _mostly(_ID),
    "incident": _mostly(st.lists(_ID, max_size=3)),
})
_SCENARIO = st.fixed_dictionaries({}, optional={
    "curves": _mostly(st.lists(_mostly(_CURVE), max_size=4)),
    "points": _mostly(st.lists(_mostly(_POINT), max_size=4)),
    "contracted": _mostly(st.lists(_ID, max_size=3)),
    "base": _mostly(st.just("point") | st.fixed_dictionaries({"target": st.lists(_ID, max_size=4)})),
    "picard_rank_of_model": _mostly(st.integers(0, 5)),
})


class TestReaderFuzz:
    """Every scenario document, however malformed, exits 0 or 2 and never raises."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_SCENARIO.map(json.dumps), _JUNK.map(json.dumps), st.text(max_size=12)))
    def test_commands_exit_0_or_2(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
        path.write_text(text, encoding="utf-8")
        for command in ("validate", "classify", "flops", "minimize", "dot"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main([command, str(path)])
            assert code in (0, 2), (command, text, out.getvalue())


class TestClassifyAndDiscrepancies:
    def test_classify_tower(self, tower, capsys):
        assert cli.main(["classify", tower, "--contract", "3,4"]) == 0
        assert capsys.readouterr().out.strip() == "LogTerminal"

    def test_classify_du_val(self, du_val, capsys):
        assert cli.main(["classify", du_val, "--contract", "1"]) == 0
        assert capsys.readouterr().out.strip() == "KLT"

    def test_classify_uses_scenario_default(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.json", helpers.du_val_a1(), {1})
        assert cli.main(["classify", path]) == 0
        assert capsys.readouterr().out.strip() == "KLT"

    def test_discrepancies_worked_example(self, tower, capsys):
        assert cli.main(["discrepancies", tower, "--contract", "3,4"]) == 0
        assert capsys.readouterr().out == "3: a = -1\n4: a = 0\n"

    def test_discrepancies_rejects_indefinite_set(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.json", helpers.corner())
        assert cli.main(["discrepancies", path, "--contract", "1"]) == 2

    @pytest.mark.parametrize(
        "contract, message",
        [
            ("3,03", "bad curve id '03' in '3,03'"),
            ("3,-0", "bad curve id '-0' in '3,-0'"),
            ("3,3", "curve id '3' is repeated in '3,3'"),
        ],
    )
    def test_contract_names_each_curve_once(self, contract, message, capsys):
        # Read leniently, '3,03' and '3,3' would both classify the set {3}.
        tower = str(SCENARIOS / "tower.json")
        assert cli.main(["classify", tower, "--contract", contract]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestFlopsCommand:
    def test_reports_per_curve(self, tower, capsys):
        assert (
            cli.main(["flops", tower, "--contract", "", "--base", "target:3,4"]) == 0
        )
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "1: no (NotExceptionalOverBase)",
            "2: no (NotExceptionalOverBase)",
            "3: no (IsDivisorialCenter)",
            "4: yes",
        ]

    def test_point_base(self, du_val, capsys):
        assert cli.main(["flops", du_val, "--base", "point"]) == 0
        assert capsys.readouterr().out == "1: yes\n"

    def test_unknown_base_exits_2(self, tower, capsys):
        assert cli.main(["flops", tower, "--base", "nowhere"]) == 2
        assert "expected 'point' or 'target:IDS', got 'nowhere'" in capsys.readouterr().err


class TestDecomposeAndVerify:
    def test_worked_decomposition(self, tower, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        code = cli.main(
            ["decompose", tower, "--from", "", "--to", "3,4", "--trace", trace_path]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1. flop curve 4 epsilon 1/2" in out
        assert "2. blowdown curve 3 order 4,3" in out
        assert "flop phase length: 1" in out
        assert "3: a = -1" in out and "4: a = 0" in out

        assert cli.main(["verify", tower, "--trace", trace_path]) == 0
        assert "verified: 2 steps" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "to_ids, bad",
        [
            ("3,0_4", "0_4"),
            ("3, 4", " 4"),
            ("3,+4", "+4"),
            ("3,,4", ""),
            ("3,4,", ""),
            ("3,\u0664", "\u0664"),
            ("3,04", "04"),
            ("3,012", "012"),
        ],
    )
    def test_malformed_id_list_exits_2(self, to_ids, bad, capsys):
        # int() alone reads '0_4' as 4, ' 4' as 4 and an Arabic-Indic digit as 4.
        tower = str(SCENARIOS / "tower.json")
        assert cli.main(["decompose", tower, "--from", "", "--to", to_ids]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad curve id {bad!r}" in captured.err

    def test_well_formed_id_lists_parse(self):
        assert cli.parse_ids("") == ()
        assert cli.parse_ids("  ") == ()
        assert cli.parse_ids(" 3,4 ") == (3, 4)
        assert cli.parse_ids("-1,0,12") == (-1, 0, 12)
        for bad in ("-1,0,012", "-0", "1,-1,1"):
            with pytest.raises(ValueError):
                cli.parse_ids(bad)

    def test_non_crepant_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "h.json", helpers.du_val_a1_half())
        assert cli.main(["decompose", path, "--from", "", "--to", "1"]) == 2

    def test_verify_rejects_foreign_scenario(self, tower, du_val, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        assert (
            cli.main(
                ["decompose", tower, "--from", "", "--to", "3,4", "--trace", trace_path]
            )
            == 0
        )
        capsys.readouterr()
        assert cli.main(["verify", du_val, "--trace", trace_path]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_verify_rejects_a_trace_cut_short(self, tmp_path, capsys):
        spec = generate_crepant_pair(helpers.corner(), 8, 0)
        trace = decompose_morphism(spec)
        cut = helpers.replace(trace, steps=trace.steps[:-1])
        message = (
            "replay ends at [3, 4, 6, 7, 8, 9, 10], trace claims [3, 4, 5, 6, 7, 8, 9, 10]"
        )
        assert verify_trace(spec.config, spec.source_contracted, cut).failure == message
        scenario = write_scenario(tmp_path / "tower.json", spec.config)
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(cli.trace_to_json(spec.config, cut)), encoding="utf-8")
        assert cli.main(["verify", scenario, "--trace", str(trace_path)]) == 2
        assert message in capsys.readouterr().err

    def test_verify_rejects_tampered_certificate(self, tower, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert (
            cli.main(
                ["decompose", tower, "--from", "", "--to", "3,4", "--trace", str(trace_path)]
            )
            == 0
        )
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        doc["steps"][0]["epsilon"]["chosen"] = "1/3"
        trace_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["verify", tower, "--trace", str(trace_path)]) == 2
        assert "verification failed" in capsys.readouterr().err

    def test_trace_files_are_byte_identical(self, tower, tmp_path):
        paths = [str(tmp_path / "t1.json"), str(tmp_path / "t2.json")]
        for p in paths:
            assert (
                cli.main(["decompose", tower, "--from", "", "--to", "3,4", "--trace", p])
                == 0
            )
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b


# Fraction strings a trace document may hold, well formed but written in
# several ways, drawn from a small pool so that documents repeat them.
_TRACE_VALUE = st.integers(-3, 3) | st.sampled_from(
    ["0", "1", "-1", "1/2", "-2/3", "04/06", "+1", " 1/2", "1/2 ", " -1 ", "3"]
)
_TRACE_FRACTIONS = st.dictionaries(st.sampled_from(["1", "2", "3", "4"]), _TRACE_VALUE, max_size=4)
_TRACE_STEP = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("flop"),
        "curve": st.integers(1, 4),
        "discrepancies_before": _TRACE_FRACTIONS,
        "discrepancies_after": _TRACE_FRACTIONS,
        "epsilon": st.fixed_dictionaries(
            {"supremum": _TRACE_VALUE, "chosen": _TRACE_VALUE}
        ),
    }),
    st.fixed_dictionaries({
        "kind": st.just("blowdown"),
        "curve": st.integers(1, 4),
        "discrepancies_before": _TRACE_FRACTIONS,
        "discrepancies_after": _TRACE_FRACTIONS,
        "order": st.lists(st.integers(1, 4), max_size=3),
    }),
)
_TRACE_DOC = st.fixed_dictionaries(
    {
        "scenario_digest": st.just("digest"),
        "start": st.lists(st.integers(1, 4), max_size=2, unique=True),
        "end": st.lists(st.integers(1, 4), max_size=4, unique=True),
        "flop_minimal_index": st.integers(0, 4),
        "steps": st.lists(_TRACE_STEP, max_size=5),
    },
    optional={"base": st.just("point")},
)


def _reference_steps(doc) -> tuple[MoveRecord, ...]:
    """The document's steps with every fraction value read by `parse_fraction`."""

    def fractions(values):
        return {int(cid): cli.parse_fraction(value) for cid, value in values.items()}

    steps = []
    for step in doc["steps"]:
        epsilon = order = None
        if step["kind"] == "flop":
            epsilon = EpsilonChoice(
                cli.parse_fraction(step["epsilon"]["supremum"]),
                cli.parse_fraction(step["epsilon"]["chosen"]),
            )
        else:
            order = tuple(step["order"])
        steps.append(MoveRecord(
            MoveKind(step["kind"]),
            step["curve"],
            fractions(step["discrepancies_before"]),
            fractions(step["discrepancies_after"]),
            epsilon=epsilon,
            order=order,
        ))
    return tuple(steps)


def _parsed_fractions(steps) -> list[Fraction]:
    out = []
    for step in steps:
        out += step.discrepancies_before.values()
        out += step.discrepancies_after.values()
        if step.epsilon is not None:
            out += [step.epsilon.supremum, step.epsilon.chosen]
    return out


def _tower_trace_doc() -> dict:
    """The worked decomposition's trace: step 0 flops curve 4 with epsilon
    supremum "1", step 1 blows down curve 3."""
    spec = MorphismSpec(helpers.corner_twice(), set(), {3, 4})
    return json.loads(json.dumps(cli.trace_to_json(spec.config, decompose_morphism(spec))))


class TestTraceInterning:
    """`trace_from_json` parses each distinct fraction string once per
    document, with exactly the meaning `parse_fraction` gives each value."""

    @settings(max_examples=200, deadline=None)
    @given(_TRACE_DOC)
    def test_interned_parse_equals_the_reference(self, doc):
        _, trace = cli.trace_from_json(doc)
        assert trace.steps == _reference_steps(doc)
        assert all(type(v) is Fraction for v in _parsed_fractions(trace.steps))

    def test_each_distinct_string_is_parsed_once(self, monkeypatch):
        doc = _tower_trace_doc()
        doc["steps"][1]["discrepancies_after"]["4"] = 0
        calls = []
        real = cli.parse_fraction

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(cli, "parse_fraction", counting)
        _, trace = cli.trace_from_json(doc)
        # "0" is read twice but parsed once; the JSON int 0 is not interned.
        assert calls == ["1", "1/2", "0", "-1", 0]
        flop, blowdown = trace.steps
        assert flop.discrepancies_after[4] is blowdown.discrepancies_before[4]

    def test_two_parses_share_no_fraction(self):
        doc = _tower_trace_doc()
        first = _parsed_fractions(cli.trace_from_json(doc)[1].steps)
        second = _parsed_fractions(cli.trace_from_json(doc)[1].steps)
        assert first == second
        assert {id(v) for v in first}.isdisjoint(id(v) for v in second)

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_a_non_string_equal_to_a_seen_one_is_rejected(self, value):
        # True == 1.0 == 1 with equal hashes: a table keyed on values would
        # take either for the "1" or the JSON 1 read before it.
        doc = _tower_trace_doc()
        assert doc["steps"][0]["epsilon"]["supremum"] == "1"
        doc["steps"][1]["discrepancies_before"]["4"] = 1
        doc["steps"][1]["discrepancies_after"]["3"] = value
        with pytest.raises(ValueError, match=re.escape("steps[1].discrepancies_after.3: ")):
            cli.trace_from_json(doc)

    def test_a_state_between_two_steps_is_written_and_parsed_once(self):
        spec = generate_crepant_pair(helpers.corner(), 8, 5)
        doc = cli.trace_to_json(spec.config, decompose_morphism(spec))
        steps = doc["steps"]
        assert len(steps) > 2
        for prior, step in zip(steps, steps[1:]):
            assert prior["discrepancies_after"] is step["discrepancies_before"]
        read = json.loads(json.dumps(doc))
        _, trace = cli.trace_from_json(read)
        for prior, step in zip(trace.steps, trace.steps[1:]):
            assert prior.discrepancies_after is step.discrepancies_before
        assert trace.steps == _reference_steps(read)
        # A tampered map is read on its own.
        read["steps"][2]["discrepancies_before"] = dict(read["steps"][1]["discrepancies_after"])
        tampered = read["steps"][2]["discrepancies_before"]
        tampered[min(tampered)] = "5/7"
        _, trace = cli.trace_from_json(read)
        assert trace.steps[2].discrepancies_before is not trace.steps[1].discrepancies_after
        assert trace.steps == _reference_steps(read)

    @pytest.mark.parametrize("after, before", [(1, True), (0, False), (0, 0.0)])
    def test_a_before_equal_to_a_non_string_after_is_read_on_its_own(self, after, before):
        # A JSON 1 equals true: the parsed "after" must not stand for it.
        doc = _tower_trace_doc()
        doc["steps"][0]["discrepancies_after"]["4"] = after
        doc["steps"][1]["discrepancies_before"]["4"] = before
        with pytest.raises(ValueError, match=re.escape("steps[1].discrepancies_before.4: ")):
            cli.trace_from_json(doc)

    def test_a_bad_value_deep_in_a_map_names_its_path(self):
        spec = generate_crepant_pair(helpers.corner(), 8, 5)
        doc = json.loads(json.dumps(cli.trace_to_json(spec.config, decompose_morphism(spec))))
        after = doc["steps"][6]["discrepancies_after"]
        assert list(after)[-1] == "10" and len(after) == 7
        after["10"] = "1.5"
        with pytest.raises(ValueError) as raised:
            cli.trace_from_json(doc)
        assert str(raised.value) == (
            "steps[6].discrepancies_after.10: expected an integer or a fraction "
            "string 'p/q', got '1.5'"
        )

    def test_a_zero_padded_key_cannot_hide_a_wrong_discrepancy(self, tmp_path, capsys):
        # "03" read as curve 3 would overwrite the wrong "3" before it.
        spec = generate_crepant_pair(helpers.corner(), 6, 5)
        doc = json.loads(json.dumps(cli.trace_to_json(spec.config, decompose_morphism(spec))))
        after = doc["steps"][-1]["discrepancies_after"]
        assert len(doc["steps"]) == 6 and after["3"] == "0"
        after["3"] = "-7/3"
        after["03"] = "0"
        scenario = write_scenario(tmp_path / "pair.json", spec.config)
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["verify", scenario, "--trace", str(trace_path)]) == 2
        captured = capsys.readouterr()
        assert "verified" not in captured.out
        assert captured.err == (
            "error: steps[5].discrepancies_after has a key '03' that is not a curve id\n"
        )

    @pytest.mark.parametrize("key", ["03", "-0", "007", "-04"])
    def test_a_key_must_be_the_id_as_written(self, key):
        doc = _tower_trace_doc()
        doc["steps"][1]["discrepancies_after"][key] = "0"
        with pytest.raises(ValueError) as raised:
            cli.trace_from_json(doc)
        assert str(raised.value) == (
            f"steps[1].discrepancies_after has a key {key!r} that is not a curve id"
        )

    def test_a_repeated_malformed_string_is_reported_at_its_first_path(self):
        doc = _tower_trace_doc()
        doc["steps"][0]["discrepancies_after"]["4"] = "1e0"
        doc["steps"][1]["discrepancies_before"]["4"] = "1e0"
        with pytest.raises(ValueError) as raised:
            cli.trace_from_json(doc)
        assert str(raised.value).startswith("steps[0].discrepancies_after.4: ")


# How a map of a trace document may follow the map before it.
_RESHAPES = ("extend", "shrink", "repeat", "change", "non-string", "bad key")
_GOOD_VALUES = ["0", "1", "-1", "1/2", "-2/3", "04/06", " 1/2", "3"]
_NON_STRINGS = [1, True, 1.0, 0, False]
_BAD_KEYS = ["03", "-0", "+1", "007", " 2", "x"]


def _reshaped(draw, values: dict, how: str, next_key: int) -> dict:
    """A copy of `values` reshaped as `how` says; "extend" adds `next_key`."""
    out = dict(values)
    if how == "extend":
        out[str(next_key)] = draw(st.sampled_from(_GOOD_VALUES), label="new value")
    elif how == "shrink" and out:
        del out[draw(st.sampled_from(sorted(out)), label="dropped")]
    elif how == "change" and out:
        key = draw(st.sampled_from(sorted(out)), label="changed")
        out[key] = draw(st.sampled_from(_GOOD_VALUES), label="changed to")
    elif how == "non-string":
        keys = sorted(out) + [str(next_key)]
        out[draw(st.sampled_from(keys), label="at")] = draw(
            st.sampled_from(_NON_STRINGS), label="non-string"
        )
    elif how == "bad key":
        out[draw(st.sampled_from(_BAD_KEYS), label="bad key")] = "0"
    return out


def _reference_error(doc) -> str | None:
    """The error that reading every map of `doc` in full, in document
    order, meets first, as the reader reports it; None if there is none."""
    for i, step in enumerate(doc["steps"]):
        for name in ("discrepancies_before", "discrepancies_after"):
            for key, value in step[name].items():
                if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
                    return f"steps[{i}].{name} has a key {key!r} that is not a curve id"
                try:
                    cli.parse_fraction(value)
                except ValueError as exc:
                    return f"steps[{i}].{name}.{key}: {exc}"
    return None


class TestIncrementalReader:
    """A map that extends the map before it by one key is read on its new
    entry alone; every map reads as the full reference parse does, and a bad
    map raises the error a full read of the document raises first."""

    @pytest.mark.parametrize("where", ["first", "deep"])
    @pytest.mark.parametrize("how", _RESHAPES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_reads_as_the_reference(self, how, where, data):
        length = data.draw(st.integers(1, 3) if where == "first" else st.integers(8, 12), label="steps")
        at = 0 if where == "first" else data.draw(st.integers(6, length - 1), label="reshaped step")
        maps = [data.draw(st.sampled_from([{}, {"1": "0"}, {"1": "-1", "2": "1/2"}]), label="start")]
        for i in range(2 * length - 1):
            step, is_after = divmod(i + 1, 2)
            if is_after and step == at:
                shape = how
            elif is_after:
                shape = data.draw(st.sampled_from(("extend",) * 4 + _RESHAPES), label="shape")
            else:
                shape = data.draw(st.sampled_from(("repeat",) * 4 + _RESHAPES), label="shape")
            maps.append(_reshaped(data.draw, maps[-1], shape, 3 + i))
        doc = {
            "scenario_digest": "digest",
            "start": [],
            "end": [],
            "flop_minimal_index": length,
            "steps": [
                {
                    "kind": "flop",
                    "curve": 1 + i,
                    "epsilon": {"supremum": "1", "chosen": "1/2"},
                    "discrepancies_before": maps[2 * i],
                    "discrepancies_after": maps[2 * i + 1],
                }
                for i in range(length)
            ],
        }
        error = _reference_error(doc)
        if error is None:
            _, trace = cli.trace_from_json(doc)
            assert trace.steps == _reference_steps(doc)
        else:
            with pytest.raises(ValueError) as raised:
                cli.trace_from_json(doc)
            assert str(raised.value) == error

    @pytest.mark.parametrize(
        "before, after, named",
        [
            # A JSON 1 equals true, so only a map of strings is extended.
            ({"4": 1}, {"4": True, "3": "0"}, "steps[1].discrepancies_after.4: "),
            ({"4": "1"}, {"4": "1", "3": True}, "steps[1].discrepancies_after.3: "),
            ({"4": "1"}, {"4": "1", "3": 1.0}, "steps[1].discrepancies_after.3: "),
            ({"4": "1"}, {"4": "1", "04": "0"}, "steps[1].discrepancies_after has a key '04'"),
        ],
    )
    def test_a_bad_new_entry_is_rejected(self, before, after, named):
        doc = _tower_trace_doc()
        doc["steps"][0]["discrepancies_after"] = dict(before)
        doc["steps"][1]["discrepancies_before"] = dict(before)
        doc["steps"][1]["discrepancies_after"] = after
        with pytest.raises(ValueError, match=re.escape(named)):
            cli.trace_from_json(doc)

    def test_a_written_trace_reads_one_entry_per_step(self, monkeypatch):
        spec = generate_crepant_pair(helpers.corner(), 40, 7)
        doc = json.loads(json.dumps(cli.trace_to_json(spec.config, decompose_morphism(spec))))
        read = []
        real = cli._read_id

        def counting(key):
            read.append(key)
            return real(key)

        monkeypatch.setattr(cli, "_read_id", counting)
        _, trace = cli.trace_from_json(doc)
        assert read == [str(step["curve"]) for step in doc["steps"]]
        assert trace.steps == _reference_steps(doc)
        # `verify_trace` compares a record once: a step's "before" is the
        # previous step's parsed "after" itself.
        for prior, step in zip(trace.steps, trace.steps[1:]):
            assert step.discrepancies_before is prior.discrepancies_after


def _respelled(text: str) -> str:
    """An equal fraction written another way: "-1/2" as "-2/4", "3" as "6/2"."""
    value = Fraction(text)
    return f"{2 * value.numerator}/{2 * value.denominator}"


class TestTraceMutationSweep:
    """One change to a written depth-40 trace makes `verify_trace` and
    `logsurf verify` reject it at the changed step; an equal value written
    another way is still accepted."""

    # A blow-down step, late enough that its maps hold both 0 and -1.
    STEP = 38
    # A flop step, before the split at step 36.
    FLOP = 30

    @pytest.fixture(scope="class", params=["corner", "boundary_chain"])
    def written(self, request):
        spec = generate_crepant_pair(getattr(helpers, request.param)(), 40, 11)
        trace = decompose_morphism(spec)
        doc = json.loads(json.dumps(cli.trace_to_json(spec.config, trace), sort_keys=True))
        assert len(doc["steps"]) == 40
        return spec.config, doc

    @staticmethod
    def _verify_command(config, doc, tmp_path, capsys):
        """`logsurf verify`'s exit code and error output on the document."""
        scenario = write_scenario(tmp_path / "scenario.json", config)
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["verify", scenario, "--trace", str(trace_path)])
        return code, capsys.readouterr().err

    def _verdicts(self, config, doc, tmp_path, capsys):
        """`verify_trace`'s (verdict, failure, step index) on the read document,
        and `logsurf verify`'s exit code and error output."""
        _, trace = cli.trace_from_json(json.loads(json.dumps(doc)))
        result = verify_trace(config, trace.start, trace)
        code, err = self._verify_command(config, doc, tmp_path, capsys)
        return (bool(result), result.failure, result.step_index), code, err

    @pytest.mark.parametrize(
        "mutation", ["epsilon.chosen", "epsilon.supremum", "order", "split + 1", "split - 1"]
    )
    def test_a_certificate_mutation_is_rejected_at_its_step(
        self, written, mutation, tmp_path, capsys
    ):
        config, doc = written
        doc = json.loads(json.dumps(doc))
        steps = doc["steps"]
        split = doc["flop_minimal_index"]
        assert steps[self.FLOP]["kind"] == "flop" and split == 36
        if mutation.startswith("epsilon."):
            eps = steps[self.FLOP]["epsilon"]
            name = mutation.removeprefix("epsilon.")
            eps[name] = str(Fraction(eps[name]) / 3)
            index, failure = self.FLOP, "recorded perturbation bound does not match"
        elif mutation == "order":
            order = steps[self.STEP]["order"]
            assert order[0] != order[1]
            order[0], order[1] = order[1], order[0]
            index, failure = self.STEP, "recorded contraction order does not match"
        elif mutation == "split + 1":
            doc["flop_minimal_index"] = split + 1
            index, failure = split, "step kind blowdown on the wrong side of the split"
        else:
            doc["flop_minimal_index"] = split - 1
            index, failure = split - 1, "step kind flop on the wrong side of the split"
        verdict, code, err = self._verdicts(config, doc, tmp_path, capsys)
        assert verdict == (False, failure, index)
        assert code == 2
        assert err == f"verification failed at step {index}: {failure}\n"

    @pytest.mark.parametrize("supremum", [None, "missing"])
    def test_a_null_or_missing_supremum_fails_at_parse(
        self, written, supremum, tmp_path, capsys
    ):
        config, doc = written
        doc = json.loads(json.dumps(doc))
        eps = doc["steps"][self.FLOP]["epsilon"]
        path = f"steps[{self.FLOP}].epsilon.supremum"
        if supremum is None:
            eps["supremum"] = None
            error = f"{path}: expected an integer or a fraction string 'p/q', got None"
        else:
            del eps["supremum"]
            error = f"{path} is missing"
        with pytest.raises(ValueError) as raised:
            cli.trace_from_json(doc)
        assert str(raised.value) == error
        assert self._verify_command(config, doc, tmp_path, capsys) == (2, f"error: {error}\n")

    @pytest.mark.parametrize("field", ["discrepancies_after", "discrepancies_before"])
    @pytest.mark.parametrize("mutation", helpers.MAP_MUTATIONS)
    def test_a_mutation_is_rejected_at_its_step(
        self, written, mutation, field, tmp_path, capsys
    ):
        config, doc = written
        doc = json.loads(json.dumps(doc))
        index = self.STEP
        helpers.mutate_map(doc, config, index, field, mutation)
        which = "posterior" if field == "discrepancies_after" else "prior"
        failure = f"recorded {which} discrepancies do not match"
        verdict, code, err = self._verdicts(config, doc, tmp_path, capsys)
        assert verdict == (False, failure, index)
        assert code == 2
        assert err == f"verification failed at step {index}: {failure}\n"

    @pytest.mark.parametrize("where", ["new value", "inherited values", "every value"])
    def test_an_equal_value_written_another_way_is_accepted(
        self, written, where, tmp_path, capsys
    ):
        config, doc = written
        doc = json.loads(json.dumps(doc))
        steps = doc["steps"]
        new = str(steps[self.STEP]["curve"])
        records = (
            [step[field] for step in steps for field in ("discrepancies_before", "discrepancies_after")]
            if where == "every value"
            else [steps[self.STEP]["discrepancies_after"]]
        )
        respelled = 0
        for record in records:
            for key, value in record.items():
                if where == "new value" and key != new or where == "inherited values" and key == new:
                    continue
                record[key] = _respelled(value)
                respelled += 1
        assert respelled
        verdict, code, err = self._verdicts(config, doc, tmp_path, capsys)
        assert verdict == (True, None, None)
        assert (code, err) == (0, "")


class TestMinimizeCommand:
    def test_du_val(self, du_val, capsys):
        assert cli.main(["minimize", du_val]) == 0
        out = capsys.readouterr().out
        assert "1. flop curve 1 epsilon 1/2" in out
        assert "final contracted: 1" in out

    def test_already_minimal(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "ell.json", helpers.elliptic())
        assert cli.main(["minimize", path]) == 0
        assert "final contracted: (none)" in capsys.readouterr().out

    def test_non_nef_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "corner.json", helpers.corner())
        assert cli.main(["minimize", path]) == 2

    def test_picard_rank_below_a_contracted_set_exits_2(self, tmp_path, capsys):
        # A chain of three (−2)-curves flops onto all three, so a model of
        # Picard rank 1 is refused at the first move, with no trace written.
        chain = CurveConfig.build(
            [(1, 0, -2, 0), (2, 0, -2, 0), (3, 0, -2, 0)],
            [(1, [1, 2]), (2, [2, 3])],
            picard_rank_of_model=1,
        )
        path = write_scenario(tmp_path / "chain.json", chain)
        trace_path = tmp_path / "trace.json"
        assert cli.main(["minimize", path, "--trace", str(trace_path)]) == 2
        out, err = capsys.readouterr()
        assert "picard_rank_of_model 1 is below 1 + 1 = 2" in err
        assert not trace_path.exists()
        ample = helpers.replace(chain, picard_rank_of_model=4)
        path = write_scenario(tmp_path / "chain4.json", ample)
        assert cli.main(["minimize", path]) == 0
        assert "final contracted: 1,2,3" in capsys.readouterr().out

    def test_minimize_trace_verifies(self, du_val, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        assert cli.main(["minimize", du_val, "--trace", trace_path]) == 0
        assert cli.main(["verify", du_val, "--trace", trace_path]) == 0

    def test_minimize_document_records_its_point_base(self, du_val, tower, tmp_path):
        minimized, decomposed = tmp_path / "m.json", tmp_path / "d.json"
        assert cli.main(["minimize", du_val, "--trace", str(minimized)]) == 0
        argv = ["decompose", tower, "--from", "", "--to", "3,4", "--trace", str(decomposed)]
        assert cli.main(argv) == 0
        doc = json.loads(minimized.read_text(encoding="utf-8"))
        assert doc["base"] == "point"
        assert "base" not in json.loads(decomposed.read_text(encoding="utf-8"))
        config, _, _ = cli.load_scenario(du_val)
        assert cli.trace_to_json(config, cli.trace_from_json(doc)[1]) == doc

    def test_cut_minimize_trace_fails_verification(self, tmp_path, capsys):
        from logsurf import CurveConfig

        chain = CurveConfig.build(
            [(1, 0, -2, 0), (2, 0, -2, 0), (3, 0, -2, 0)], [(1, [1, 2]), (2, [2, 3])]
        )
        path = write_scenario(tmp_path / "chain.json", chain)
        trace_path = tmp_path / "trace.json"
        assert cli.main(["minimize", path, "--trace", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        assert len(doc["steps"]) == 3
        doc["steps"] = doc["steps"][:1]
        doc["end"] = [1]
        doc["flop_minimal_index"] = 1
        trace_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["flops", path, "--contract", "1", "--base", "point"]) == 0
        assert capsys.readouterr().out == "2: yes\n3: yes\n"
        assert cli.main(["verify", path, "--trace", str(trace_path)]) == 2
        assert "verification failed" in capsys.readouterr().err


class TestBlowupCommand:
    def test_rebuilds_the_tower(self, tmp_path, capsys):
        corner = write_scenario(tmp_path / "corner.json", helpers.corner())
        once = str(tmp_path / "once.json")
        twice = str(tmp_path / "twice.json")
        assert cli.main(["blowup", corner, "--at", "point:1", "--coeff", "1", "-o", once]) == 0
        assert "new curve 3" in capsys.readouterr().out
        assert cli.main(["blowup", once, "--at", "free:3", "--coeff", "0", "-o", twice]) == 0
        config, _, _ = cli.load_scenario(twice)
        assert config == helpers.corner_twice()

    def test_generic_centre(self, du_val, tmp_path):
        out = str(tmp_path / "out.json")
        assert cli.main(["blowup", du_val, "--at", "generic", "--coeff", "1/2", "-o", out]) == 0
        config, _, _ = cli.load_scenario(out)
        assert config.curve(2).boundary_coeff.numerator == 1

    def test_bad_coefficient_exits_2(self, du_val, tmp_path, capsys):
        out = str(tmp_path / "out.json")
        assert cli.main(["blowup", du_val, "--at", "generic", "--coeff", "3/2", "-o", out]) == 2

    def test_bad_target_exits_2(self, du_val, tmp_path, capsys):
        out = str(tmp_path / "out.json")
        assert cli.main(["blowup", du_val, "--at", "nowhere", "--coeff", "0", "-o", out]) == 2

    @pytest.mark.parametrize(
        "at, bad",
        [
            ("point:0_1", "0_1"),
            ("point: 1", " 1"),
            ("free:0_2", "0_2"),
            ("free:+1", "+1"),
            ("free:03", "03"),
            ("point:-0", "-0"),
        ],
    )
    def test_malformed_target_id_exits_2(self, tmp_path, capsys, at, bad):
        # int() alone reads each of these as the id 0, 1, 2 or 3.
        out = tmp_path / "out.json"
        corner = str(SCENARIOS / "boundary-corner.json")
        assert cli.main(["blowup", corner, "--at", at, "--coeff", "1", "-o", str(out)]) == 2
        assert f"bad id {bad!r}" in capsys.readouterr().err
        assert not out.exists()


class TestDotCommand:
    def test_emits_graph(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.json", helpers.corner_twice(), {3, 4})
        assert cli.main(["dot", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph curve_config {")
        assert out.endswith("}\n")
        assert 'c3 [label="3: 0,-2,1", style=filled];' in out
        assert 'c4 [label="4: 0,-1,0", style=filled];' in out
        assert 'c1 [label="1: 0,-1,1"];' in out
        assert 'c1 -- c3 [label="p2"];' in out
        assert 'c3 -- c4 [label="p4"];' in out

    def test_marks_a_one_curve_point(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.json", CurveConfig.build([(1, 0, -1, 0)], [(7, [1])]))
        assert cli.main(["dot", path]) == 0
        out = capsys.readouterr().out
        assert "  p7 [shape=point];\n" in out
        assert '  p7 -- c1 [label="p7"];\n' in out

    def test_writes_file_deterministically(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.json", helpers.corner_twice())
        out1, out2 = str(tmp_path / "a.dot"), str(tmp_path / "b.dot")
        assert cli.main(["dot", path, "-o", out1]) == 0
        assert cli.main(["dot", path, "-o", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        assert capsys.readouterr().out == ""


class TestExitCodeThree:
    def test_stuck_decomposition(self, tower, monkeypatch, capsys):
        def explode(spec):
            raise StuckInPhase2Error("no blow-down candidate remains")

        monkeypatch.setattr(cli, "decompose_morphism", explode)
        assert cli.main(["decompose", tower, "--from", "", "--to", "3,4"]) == 3
        assert "error" in capsys.readouterr().err

    def test_broken_guarantee(self, du_val, monkeypatch, capsys):
        def explode(state):
            raise TheoremViolationError("postcondition failed")

        monkeypatch.setattr(cli, "minimize", explode)
        assert cli.main(["minimize", du_val]) == 3


INSTALLED_SCRIPT = shutil.which("logsurf", path=sysconfig.get_path("scripts"))

# The script pip writes for a console-script entry point `module:attr`.
CONSOLE_WRAPPER = """\
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.argv[0] = "logsurf"
    sys.exit({attr}())
"""


class TestEntryPoints:
    def test_console_script(self, tower):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "logsurf" in scripts
        module, _, attr = scripts["logsurf"].partition(":")
        assert callable(getattr(importlib.import_module(module), attr))

        wrapper = CONSOLE_WRAPPER.format(module=module, attr=attr)
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "validate", tower],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "valid" in proc.stdout

    @pytest.mark.skipif(
        INSTALLED_SCRIPT is None,
        reason="logsurf console script not installed for this interpreter",
    )
    def test_installed_console_script(self, tower):
        proc = subprocess.run(
            [INSTALLED_SCRIPT, "validate", tower], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "valid" in proc.stdout

    def test_module_invocation(self, tower):
        proc = subprocess.run(
            [sys.executable, "-m", "logsurf", "classify", tower, "--contract", "3,4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "LogTerminal"
