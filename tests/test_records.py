"""The library's record types: their `repr`, value equality and hashing,
immutability, and copying, pinned on fixed instances of each; and an
import that generates no methods for them."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from types import MappingProxyType

import pytest

import helpers
from logsurf import (
    BlowdownCheck,
    BlowdownSim,
    BlowUpTarget,
    ComponentImage,
    CrepantData,
    CrossingPoint,
    Curve,
    CurveConfig,
    DecompositionTrace,
    DivisorialCenter,
    EpsilonChoice,
    FlopCheck,
    LocalBlowdownModel,
    MorphismSpec,
    MoveKind,
    MoveRecord,
    NefReport,
    NodeCenter,
    PicardRank,
    PointBase,
    SurfaceState,
    TargetBase,
    VerifyResult,
    Violation,
)
from logsurf.moves import _Check


class _HashableMap(dict):
    """A mapping that hashes, so records holding one can be hashed."""

    def __hash__(self):
        return hash(frozenset(self.items()))


CHAIN = helpers.chain()
CHAIN_REPR = (
    "CurveConfig(curves=(Curve(id=1, genus=0, self_intersection=-2, "
    "boundary_coeff=Fraction(0, 1)), Curve(id=2, genus=0, self_intersection=-2, "
    "boundary_coeff=Fraction(0, 1))), points=(CrossingPoint(id=1, "
    "incident=frozenset({1, 2})),), picard_rank_of_model=None)"
)
STATE = SurfaceState(CHAIN, {1})
OTHER_STATE = SurfaceState(CHAIN, {1})
MODEL = LocalBlowdownModel.from_config(CHAIN, [1])
RESIDUAL = _HashableMap({1: Fraction(-1, 2), 2: Fraction(0)})
HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)
BEFORE, AFTER = _HashableMap({4: Fraction(-1, 3)}), _HashableMap({})

# (instance, its repr, an equal instance built apart, an unequal instance)
VALUE_RECORDS = {
    "Curve": (
        Curve(1, 0, -2, HALF),
        "Curve(id=1, genus=0, self_intersection=-2, boundary_coeff=Fraction(1, 2))",
        Curve(1, 0, -2, Fraction(2, 4)),
        Curve(1, 0, -2, QUARTER),
    ),
    "CrossingPoint": (
        CrossingPoint(1, frozenset({1, 2})),
        "CrossingPoint(id=1, incident=frozenset({1, 2}))",
        CrossingPoint(1, frozenset({2, 1})),
        CrossingPoint(2, frozenset({1, 2})),
    ),
    "Violation": (
        Violation("BadGenus", "curve 1 has genus -1"),
        "Violation(kind='BadGenus', detail='curve 1 has genus -1')",
        Violation("BadGenus", "curve 1 has genus -1"),
        Violation("BadGenus", "curve 2 has genus -1"),
    ),
    "CurveConfig": (
        CHAIN,
        CHAIN_REPR,
        helpers.chain(),
        CurveConfig(CHAIN.curves, CHAIN.points, 3),
    ),
    "BlowUpTarget": (
        BlowUpTarget("generic"),
        "BlowUpTarget(kind='generic', ref=None)",
        BlowUpTarget("generic", None),
        BlowUpTarget("point", 1),
    ),
    "PointBase": (PointBase(), "PointBase()", PointBase(), TargetBase(())),
    "TargetBase": (
        TargetBase([4, 3]),
        "TargetBase(contracted_on_target=frozenset({3, 4}))",
        TargetBase({3, 4}),
        TargetBase({3}),
    ),
    "CrepantData": (
        CrepantData(RESIDUAL, frozenset({1})),
        "CrepantData(residual={1: Fraction(-1, 2), 2: Fraction(0, 1)}, contracted=frozenset({1}))",
        CrepantData(_HashableMap(RESIDUAL), frozenset({1}), None),
        CrepantData(RESIDUAL, frozenset({1, 2})),
    ),
    "DivisorialCenter": (
        DivisorialCenter(1),
        "DivisorialCenter(curve=1)",
        DivisorialCenter(1),
        DivisorialCenter(2),
    ),
    "NodeCenter": (
        NodeCenter(1, frozenset({1, 2})),
        "NodeCenter(point=1, curves=frozenset({1, 2}))",
        NodeCenter(1, frozenset({1, 2})),
        NodeCenter(1, frozenset({1, 3})),
    ),
    "ComponentImage": (
        ComponentImage(frozenset({3})),
        "ComponentImage(component=frozenset({3}))",
        ComponentImage(frozenset({3})),
        ComponentImage(frozenset({3, 4})),
    ),
    "EpsilonChoice": (
        EpsilonChoice(HALF, QUARTER),
        "EpsilonChoice(supremum=Fraction(1, 2), chosen=Fraction(1, 4))",
        EpsilonChoice(Fraction(1, 2), Fraction(1, 4)),
        EpsilonChoice(HALF, HALF),
    ),
    "MoveRecord": (
        MoveRecord(MoveKind.FLOP, 4, BEFORE, AFTER, epsilon=EpsilonChoice(HALF, QUARTER)),
        "MoveRecord(kind=<MoveKind.FLOP: 'flop'>, curve=4, discrepancies_before="
        "{4: Fraction(-1, 3)}, discrepancies_after={}, epsilon=EpsilonChoice("
        "supremum=Fraction(1, 2), chosen=Fraction(1, 4)), order=None)",
        MoveRecord(MoveKind.FLOP, 4, BEFORE, AFTER, EpsilonChoice(HALF, QUARTER), None),
        MoveRecord(MoveKind.BLOWDOWN, 4, BEFORE, AFTER, order=(4,)),
    ),
    "_Check": (
        _Check(STATE, 2, "NonzeroLogDegree", "log degree is 1, not 0"),
        "_Check(curve=2, reason='NonzeroLogDegree', detail='log degree is 1, not 0')",
        _Check(STATE, 2, "NonzeroLogDegree", "log degree is 1, not 0"),
        _Check(OTHER_STATE, 2, "NonzeroLogDegree", "log degree is 1, not 0"),
    ),
    "FlopCheck": (
        FlopCheck(STATE, 2, None, None, multiplicities=None),
        "FlopCheck(curve=2, reason=None, detail=None)",
        FlopCheck(STATE, 2, None, None, None),
        FlopCheck(STATE, 2, None, None, _HashableMap({1: HALF})),
    ),
    "BlowdownCheck": (
        BlowdownCheck(STATE, 2, "NoMinusOne", "no (-1)-curve", (1,)),
        "BlowdownCheck(curve=2, reason='NoMinusOne', detail='no (-1)-curve', order=(1,))",
        BlowdownCheck(STATE, 2, "NoMinusOne", "no (-1)-curve", order=(1,)),
        BlowdownCheck(STATE, 2, "NoMinusOne", "no (-1)-curve"),
    ),
    "PicardRank": (
        PicardRank(2, "relative-to-target"),
        "PicardRank(value=2, mode='relative-to-target')",
        PicardRank(2, "relative-to-target"),
        PicardRank(2, "of-model-over-point"),
    ),
    "NefReport": (
        NefReport(True),
        "NefReport(complete=True, failing=())",
        NefReport(True, ()),
        NefReport(True, ((1, Fraction(-1)),)),
    ),
    "MorphismSpec": (
        MorphismSpec(CHAIN, {1}, [2, 1]),
        f"MorphismSpec(config={CHAIN_REPR}, source_contracted=frozenset({{1}}), "
        "target_contracted=frozenset({1, 2}))",
        MorphismSpec(helpers.chain(), [1], {1, 2}),
        MorphismSpec(CHAIN, (), {1, 2}),
    ),
    "DecompositionTrace": (
        DecompositionTrace((), 0, frozenset({1}), frozenset({1}), PointBase()),
        "DecompositionTrace(steps=(), flop_minimal_index=0, start=frozenset({1}), "
        "end=frozenset({1}), base=PointBase())",
        DecompositionTrace((), 0, frozenset({1}), frozenset({1}), PointBase()),
        DecompositionTrace((), 0, frozenset({1}), frozenset({1}), TargetBase({1})),
    ),
    "VerifyResult": (
        VerifyResult(),
        "VerifyResult(failure=None, step_index=None)",
        VerifyResult(None, None),
        VerifyResult("the final state still admits a move", 2),
    ),
}

FROZEN = [*VALUE_RECORDS, "SurfaceState"]


def _record(name):
    return STATE if name == "SurfaceState" else VALUE_RECORDS[name][0]


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_repr(name):
    record, expected, _, _ = VALUE_RECORDS[name]
    assert repr(record) == expected


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_equality_and_hash(name):
    record, _, equal, unequal = VALUE_RECORDS[name]
    assert equal is not record
    assert record == equal and not record != equal
    assert hash(record) == hash(equal)
    assert record != unequal and not record == unequal
    assert hash(record) != hash(unequal)


def test_solution_facts_take_no_part_in_equality_or_hash():
    data = CrepantData(RESIDUAL, frozenset({1}))
    other = CrepantData(RESIDUAL, frozenset({1}), CrepantData(RESIDUAL, frozenset()).facts)
    assert data.facts is not other.facts
    assert data == other and hash(data) == hash(other)
    assert "facts" not in repr(data)


def test_unhashable_fields_make_an_unhashable_record():
    data = CrepantData(MappingProxyType({1: HALF}), frozenset({1}))
    assert data == CrepantData(MappingProxyType({1: HALF}), frozenset({1}))
    with pytest.raises(TypeError):
        hash(data)
    with pytest.raises(TypeError):
        hash(FlopCheck(STATE, 2, None, None, {1: HALF}))


def test_records_of_different_types_are_unequal():
    flop = FlopCheck(STATE, 2, "NoMinusOne", None, None)
    down = BlowdownCheck(STATE, 2, "NoMinusOne", None, ())
    assert flop != down and flop != _Check(STATE, 2, "NoMinusOne", None)
    assert PointBase() != TargetBase(()) and PointBase() != ()
    assert Violation("BadGenus", "x") != ("BadGenus", "x")


def test_a_surface_state_compares_and_hashes_by_identity():
    assert STATE == STATE and hash(STATE) == object.__hash__(STATE)
    assert STATE != OTHER_STATE and not STATE == OTHER_STATE
    assert hash(OTHER_STATE) == object.__hash__(OTHER_STATE)
    assert repr(STATE) == (
        f"SurfaceState(config={CHAIN_REPR}, contracted=frozenset({{1}}), base=PointBase())"
    )


@pytest.mark.parametrize("name", FROZEN)
def test_frozen(name):
    record = _record(name)
    for field in ("curve", "reason", "id", "config", "failure", "value", "new"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == (repr(STATE) if name == "SurfaceState" else VALUE_RECORDS[name][1])


def test_a_blowdown_simulation_is_mutable_and_unhashable():
    sim = BlowdownSim(None, None, (1,), MODEL)
    assert repr(sim) == "BlowdownSim(reason=None, detail=None, order=(1,))"
    assert sim == BlowdownSim(None, None, (1,), MODEL)
    assert sim != BlowdownSim(None, None, (1,), LocalBlowdownModel.from_config(CHAIN, [1]))
    with pytest.raises(TypeError):
        hash(sim)
    sim.reason = "NoMinusOne"
    assert not sim and sim.reason == "NoMinusOne"


@pytest.mark.parametrize(
    "name", ["Curve", "CurveConfig", "TargetBase", "PointBase", "MoveRecord", "VerifyResult"]
)
def test_copies_and_pickles_are_equal(name):
    record = VALUE_RECORDS[name][0]
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is type(record)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Both cost most of the package's import time when records were generated.
    code = "import sys, logsurf.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_the_cli_loads_neither_hashlib_nor_argparse():
    # Only the digest and the command line use them; they load on first use.
    code = (
        "import sys, logsurf.cli as cli; print(sorted({'hashlib', 'argparse'} & set(sys.modules)));"
        " cli.config_digest(cli.CurveConfig.build([(1, 0, -1, 0)], [])); cli.build_parser();"
        " print(sorted({'hashlib', 'argparse'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n['argparse', 'hashlib']\n"
