"""End-to-end drivers: two-phase factorization, minimization, trace replay, generation."""

import collections
from collections import OrderedDict
import dataclasses
import functools
import gc
import hashlib
import json
import random
from fractions import Fraction
from types import MappingProxyType
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import oracles
from logsurf import (
    DecompositionTrace,
    InvalidStateError,
    MorphismSpec,
    MoveKind,
    NoAdmissibleTargetError,
    NotCrepantError,
    NotLogTerminalError,
    NotNefError,
    NotNestedError,
    StuckInPhase2Error,
    CrossingPoint,
    CurveConfig,
    PointBase,
    SurfaceState,
    TargetBase,
    TheoremViolationError,
    at_point,
    blow_up,
    classify,
    Classification,
    crepant_pullback,
    decompose_morphism,
    generate_crepant_pair,
    is_log_crepant,
    minimize,
    verify_trace,
)
import logsurf.crepant
import logsurf.decompose
import logsurf.moves
from logsurf.cli import config_digest, trace_to_json


def tower_spec() -> MorphismSpec:
    return MorphismSpec(helpers.corner_twice(), set(), {3, 4})


class TestDecomposeMorphism:
    def test_worked_tower(self):
        trace = decompose_morphism(tower_spec())
        assert [(s.kind, s.curve) for s in trace.steps] == [
            (MoveKind.FLOP, 4),
            (MoveKind.BLOWDOWN, 3),
        ]
        assert trace.flop_minimal_index == 1
        assert trace.start == frozenset()
        assert trace.end == frozenset({3, 4})
        assert (trace.steps[0].epsilon.supremum, trace.steps[0].epsilon.chosen) == (
            1,
            Fraction(1, 2),
        )
        assert trace.steps[1].order == (4, 3)
        assert trace.steps[1].discrepancies_after == {3: -1, 4: 0}

    def test_stuck_names_each_remaining_curves_failed_test(self, monkeypatch):
        # Valid input never sticks, so the passing blow-down is withheld.
        real = logsurf.decompose.is_log_blowdown

        def withheld(state, cid):
            check = real(state, cid)
            return dataclasses.replace(check, ok=False, reason="Withheld") if check else check

        # The scan and the diagnostics both see the withheld check.
        monkeypatch.setattr(logsurf.decompose, "is_log_blowdown", withheld)
        monkeypatch.setattr(logsurf.moves, "is_log_blowdown", withheld)
        spec = generate_crepant_pair(helpers.corner(), 8, 0)
        with pytest.raises(StuckInPhase2Error) as raised:
            decompose_morphism(spec)
        assert str(raised.value) == (
            "at contracted set [3, 4, 7, 8, 9], no curve in [5, 6, 10] admits a log "
            "blow-down (curve 5: ImageNotMinusOne; curve 6: ImageNotMinusOne; "
            "curve 10: Withheld)"
        )

    def test_identity_morphism(self):
        trace = decompose_morphism(MorphismSpec(helpers.corner_twice(), {4}, {4}))
        assert trace.steps == ()
        assert trace.flop_minimal_index == 0
        assert trace.start == trace.end == frozenset({4})

    def test_non_crepant_input_rejected(self):
        with pytest.raises(NotCrepantError):
            decompose_morphism(MorphismSpec(helpers.du_val_a1_half(), set(), {1}))

    def test_non_nested_input_rejected(self):
        with pytest.raises(NotNestedError):
            decompose_morphism(MorphismSpec(helpers.corner_twice(), {3}, {4}))

    def test_log_canonical_endpoint_rejected(self):
        with pytest.raises(NotLogTerminalError):
            decompose_morphism(MorphismSpec(helpers.elliptic(), set(), {1}))

    def test_output_verifies(self):
        spec = tower_spec()
        trace = decompose_morphism(spec)
        assert verify_trace(spec.config, set(), trace)

    def test_all_interleavings_reach_the_target(self):
        outcomes = oracles.explore_decomposition_orders(
            helpers.corner_twice(), set(), {3, 4}
        )
        assert outcomes == {(1, 1)}


class TestVerifyTrace:
    @pytest.fixture()
    def tower_trace(self):
        spec = tower_spec()
        return spec.config, decompose_morphism(spec)

    def test_accepts_genuine_trace(self, tower_trace):
        config, trace = tower_trace
        assert verify_trace(config, set(), trace)

    def test_accepts_empty_identity_trace(self):
        config = helpers.corner_twice()
        trace = DecompositionTrace(
            (), 0, frozenset({4}), frozenset({4}), TargetBase({4})
        )
        assert verify_trace(config, {4}, trace)

    def test_rejects_swapped_phases(self, tower_trace):
        config, trace = tower_trace
        swapped = DecompositionTrace(
            (trace.steps[1], trace.steps[0]),
            trace.flop_minimal_index,
            trace.start,
            trace.end,
            trace.base,
        )
        result = verify_trace(config, set(), swapped)
        assert not result
        assert result.step_index == 0

    def test_rejects_wrong_start(self, tower_trace):
        config, trace = tower_trace
        result = verify_trace(config, {4}, trace)
        assert not result
        assert "starts" in result.failure

    def test_rejects_out_of_range_split(self, tower_trace):
        config, trace = tower_trace
        bad = dataclasses.replace(trace, flop_minimal_index=7)
        assert not verify_trace(config, set(), bad)

    def test_rejects_tampered_epsilon(self, tower_trace):
        config, trace = tower_trace
        step = dataclasses.replace(
            trace.steps[0],
            epsilon=dataclasses.replace(trace.steps[0].epsilon, chosen=Fraction(1, 3)),
        )
        bad = dataclasses.replace(trace, steps=(step, trace.steps[1]))
        result = verify_trace(config, set(), bad)
        assert not result
        assert "perturbation" in result.failure

    def test_rejects_tampered_order(self, tower_trace):
        config, trace = tower_trace
        step = dataclasses.replace(trace.steps[1], order=(3, 4))
        bad = dataclasses.replace(trace, steps=(trace.steps[0], step))
        result = verify_trace(config, set(), bad)
        assert not result
        assert "order" in result.failure

    def test_rejects_tampered_discrepancies(self, tower_trace):
        config, trace = tower_trace
        step = dataclasses.replace(
            trace.steps[0], discrepancies_before={4: Fraction(-1)}
        )
        bad = dataclasses.replace(trace, steps=(step, trace.steps[1]))
        result = verify_trace(config, set(), bad)
        assert not result
        assert "prior" in result.failure

    def test_a_shared_record_is_compared_once(self, monkeypatch):
        # A step's "before" that is the previous step's "after" object was
        # just compared with the same state; an equal copy is compared, and
        # a tampered one rejected, on its own.
        spec = generate_crepant_pair(helpers.corner(), 8, 5)
        trace = decompose_morphism(spec)
        compared = []
        real = logsurf.decompose._matches

        def counting(recorded, data):
            compared.append(recorded)
            return real(recorded, data)

        monkeypatch.setattr(logsurf.decompose, "_matches", counting)

        def with_records(shared):
            steps, after = [], dict(trace.steps[0].discrepancies_before)
            for step in trace.steps:
                before = after if shared else dict(after)
                after = dict(step.discrepancies_after)
                steps.append(dataclasses.replace(
                    step, discrepancies_before=before, discrepancies_after=after
                ))
            return dataclasses.replace(trace, steps=tuple(steps))

        n = len(trace.steps)
        for shared, comparisons in ((True, n + 1), (False, 2 * n)):
            compared.clear()
            records = with_records(shared)
            assert verify_trace(spec.config, spec.source_contracted, records)
            assert len({id(record) for record in compared}) == len(compared) == comparisons
        tampered = with_records(False)
        record = tampered.steps[2].discrepancies_before
        record[min(record)] += 1
        result = verify_trace(spec.config, spec.source_contracted, tampered)
        assert not result
        assert "prior" in result.failure and result.step_index == 2

    def test_rejects_wrong_end_claim(self, tower_trace):
        config, trace = tower_trace
        bad = dataclasses.replace(trace, end=frozenset({3}))
        result = verify_trace(config, set(), bad)
        assert not result

    def test_rejects_premature_split(self, tower_trace):
        config, trace = tower_trace
        bad = dataclasses.replace(trace, flop_minimal_index=0)
        result = verify_trace(config, set(), bad)
        assert not result
        assert result.step_index == 0

    def test_never_raises_on_garbage(self):
        config = helpers.corner_twice()
        step = dataclasses.replace(
            decompose_morphism(tower_spec()).steps[0], curve=9
        )
        bad = DecompositionTrace(
            (step,), 1, frozenset(), frozenset({9}), TargetBase({9})
        )
        result = verify_trace(config, set(), bad)
        assert not result
        assert "replay error" in result.failure

    def test_tampered_curves_fail_with_the_messages_of_a_full_check(self):
        # An unknown curve, a curve that survives on the target, and a step
        # to a set whose Gram matrix is singular.
        spec = generate_crepant_pair(helpers.corner(), 8, 5)
        trace = decompose_morphism(spec)
        assert 1 not in spec.target_contracted
        double = CurveConfig.build(
            [(1, 0, -2, 0), (2, 0, -2, 0)], [(1, [1, 2]), (2, [1, 2])]
        )
        minimal = minimize(SurfaceState(double, set()))
        assert [step.curve for step in minimal.steps] == [1]
        singular = dataclasses.replace(minimal, end=frozenset({1, 2}), flop_minimal_index=2)
        cases = [
            (spec.config, trace, 1, 99, "replay error: no curve with id 99", None),
            (
                spec.config, trace, 1, 1,
                "curve 1 is not of flop type: curve 1 survives on the target model", 1,
            ),
            (
                double, singular, 1, 2,
                "curve 2 is not of flop type: image self-intersection is 0 ≥ 0", 1,
            ),
        ]
        for config, good, index, curve, failure, step_index in cases:
            steps = list(good.steps)
            if index == len(steps):
                last = steps[-1]
                steps.append(dataclasses.replace(
                    last, discrepancies_before=last.discrepancies_after
                ))
            steps[index] = dataclasses.replace(steps[index], curve=curve)
            result = verify_trace(config, good.start, dataclasses.replace(good, steps=tuple(steps)))
            assert (result.ok, result.failure, result.step_index) == (False, failure, step_index)

    def test_accepts_minimization_trace(self):
        trace = minimize(SurfaceState(helpers.du_val_a1(), set()))
        assert verify_trace(helpers.du_val_a1(), set(), trace)

    def test_rejects_cut_minimization_trace(self):
        config = chain_config((2, 2, 2))
        trace = minimize(SurfaceState(config, set()))
        assert len(trace.steps) == 3
        cut = dataclasses.replace(
            trace, steps=trace.steps[:1], flop_minimal_index=1, end=frozenset({1})
        )
        result = verify_trace(config, set(), cut)
        assert not result
        assert "split" in result.failure

    def test_rejects_minimization_trace_cut_among_its_blow_downs(self):
        square = CurveConfig.build(
            [(i, 0, 0, 1) for i in range(1, 5)],
            [(1, [1, 2]), (2, [2, 3]), (3, [3, 4]), (4, [4, 1])],
        )
        config = blow_up(square, at_point(1), 1)
        trace = minimize(SurfaceState(config, set()))
        assert [(s.kind, s.curve) for s in trace.steps] == [
            (MoveKind.BLOWDOWN, 1),
            (MoveKind.BLOWDOWN, 2),
        ]
        assert verify_trace(config, set(), trace)
        cut = dataclasses.replace(trace, steps=trace.steps[:1], end=frozenset({1}))
        result = verify_trace(config, set(), cut)
        assert not result
        assert "still admits a move" in result.failure

    def test_rejects_target_base_other_than_the_end(self, tower_trace):
        config, trace = tower_trace
        bad = dataclasses.replace(trace, base=TargetBase({1, 3, 4}))
        result = verify_trace(config, set(), bad)
        assert not result
        assert "target" in result.failure


@functools.cache
def _tower_run():
    """A decomposed depth-8 tower: (spec, trace)."""
    spec = generate_crepant_pair(helpers.corner(), 8, 5)
    return spec, decompose_morphism(spec)


def _replayed(spec, curves):
    """The crepant data of a fresh replay state contracting `curves`."""
    config = CurveConfig(spec.config.curves, spec.config.points)
    return SurfaceState(config, curves, TargetBase(spec.target_contracted)).crepant


class _Raising:
    """A recorded value whose comparison raises."""

    def __eq__(self, other):
        raise TypeError("not comparable")

    __ne__ = __eq__
    __hash__ = None


class _SubFraction(Fraction):
    pass


class _Recorded(dict):
    pass


# Ways a caller may write a recorded discrepancy, equal or not.
VARIANTS = {
    "same": lambda v: v,
    "int": lambda v: int(v) if v.denominator == 1 else v,
    "float": float,
    "bool": bool,
    "subclass": _SubFraction,
    "numerator": lambda v: Fraction(v.numerator + 1, v.denominator),
    "denominator": lambda v: Fraction(v.numerator, v.denominator + 1),
    "string": str,
    "nan": lambda v: float("nan"),
    "drop": None,
}
CONTAINERS = (dict, MappingProxyType, OrderedDict, _Recorded)


class TestRecordComparison:
    """`verify_trace` compares a recorded map with the replayed solution on
    integers (`_matches`), with the verdict of `!=` on the replayed map."""

    def _tamper_after(self, spec, trace, index, record):
        step = dataclasses.replace(trace.steps[index], discrepancies_after=record)
        steps = trace.steps[:index] + (step,) + trace.steps[index + 1:]
        assert record != trace.steps[index].discrepancies_after
        return verify_trace(spec.config, spec.source_contracted, dataclasses.replace(trace, steps=steps))

    @pytest.mark.parametrize("tamper", ["denominator", "extra key", "missing key", "swapped key"])
    def test_a_tampered_record_is_rejected(self, tamper):
        spec, trace = _tower_run()
        index = 6
        record = dict(trace.steps[index].discrepancies_after)
        cid = min(c for c, value in record.items() if value != 0)
        value = record[cid]
        if tamper == "denominator":
            record[cid] = Fraction(value.numerator, value.denominator + 1)
        else:
            if tamper != "extra key":
                del record[cid]
            if tamper != "missing key":
                # An uncontracted curve, with its residual's negation.
                extra = min(c.id for c in spec.config.curves if c.id not in record)
                record[extra] = -spec.config.curve(extra).boundary_coeff
        result = self._tamper_after(spec, trace, index, record)
        assert (result.ok, result.failure, result.step_index) == (
            False, "recorded posterior discrepancies do not match", index
        )

    def test_an_int_valued_record_passes(self):
        spec, trace = _tower_run()
        steps = []
        converted = 0
        for step in trace.steps:
            records = []
            for mapping in (step.discrepancies_before, step.discrepancies_after):
                record = {}
                for cid, value in mapping.items():
                    if value.denominator == 1:
                        record[cid] = int(value)
                        converted += 1
                    else:
                        record[cid] = value
                assert record == mapping
                records.append(record)
            steps.append(dataclasses.replace(
                step, discrepancies_before=records[0], discrepancies_after=records[1]
            ))
        assert converted > 2 * len(steps) and 0 in steps[-1].discrepancies_after.values()
        ints = dataclasses.replace(trace, steps=tuple(steps))
        assert verify_trace(spec.config, spec.source_contracted, ints)

    def test_a_comparison_that_raises_is_a_mismatch(self):
        spec, trace = _tower_run()
        record = dict(trace.steps[1].discrepancies_after)
        record[min(record)] = _Raising()
        with pytest.raises(TypeError):
            record != trace.steps[1].discrepancies_after
        step = dataclasses.replace(trace.steps[1], discrepancies_after=record)
        bad = dataclasses.replace(trace, steps=(trace.steps[0], step) + trace.steps[2:])
        result = verify_trace(spec.config, spec.source_contracted, bad)
        assert (result.ok, result.failure, result.step_index) == (
            False, "recorded posterior discrepancies do not match", 1
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_verdict_as_not_equal(self, data):
        spec, trace = _tower_run()
        index = data.draw(st.integers(0, len(trace.steps) - 1), label="step")
        expected = trace.steps[index].discrepancies_after
        replayed = _replayed(spec, expected.keys())
        record = {}
        for cid, value in expected.items():
            variant = VARIANTS[data.draw(st.sampled_from(list(VARIANTS)), label=str(cid))]
            if variant is not None:
                record[cid] = variant(value)
        if data.draw(st.booleans(), label="extra key"):
            # An uncontracted curve, with its residual's negation.
            extra = min(c.id for c in spec.config.curves if c.id not in expected)
            record[extra] = -spec.config.curve(extra).boundary_coeff
        record = data.draw(st.sampled_from(CONTAINERS), label="container")(record)
        assert logsurf.decompose._matches(record, replayed) is (
            not record != replayed.discrepancies
        )


class MemoTouched(Exception):
    pass


class _Tripwire(dict):
    """A memo that raises on any lookup or store."""

    def _trip(self, *args, **kwargs):
        raise MemoTouched("memo touched")

    get = __getitem__ = __setitem__ = __contains__ = setdefault = _trip


class TestVerifyIndependence:
    """`verify_trace` replays without the run's per-configuration memo."""

    MEMOS = ("_factor_memo", "_blowdown_memo")

    def test_replay_neither_reads_nor_grows_the_run_memo(self):
        spec = generate_crepant_pair(helpers.corner(), 8, 5)
        config = spec.config
        trace = decompose_morphism(spec)
        sizes = {name: len(getattr(config, name)) for name in self.MEMOS}
        assert all(sizes.values())
        for name in self.MEMOS:
            config.__dict__[name] = _Tripwire(getattr(config, name))

        assert verify_trace(config, spec.source_contracted, trace)
        step = trace.steps[0]
        after = dict(step.discrepancies_after)
        after[step.curve] += Fraction(1, 7)
        tampered = dataclasses.replace(
            trace,
            steps=(dataclasses.replace(step, discrepancies_after=after),) + trace.steps[1:],
        )
        result = verify_trace(config, spec.source_contracted, tampered)
        assert not result
        assert "posterior" in result.failure
        assert result.step_index == 0

        assert {name: len(getattr(config, name)) for name in self.MEMOS} == sizes
        with pytest.raises(MemoTouched):
            crepant_pullback(config, spec.target_contracted)

    def test_replay_shares_no_solution_with_the_run(self, cold, made):
        spec = generate_crepant_pair(helpers.corner(), 8, 5)
        config = spec.config
        trace = decompose_morphism(spec)
        # The run's solutions: its cold solves and those of the states its
        # moves reach.
        run = [data for _, _, data in cold] + [state.crepant for state in made]
        run_residuals = {id(data.residual) for data in run}
        run_tables = {id(data.facts) for data in run}
        # The states a run reaches share one residual mapping and its table.
        assert len(run_tables) == len(run_residuals) < len(run)
        run_mappings = run_residuals | {
            id(mapping)
            for step in trace.steps
            for mapping in (step.discrepancies_before, step.discrepancies_after)
        }
        cold.clear()
        made.clear()

        assert verify_trace(config, spec.source_contracted, trace)
        (replay,) = {id(cfg): cfg for cfg, _, _ in cold}.values()
        assert replay is not config
        assert all(state.config is replay for state in made)
        replayed = [data for _, _, data in cold] + [state.crepant for state in made]
        assert len(replayed) > len(trace.steps)
        for data in replayed:
            assert id(data.residual) not in run_mappings
            assert id(data.facts) not in run_tables
            if "discrepancies" in vars(data):
                assert id(data.discrepancies) not in run_mappings


class TestRunFreesItsSolutions:
    """A state's solution lives on the state: no configuration-wide table
    keeps it once the run's states are gone."""

    def test_no_solution_outlives_the_run(self, made):
        spec = generate_crepant_pair(helpers.corner(), 40, 40)
        trace = decompose_morphism(spec)
        assert len(made) == len(trace.steps) == 40
        solutions = [weakref.ref(state.crepant) for state in made]
        made.clear()
        gc.collect()
        assert [ref for ref in solutions if ref() is not None] == []
        assert verify_trace(spec.config, trace.start, trace)


class TestMinimize:
    def test_du_val_flops_once(self):
        trace = minimize(SurfaceState(helpers.du_val_a1(), set()))
        assert [(s.kind, s.curve) for s in trace.steps] == [(MoveKind.FLOP, 1)]
        assert trace.flop_minimal_index == 1
        assert trace.end == frozenset({1})

    def test_elliptic_already_minimal(self):
        trace = minimize(SurfaceState(helpers.elliptic(), set()))
        assert trace.steps == ()
        assert trace.start == trace.end == frozenset()

    def test_corner_is_not_nef(self):
        with pytest.raises(NotNefError):
            minimize(SurfaceState(helpers.corner(), set()))

    def test_chain_flops_both_curves(self):
        trace = minimize(SurfaceState(helpers.chain(), set()))
        assert [(s.kind, s.curve) for s in trace.steps] == [
            (MoveKind.FLOP, 1),
            (MoveKind.FLOP, 2),
        ]
        assert classify(SurfaceState(helpers.chain(), trace.end)) is Classification.KLT

    def test_requires_point_base(self):
        state = SurfaceState(helpers.corner_twice(), set(), TargetBase({3, 4}))
        with pytest.raises(InvalidStateError):
            minimize(state)

    def test_requires_log_terminal(self):
        config = CurveConfig.build([(1, 1, -1, 0), (2, 0, -2, 0)])
        with pytest.raises(NotLogTerminalError):
            minimize(SurfaceState(config, {1}))

    def test_idempotent_on_its_result(self):
        first = minimize(SurfaceState(helpers.du_val_a1(), set()))
        again = minimize(SurfaceState(helpers.du_val_a1(), first.end))
        assert again.steps == ()

    def test_a_flop_after_a_blow_down_is_a_theorem_violation(self, monkeypatch):
        # A blown-up square beside a (−2)-curve of coefficient 0: curve 9
        # flops first, then curves 1 and 2 blow down.
        square = CurveConfig.build(
            [(i, 0, 0, 1) for i in range(1, 5)] + [(9, 0, -2, 0)],
            [(1, [1, 2]), (2, [2, 3]), (3, [3, 4]), (4, [4, 1])],
        )
        config = blow_up(square, at_point(1), 1)
        trace = minimize(SurfaceState(config, set()))
        assert [(s.kind, s.curve) for s in trace.steps] == [
            (MoveKind.FLOP, 9),
            (MoveKind.BLOWDOWN, 1),
            (MoveKind.BLOWDOWN, 2),
        ]
        # Hiding the flop at the start makes a blow-down come first, so the
        # flop turns up after it.
        real = logsurf.decompose.lowest_flop
        searched = []

        def late(state):
            searched.append(state)
            return None if len(searched) == 1 else real(state)

        monkeypatch.setattr(logsurf.decompose, "lowest_flop", late)
        with pytest.raises(
            TheoremViolationError,
            match="a flop-type contraction became available again after a log blow-down",
        ):
            minimize(SurfaceState(config, set()))


class TestGenerateCrepantPair:
    def test_depth_zero_is_identity(self):
        spec = generate_crepant_pair(helpers.corner(), 0, 7)
        assert spec.config == helpers.corner()
        assert spec.source_contracted == spec.target_contracted == frozenset()

    def test_deterministic_in_seed(self):
        a = generate_crepant_pair(helpers.corner(), 5, 123)
        b = generate_crepant_pair(helpers.corner(), 5, 123)
        assert a.config == b.config
        assert a.target_contracted == b.target_contracted

    def test_some_seed_recovers_the_worked_tower(self):
        expected = helpers.corner_twice()
        hits = [
            seed
            for seed in range(500)
            if generate_crepant_pair(helpers.corner(), 2, seed).config == expected
        ]
        assert hits, "no seed produced the two-step tower"
        spec = generate_crepant_pair(helpers.corner(), 2, hits[0])
        assert spec.target_contracted == frozenset({3, 4})

    def test_outputs_satisfy_morphism_invariants(self):
        for seed in range(30):
            template = helpers.corner() if seed % 2 == 0 else helpers.boundary_chain()
            spec = generate_crepant_pair(template, 1 + seed % 6, seed)
            assert is_log_crepant(
                spec.config, spec.source_contracted, spec.target_contracted
            )
            for contracted in (spec.source_contracted, spec.target_contracted):
                state = SurfaceState(
                    spec.config, contracted, TargetBase(spec.target_contracted)
                )
                assert state.classification >= Classification.LOG_TERMINAL

    def test_template_without_centres_is_rejected(self):
        with pytest.raises(NoAdmissibleTargetError):
            generate_crepant_pair(helpers.chain(), 1, 0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            generate_crepant_pair(helpers.corner(), -1, 0)

    def test_invalid_template_rejected(self):
        bad = CurveConfig.build([(1, 0, -1, 0), (1, 0, -1, 0)])
        with pytest.raises(InvalidStateError):
            generate_crepant_pair(bad, 1, 0)

    @pytest.mark.parametrize("template", [helpers.corner, helpers.boundary_chain])
    def test_matches_a_full_rescan(self, template):
        for seed in range(30):
            towers = oracles.rescan_crepant_towers(template(), 36, seed)
            for depth, (config, targets) in enumerate(towers):
                spec = generate_crepant_pair(template(), depth, seed)
                assert config_digest(spec.config) == config_digest(config), (depth, seed)
                assert spec.target_contracted == targets


def relabelled(config: CurveConfig, rng) -> tuple[CurveConfig, dict[int, int]]:
    """`config` with its curve ids and point ids sent to random distinct ids,
    its curves and points listed in a random order, and the curve map."""
    n, m = len(config.curves), len(config.points)
    sigma = dict(zip((c.id for c in config.curves), rng.sample(range(1, 5 * n + 1), n)))
    point_ids = rng.sample(range(1, 5 * m + 2), m)
    curves = [dataclasses.replace(c, id=sigma[c.id]) for c in config.curves]
    points = [
        CrossingPoint(pid, frozenset(sigma[cid] for cid in p.incident))
        for pid, p in zip(point_ids, config.points)
    ]
    rng.shuffle(curves)
    rng.shuffle(points)
    return CurveConfig(tuple(curves), tuple(points), config.picard_rank_of_model), sigma


class TestRelabelling:
    """Relabelled towers sample other move orders through the real drivers:
    every driver picks the lowest id, so new ids give a new order, and the
    outcome must be the old one renamed."""

    @pytest.mark.parametrize("template", [helpers.corner, helpers.boundary_chain])
    def test_decompositions_agree_up_to_the_relabelling(self, template):
        rng = random.Random(17)
        reordered = runs = 0
        for depth in (8, 20, 40):
            for seed in range(3):
                spec = generate_crepant_pair(template(), depth, seed)
                trace = decompose_morphism(spec)
                for _ in range(2):
                    config, sigma = relabelled(spec.config, rng)
                    start = {sigma[cid] for cid in spec.source_contracted}
                    moved = decompose_morphism(
                        MorphismSpec(config, start, {sigma[cid] for cid in spec.target_contracted})
                    )
                    assert collections.Counter(s.kind for s in moved.steps) == collections.Counter(
                        s.kind for s in trace.steps
                    )
                    assert moved.flop_minimal_index == trace.flop_minimal_index
                    assert moved.steps[-1].discrepancies_after == {
                        sigma[cid]: value
                        for cid, value in trace.steps[-1].discrepancies_after.items()
                    }
                    assert verify_trace(config, start, moved)
                    inverse = {new: old for old, new in sigma.items()}
                    runs += 1
                    reordered += [inverse[s.curve] for s in moved.steps] != [
                        s.curve for s in trace.steps
                    ]
        assert reordered > runs // 2

    def test_sub_states_agree_up_to_the_relabelling(self):
        rng = random.Random(19)
        seen = set()
        for template in (helpers.corner, helpers.boundary_chain):
            for depth, seed in ((8, 3), (24, 4), (40, 5)):
                spec = generate_crepant_pair(template(), depth, seed)
                ids = sorted(spec.target_contracted)
                for _ in range(15):
                    picked = rng.sample(ids, rng.randint(0, len(ids)))
                    config, sigma = relabelled(spec.config, rng)
                    state = SurfaceState(spec.config, picked)
                    moved = SurfaceState(config, [sigma[cid] for cid in picked])
                    assert moved.classification is state.classification
                    assert moved.crepant.discrepancies == {
                        sigma[cid]: value for cid, value in state.crepant.discrepancies.items()
                    }
                    seen.add(state.classification)
        assert {Classification.LOG_TERMINAL, Classification.LOG_CANONICAL} <= seen


def chain_config(bs) -> CurveConfig:
    """Coefficient-0 rational curves 1..r of self-intersection −b_i in a chain."""
    return CurveConfig.build(
        [(i + 1, 0, -b, 0) for i, b in enumerate(bs)],
        [(i, [i, i + 1]) for i in range(1, len(bs))],
    )


def _dump(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


class TestGoldenTraces:
    """Trace documents of seeded inputs, pinned by digest."""

    def test_decomposition_documents(self):
        digest = hashlib.sha256()
        for seed in range(24):
            template = helpers.corner() if seed % 2 == 0 else helpers.boundary_chain()
            spec = generate_crepant_pair(template, 1 + seed % 12, seed)
            digest.update(_dump(trace_to_json(spec.config, decompose_morphism(spec))))
        assert digest.hexdigest() == (
            "1388bf83856f77bad4186859a396491f0d4c7cfbdf2fd4ce6b4f3546228e0884"
        )

    def test_minimization_steps(self):
        digest = hashlib.sha256()
        for bs in [(2, 2, 2), (2, 3, 2, 2, 4, 2), (2,) * 10]:
            config = chain_config(bs)
            trace = minimize(SurfaceState(config, set(), PointBase()))
            digest.update(_dump(trace_to_json(config, trace)["steps"]))
        assert digest.hexdigest() == (
            "19d622e7ec727fe2484a480df88a56af0f5da8d2fdb83f19845c3eabd1208bac"
        )


class TestCheckOnce:
    def test_flop_predicate_runs_once_per_flop_step(self, monkeypatch):
        calls = []
        real = logsurf.moves.is_log_flopping

        def counting(state, cid):
            calls.append(cid)
            return real(state, cid)

        for module in (logsurf.moves, logsurf.decompose):
            monkeypatch.setattr(module, "is_log_flopping", counting)
        spec = generate_crepant_pair(helpers.corner(), 10, 3)
        trace = decompose_morphism(spec)
        flops = trace.flop_minimal_index
        assert flops > 0
        left_at_split = len(spec.target_contracted) - len(spec.source_contracted) - flops
        assert flops <= len(calls) <= flops + left_at_split
