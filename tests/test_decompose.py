"""End-to-end drivers: two-phase factorization, minimization, trace replay, generation."""

import dataclasses
from fractions import Fraction

import pytest

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
    CurveConfig,
    SurfaceState,
    TargetBase,
    classify,
    Classification,
    crepant_pullback,
    decompose_morphism,
    generate_crepant_pair,
    is_log_crepant,
    minimize,
    verify_trace,
)


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
        trace = DecompositionTrace((), 0, frozenset({4}), frozenset({4}))
        assert verify_trace(config, {4}, trace)

    def test_rejects_swapped_phases(self, tower_trace):
        config, trace = tower_trace
        swapped = DecompositionTrace(
            (trace.steps[1], trace.steps[0]),
            trace.flop_minimal_index,
            trace.start,
            trace.end,
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
        bad = DecompositionTrace((step,), 1, frozenset(), frozenset({9}))
        result = verify_trace(config, set(), bad)
        assert not result
        assert "replay error" in result.failure

    def test_accepts_minimization_trace(self):
        trace = minimize(SurfaceState(helpers.du_val_a1(), set()))
        assert verify_trace(helpers.du_val_a1(), set(), trace)


class MemoTouched(Exception):
    pass


class _Tripwire(dict):
    """A memo that raises on any lookup or store."""

    def _trip(self, *args, **kwargs):
        raise MemoTouched("memo touched")

    get = __getitem__ = __setitem__ = __contains__ = setdefault = _trip


class TestVerifyIndependence:
    """`verify_trace` replays without the run's per-configuration memo."""

    MEMOS = ("_definite_memo", "_crepant_memo")

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
