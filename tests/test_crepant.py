"""Pullback coefficients, classification, non-klt centres, image intersections."""

from fractions import Fraction

import pytest

import helpers
import oracles
from logsurf import (
    Classification,
    ComponentImage,
    CurveConfig,
    DivisorialCenter,
    InvalidStateError,
    NodeCenter,
    NotNestedError,
    PointBase,
    SurfaceState,
    TargetBase,
    UnknownIdError,
    classify,
    correction_multiplicities,
    crepant_pullback,
    is_log_crepant,
    lc_centers,
    log_degree,
    pushforward_self_intersection,
)


def star(branches: int) -> CurveConfig:
    """A (−1)-curve with coefficient 0 met once by `branches` coefficient-1 curves."""
    curves = [(i, 0, 0, 1) for i in range(1, branches + 1)]
    curves.append((branches + 1, 0, -1, 0))
    points = [(i, [i, branches + 1]) for i in range(1, branches + 1)]
    return CurveConfig.build(curves, points)


class TestCrepantPullback:
    def test_single_du_val_curve(self):
        data = crepant_pullback(helpers.du_val_a1(), {1})
        assert data.discrepancy(1) == 0
        assert data.residual[1] == 0

    def test_worked_tower(self):
        data = crepant_pullback(helpers.corner_twice(), {3, 4})
        assert data.discrepancies == {3: Fraction(-1), 4: Fraction(0)}
        assert data.residual == {
            1: Fraction(1),
            2: Fraction(1),
            3: Fraction(1),
            4: Fraction(0),
        }

    def test_memoised_solution_is_not_shared_with_callers(self):
        config = helpers.corner_twice()
        first = crepant_pullback(config, {3, 4})
        first.residual[4] = Fraction(7)
        again = crepant_pullback(config, [4, 3])
        assert again.residual[4] == 0
        assert again.residual is not first.residual

    def test_empty_set_is_identity(self):
        data = crepant_pullback(helpers.corner_twice(), set())
        assert data.discrepancies == {}
        assert data.residual == {1: 1, 2: 1, 3: 1, 4: 0}

    def test_discrepancy_defined_only_on_contracted(self):
        data = crepant_pullback(helpers.corner_twice(), {4})
        assert data.discrepancy(4) == 0
        with pytest.raises(UnknownIdError):
            data.discrepancy(3)

    def test_requires_negative_definite_set(self):
        with pytest.raises(InvalidStateError):
            crepant_pullback(helpers.corner(), {1})

    def test_raw_identity_on_fixture_states(self):
        for config, contracted in [
            (helpers.corner_twice(), {3, 4}),
            (helpers.corner_twice(), {4}),
            (helpers.chain(), {1, 2}),
            (helpers.elliptic(), {1}),
        ]:
            data = crepant_pullback(config, contracted)
            assert oracles.residual_identity_gaps(config, contracted, data.residual) == []


class TestSurfaceState:
    def test_default_base_is_point(self):
        state = SurfaceState(helpers.du_val_a1(), {1})
        assert isinstance(state.base, PointBase)

    def test_uncontracted_listing(self):
        state = SurfaceState(helpers.corner_twice(), {4}, TargetBase({3, 4}))
        assert state.uncontracted == (1, 2, 3)

    def test_rejects_non_nested_target(self):
        with pytest.raises(NotNestedError):
            SurfaceState(helpers.corner_twice(), {3, 4}, TargetBase({4}))._checked

    def test_rejects_indefinite_contracted_set(self):
        with pytest.raises(InvalidStateError):
            SurfaceState(helpers.corner(), {1})._checked

    def test_rejects_indefinite_target_set(self):
        with pytest.raises(InvalidStateError):
            SurfaceState(helpers.corner(), set(), TargetBase({1}))._checked

    def test_rejects_unknown_contracted_id(self):
        with pytest.raises(UnknownIdError):
            SurfaceState(helpers.chain(), {9})._checked


class TestClassify:
    def test_klt_du_val(self):
        assert classify(SurfaceState(helpers.du_val_a1(), {1})) is Classification.KLT

    def test_klt_chain(self):
        assert classify(SurfaceState(helpers.chain(), {1, 2})) is Classification.KLT

    def test_log_terminal_with_boundary_left(self):
        state = SurfaceState(helpers.corner_twice(), {4}, TargetBase({3, 4}))
        assert classify(state) is Classification.LOG_TERMINAL

    def test_log_terminal_tower_corner(self):
        state = SurfaceState(helpers.corner_twice(), {3, 4}, TargetBase({3, 4}))
        assert classify(state) is Classification.LOG_TERMINAL

    def test_log_canonical_elliptic(self):
        assert (
            classify(SurfaceState(helpers.elliptic(), {1}))
            is Classification.LOG_CANONICAL
        )

    def test_log_canonical_double_crossing(self):
        config = CurveConfig.build(
            [(1, 0, 0, 1), (2, 0, -1, 0)], [(1, [1, 2]), (2, [1, 2])]
        )
        assert classify(SurfaceState(config, {2})) is Classification.LOG_CANONICAL

    def test_not_lc_three_branches(self):
        config = star(3)
        state = SurfaceState(config, {4})
        assert classify(state) is Classification.NOT_LC
        assert state.crepant.residual[4] == 2

    def test_two_branch_star_is_log_terminal(self):
        config = star(2)
        state = SurfaceState(config, {3})
        assert state.crepant.residual[3] == 1
        assert classify(state) is Classification.LOG_TERMINAL

    def test_uncontracted_boundary_blocks_klt(self):
        state = SurfaceState(helpers.corner_twice(), {4})
        assert classify(state) is Classification.LOG_TERMINAL

    def test_ordering_of_levels(self):
        assert (
            Classification.NOT_LC
            < Classification.LOG_CANONICAL
            < Classification.LOG_TERMINAL
            < Classification.KLT
        )


class TestDepthProbeOracle:
    def test_silent_on_log_terminal_fixtures(self):
        for config, contracted in [
            (helpers.corner_twice(), frozenset({3, 4})),
            (helpers.corner_twice(), frozenset({4})),
            (helpers.du_val_a1(), frozenset({1})),
            (helpers.corner(), frozenset()),
        ]:
            data = crepant_pullback(config, contracted)
            assert oracles.depth3_probe(config, contracted, data.residual) == []

    def test_flags_log_canonical_fixtures(self):
        for config, contracted in [
            (helpers.elliptic(), frozenset({1})),
            (helpers.corner_twice(), frozenset({3})),
        ]:
            state = SurfaceState(config, contracted, TargetBase(contracted))
            assert state.classification is Classification.LOG_CANONICAL
            data = crepant_pullback(config, contracted)
            assert oracles.depth3_probe(config, contracted, data.residual)


class TestLcCenters:
    def test_corner_has_divisors_and_node(self):
        state = SurfaceState(helpers.corner(), set())
        assert lc_centers(state) == (
            DivisorialCenter(1),
            DivisorialCenter(2),
            NodeCenter(1, frozenset({1, 2})),
        )

    def test_du_val_has_none(self):
        assert lc_centers(SurfaceState(helpers.du_val_a1(), {1})) == ()

    def test_tower_uncontracted(self):
        state = SurfaceState(helpers.corner_twice(), set())
        centers = lc_centers(state)
        assert [c.curve for c in centers if isinstance(c, DivisorialCenter)] == [1, 2, 3]
        assert [c.point for c in centers if isinstance(c, NodeCenter)] == [2, 3]
        assert not any(isinstance(c, ComponentImage) for c in centers)

    def test_contracted_component_becomes_image_point(self):
        state = SurfaceState(helpers.corner_twice(), {3, 4}, TargetBase({3, 4}))
        centers = lc_centers(state)
        assert [c.curve for c in centers if isinstance(c, DivisorialCenter)] == [1, 2]
        assert ComponentImage(frozenset({3, 4})) in centers

    def test_klt_component_casts_no_image(self):
        state = SurfaceState(helpers.corner_twice(), {4}, TargetBase({3, 4}))
        assert not any(
            isinstance(c, ComponentImage) for c in lc_centers(state)
        )


class TestPushforward:
    def test_no_contraction_is_plain_self_intersection(self):
        state = SurfaceState(helpers.corner_twice(), set())
        assert pushforward_self_intersection(state, 3) == -2
        assert pushforward_self_intersection(state, 4) == -1

    def test_after_contracting_top_curve(self):
        state = SurfaceState(helpers.corner_twice(), {4}, TargetBase({3, 4}))
        assert pushforward_self_intersection(state, 3) == -1

    def test_fractional_image_square(self):
        state = SurfaceState(helpers.corner_twice(), {3}, TargetBase({3, 4}))
        assert pushforward_self_intersection(state, 4) == Fraction(-1, 2)

    def test_correction_multiplicities(self):
        state = SurfaceState(helpers.chain(), {1})
        assert correction_multiplicities(state, 2) == {1: Fraction(1, 2)}

    def test_unknown_or_contracted_curve_rejected(self):
        state = SurfaceState(helpers.corner_twice(), {4}, TargetBase({3, 4}))
        with pytest.raises(UnknownIdError):
            pushforward_self_intersection(state, 9)
        with pytest.raises(InvalidStateError):
            pushforward_self_intersection(state, 4)

    def test_exceptional_negativity_on_fixtures(self):
        cases = [
            (helpers.corner_twice(), set(), {3, 4}),
            (helpers.corner_twice(), {4}, {3, 4}),
            (helpers.chain(), set(), {1, 2}),
            (helpers.chain(), {1}, {1, 2}),
        ]
        for config, s1, s2 in cases:
            state = SurfaceState(config, s1, TargetBase(s2))
            for cid in sorted(s2 - s1):
                assert pushforward_self_intersection(state, cid) < 0


class TestLogDegree:
    def test_crepant_tower_degrees_vanish(self):
        state = SurfaceState(helpers.corner_twice(), set())
        assert log_degree(state, 4) == 0
        assert log_degree(state, 3) == 0

    def test_du_val_degree_zero(self):
        assert log_degree(SurfaceState(helpers.du_val_a1(), set()), 1) == 0

    def test_corner_branch_degree_negative(self):
        assert log_degree(SurfaceState(helpers.corner(), set()), 1) == -1

    def test_elliptic_degree_positive(self):
        assert log_degree(SurfaceState(helpers.elliptic(), set()), 1) == 1


class TestIsLogCrepant:
    def test_tower_contractions_are_crepant(self):
        config = helpers.corner_twice()
        assert is_log_crepant(config, set(), {3, 4})
        assert is_log_crepant(config, set(), {4})
        assert is_log_crepant(config, {4}, {3, 4})

    def test_half_coefficient_breaks_crepancy(self):
        assert not is_log_crepant(helpers.du_val_a1_half(), set(), {1})

    def test_equal_sets_are_trivially_crepant(self):
        assert is_log_crepant(helpers.corner_twice(), {4}, {4})

    def test_requires_nesting(self):
        with pytest.raises(NotNestedError):
            is_log_crepant(helpers.corner_twice(), {3}, {4})

    def test_coherence_of_nested_solutions(self):
        config = helpers.corner_twice()
        small = crepant_pullback(config, {4})
        large = crepant_pullback(config, {3, 4})
        assert small.residual == large.residual
