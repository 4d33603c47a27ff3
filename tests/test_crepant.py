"""Pullback coefficients, classification, non-klt centres, image intersections."""

import collections
from fractions import Fraction
from functools import cached_property, partial
import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from helpers import fresh
import logsurf.crepant
import oracles
import logsurf.surface
from logsurf.cli import trace_to_json
from logsurf.crepant import image_self_intersection
from logsurf.ratlin import TreeFactor
from logsurf.surface import corner_failure, factor_blocks, smooth_point_blowdown
from logsurf import (
    Classification,
    ComponentImage,
    CrepantData,
    Curve,
    CurveConfig,
    DivisorialCenter,
    FlopCheck,
    InvalidStateError,
    MorphismSpec,
    NodeCenter,
    NotNestedError,
    PointBase,
    SurfaceState,
    TargetBase,
    UnknownIdError,
    classify,
    contract_blowdown,
    correction_multiplicities,
    crepant_pullback,
    decompose_morphism,
    determinant,
    epsilon_bound,
    generate_crepant_pair,
    gram,
    is_log_blowdown,
    is_log_crepant,
    is_negative_definite,
    lc_centers,
    log_degree,
    minimize,
    pushforward_self_intersection,
    solve_symmetric,
    verify_trace,
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
        assert data.discrepancies[1] == 0
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

    def test_solution_is_read_only_and_each_call_solves_afresh(self):
        config = helpers.corner_twice()
        first = crepant_pullback(config, {3, 4})
        with pytest.raises(TypeError):
            first.residual[4] = Fraction(7)
        with pytest.raises(TypeError):
            del first.residual[4]
        with pytest.raises(TypeError):
            first.discrepancies[4] = Fraction(7)
        # No configuration-wide memo: a second call solves again, to the
        # same values.
        again = crepant_pullback(config, [4, 3])
        assert again is not first and again == first
        expected = oracles.solve_linear(gram(config, [3, 4]).rows(), raw_rhs(config, [3, 4]))
        assert (again.residual[3], again.residual[4]) == expected == (1, 0)
        assert again.discrepancies == {3: Fraction(-1), 4: Fraction(0)}

    def test_empty_set_is_identity(self):
        data = crepant_pullback(helpers.corner_twice(), set())
        assert data.discrepancies == {}
        assert data.residual == {1: 1, 2: 1, 3: 1, 4: 0}

    def test_discrepancy_defined_only_on_contracted(self):
        data = crepant_pullback(helpers.corner_twice(), {4})
        assert data.discrepancies.keys() == {4}
        assert data.discrepancies[4] == 0

    def test_requires_negative_definite_set(self):
        with pytest.raises(InvalidStateError):
            crepant_pullback(helpers.corner(), {1})

    @pytest.mark.parametrize("ids", [{1, 9, 7}, {9, 7}])
    def test_two_unknown_ids_name_the_least(self, ids):
        with pytest.raises(UnknownIdError, match=r"^no curve with id 7$"):
            crepant_pullback(helpers.corner_twice(), ids)

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

    def test_a_successor_checks_its_added_curve_as_a_full_check_would(self, monkeypatch):
        spec = generate_crepant_pair(helpers.corner(), 8, 5)
        target = TargetBase(spec.target_contracted)
        double = CurveConfig.build([(1, 0, -2, 0), (2, 0, -2, 0)], [(1, [1, 2]), (2, [1, 2])])
        cases = [
            (spec.config, target, min(spec.target_contracted), 99, UnknownIdError),
            (spec.config, target, min(spec.target_contracted), 1, NotNestedError),
            (double, PointBase(), 1, 2, InvalidStateError),
        ]
        assert 1 not in spec.target_contracted
        validated = []
        real = logsurf.crepant.require_valid
        monkeypatch.setattr(
            logsurf.crepant, "require_valid", lambda config: validated.append(config) or real(config)
        )
        for config, base, first, added, error in cases:
            with pytest.raises(error) as full:
                SurfaceState(fresh(config), {first, added}, base)._checked
            parent = SurfaceState(config, {first}, base)
            parent._checked
            validated.clear()
            with pytest.raises(error) as inherited:
                parent.successor(added)._checked
            assert str(inherited.value) == str(full.value)
            # The parent's checks are not repeated, but a state built
            # directly, or from an unchecked parent, runs them all.
            assert validated == []
            with pytest.raises(error):
                SurfaceState(config, {first}, base).successor(added)._checked
            assert validated == [config]

    def test_rejects_unknown_contracted_id(self):
        with pytest.raises(UnknownIdError):
            SurfaceState(helpers.chain(), {9})._checked

    # A float or bool equals and hashes like an integer id, so each would
    # silently stand for a curve: 4.0 for curve 4, True for curve 1.
    @pytest.mark.parametrize(
        "contracted, target, bad",
        [({3.0, 4.0}, {3, 4}, r"[34]\.0"), ({True}, None, "True"), ({3}, {3, 4.0}, r"4\.0")],
    )
    def test_rejects_an_inexact_id(self, contracted, target, bad):
        base = None if target is None else TargetBase(target)
        state = SurfaceState(helpers.corner_twice(), contracted, base)
        with pytest.raises(UnknownIdError, match=f"^curve id {bad} is not an int$"):
            state.classification

    @pytest.mark.parametrize("cid", [4.0, True])
    def test_successor_and_require_uncontracted_reject_an_inexact_id(self, cid):
        state = SurfaceState(helpers.corner_twice(), {3})
        for check in (state.successor, partial(logsurf.crepant.require_uncontracted, state)):
            with pytest.raises(UnknownIdError, match=f"^curve id {cid!r} is not an int$"):
                check(cid)


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

    def test_component_images_are_ordered_by_least_id(self):
        # Two corners blown up, at curves 3 and 6; the run's block index
        # lists 6 first, since 6 was contracted first.
        config = CurveConfig.build(
            [(cid, 0, -1, 1) for cid in range(1, 7)],
            [(1, [1, 3]), (2, [2, 3]), (3, [4, 6]), (4, [5, 6])],
        )
        state = contract_blowdown(is_log_blowdown(SurfaceState(config, {6}), 3))
        assert list(state._checked) == [6, 3]
        images = (ComponentImage(frozenset({3})), ComponentImage(frozenset({6})))
        assert lc_centers(state)[-2:] == images
        assert lc_centers(state) == lc_centers(SurfaceState(config, {3, 6}))

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

    def test_double_crossing_counts_twice(self):
        # Curve 2 meets the contracted (−3)-curve 1 twice and the contracted
        # (−2)-curve 3 once: λ = (2/3, 1/2), image square −4 + 4/3 + 1/2.
        config = CurveConfig.build(
            [(1, 0, -3, 0), (2, 0, -4, 0), (3, 0, -2, 0)],
            [(1, [1, 2]), (2, [1, 2]), (3, [2, 3])],
        )
        state = SurfaceState(config, {1, 3})
        assert correction_multiplicities(state, 2) == {1: Fraction(2, 3), 3: Fraction(1, 2)}
        assert pushforward_self_intersection(state, 2) == Fraction(-13, 6)

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

    def test_rejects_an_inexact_id_cold_and_cached(self):
        # The degree table is keyed by int, and 4.0 hashes like 4: once
        # curve 4's degree is kept, a lookup by 4.0 would find it.
        state = SurfaceState(helpers.corner_twice(), {3})
        with pytest.raises(UnknownIdError, match=r"^curve id 4\.0 is not an int$"):
            log_degree(state, 4.0)
        assert log_degree(state, 4) == 0
        with pytest.raises(UnknownIdError, match=r"^curve id 4\.0 is not an int$"):
            log_degree(state, 4.0)


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

    def test_solves_only_the_larger_set(self, cold):
        config = helpers.corner_twice()
        assert is_log_crepant(config, {4}, {3, 4})
        assert [(cfg, key) for cfg, key, _ in cold] == [(config, frozenset({3, 4}))]

    def test_a_non_contractible_small_set_is_refused_without_a_solve(self, cold):
        config = helpers.corner()
        with pytest.raises(InvalidStateError) as refused:
            is_log_crepant(config, {1}, {1, 2})
        with pytest.raises(InvalidStateError) as solved:
            crepant_pullback(helpers.corner(), {1})
        assert str(refused.value) == str(solved.value) == (
            "gram matrix of [1] is not negative definite; the set is not contractible"
        )
        assert cold == []

    def test_coherence_of_nested_solutions(self):
        config = helpers.corner_twice()
        small = crepant_pullback(config, {4})
        large = crepant_pullback(config, {3, 4})
        assert small.residual == large.residual


def hj_chain(bs, left=None, right=None) -> CurveConfig:
    """Rational curves 1..r of self-intersection −b_i and coefficient 0 in a
    chain; with `left`/`right`, (−1)-curves r+1 and r+2 of those coefficients
    meet curve 1 and curve r once."""
    r = len(bs)
    curves = [(i, 0, -b, 0) for i, b in enumerate(bs, start=1)]
    points = [(i, [i, i + 1]) for i in range(1, r)]
    if left is not None:
        curves += [(r + 1, 0, -1, left), (r + 2, 0, -1, right)]
        points += [(r, [r + 1, 1]), (r + 1, [r + 2, r])]
    return CurveConfig.build(curves, points)


def raw_rhs(config, ids):
    """Minus the log canonical degree each curve of `ids` gets from K and the
    coefficients of the curves outside `ids`, recounted raw."""
    counts = oracles.crossing_counts(config)
    curves = {c.id: c for c in config.curves}
    out = []
    for i in ids:
        total = Fraction(2 * curves[i].genus - 2 - curves[i].self_intersection)
        for c in config.curves:
            if c.id not in ids:
                total += c.boundary_coeff * oracles.raw_pairing(config, counts, c.id, i)
        out.append(-total)
    return out


class TestFactorMemo:
    """Every memoised Gram factor against the oracles, bordered against cold."""

    def _decomposed_tower(self) -> CurveConfig:
        spec = generate_crepant_pair(helpers.corner(), 12, 3)
        decompose_morphism(spec)
        return spec.config

    def _minimized_chain(self) -> CurveConfig:
        config = hj_chain([2, 2, 3, 2, 2, 2, 4, 2, 2, 5, 2, 2, 2, 3, 2, 2, 2, 2, 3, 2])
        assert minimize(SurfaceState(config, set())).steps
        return config

    def _grow(self, config: CurveConfig) -> None:
        """Border every memoised definite set by each curve it leaves out,
        through `successor`, as a run grows its sets."""
        memo = config._factor_memo
        for ids, entry in list(memo.items()):
            if entry is None:
                continue
            parent = SurfaceState(config, ids)
            parent._checked
            for c in config.curves:
                if c.id not in ids:
                    try:
                        parent.successor(c.id)._checked
                    except InvalidStateError:
                        pass

    @pytest.mark.parametrize("build", ["_decomposed_tower", "_minimized_chain"])
    def test_every_entry_agrees_with_the_oracles(self, build):
        config = getattr(self, build)()
        self._grow(config)
        memo = config._factor_memo
        counts = oracles.crossing_counts(config)
        bordered = 0
        for ids, entry in memo.items():
            ordered = sorted(ids)
            rows = gram(config, ordered).rows()
            if len(ids) <= 8:
                assert (entry is not None) == oracles.brute_negative_definite(rows), ordered
            else:
                assert (entry is not None) == is_negative_definite(gram(config, ordered))
            if entry is None:
                continue
            assert sorted(j for block in entry for j in block.order) == ordered
            for block in entry:
                order, factor = block.order, block.factor
                parent = memo.get(frozenset(order[:-1]))
                if len(order) < 2 or parent is None:
                    continue
                # The join rule: the parent's blocks, largest first, then
                # the new curve; the largest block's rows are shared.
                joined = sorted(parent, key=lambda block: -len(block.order))
                if tuple(j for b in joined for j in b.order) == order[:-1]:
                    bordered += 1
                    # A bordered factor shares its parent's rows by reference.
                    head = joined[0].factor
                    assert all(a is b for a, b in zip(factor.rows, head.rows))
            residual = crepant_pullback(config, ids).residual
            expected = oracles.solve_linear(rows, raw_rhs(config, ordered))
            assert tuple(residual[i] for i in ordered) == expected
            state = SurfaceState(config, ids)
            for c in config.curves:
                if c.id in ids:
                    continue
                column = [-oracles.raw_pairing(config, counts, c.id, j) for j in ordered]
                if not any(column) and c.id % 4:
                    continue  # λ = 0 trivially; sample a quarter of these
                lam = correction_multiplicities(state, c.id)
                expected = dict(zip(ordered, oracles.solve_linear(rows, column)))
                # λ holds exactly the oracle's non-zero entries: the oracle
                # is 0 on every contracted curve λ leaves out.
                assert lam == {j: v for j, v in expected.items() if v}
        assert bordered > len(memo) // 4
        # Every set of (−b)-curves, b ≥ 2, in a chain is definite; the tower's
        # coefficient-1 curves make some grown sets indefinite.
        indefinite = sum(entry is None for entry in memo.values())
        assert (indefinite > 0) == (build == "_decomposed_tower")

    @pytest.mark.parametrize("build", ["_decomposed_tower", "_minimized_chain"])
    def test_blocks_are_the_connected_components(self, build):
        config = getattr(self, build)()
        self._grow(config)
        memo = config._factor_memo
        for ids, entry in memo.items():
            if entry is None:
                continue
            blocks = sorted((frozenset(block.order) for block in entry), key=min)
            assert blocks == sorted(oracles.raw_components(config, ids), key=min)
            # A state's block index maps each curve to its component's block.
            index = SurfaceState(config, ids)._checked
            assert index.keys() == ids
            assert all(cid in block.curves for cid, block in index.items())
            components = sorted({block.curves for block in index.values()}, key=min)
            assert components == oracles.raw_components(config, ids)
            for block in entry:
                # One factor per component, shared by every set containing it.
                assert memo[frozenset(block.order)][0] is block

    @pytest.mark.parametrize("build", ["_decomposed_tower", "_minimized_chain"])
    def test_bordered_and_cold_factors_agree(self, build):
        config = getattr(self, build)()
        self._grow(config)
        for ids, entry in config._factor_memo.items():
            if entry is None:
                continue
            det = 1
            for block in entry:
                order, factor = block.order, block.factor
                cold = gram(config, sorted(order))
                assert is_negative_definite(cold)
                rhs = raw_rhs(config, order)
                position = {cid: k for k, cid in enumerate(sorted(order))}
                cold_rhs = [None] * len(order)
                for cid, value in zip(order, rhs):
                    cold_rhs[position[cid]] = value
                mine = dict(zip(order, solve_symmetric(factor, rhs)))
                theirs = dict(zip(sorted(order), solve_symmetric(cold.factor, cold_rhs)))
                assert mine == theirs
                assert factor.determinant() == determinant(cold)
                det *= factor.determinant()
            whole = gram(config, sorted(ids))
            assert det == determinant(whole)
            if len(ids) <= 8:
                assert det == oracles.laplace_det(whole.rows())


def random_tree_config(rng, n: int) -> CurveConfig:
    """n rational curves in a random tree, some neighbours meeting twice,
    self-intersections from −4 to 0 and assorted coefficients below 1."""
    curves = [
        (i, 0, rng.choice((-4, -3, -2, -2, -1, 0)), Fraction(rng.randint(0, 5), 6))
        for i in range(1, n + 1)
    ]
    points = []
    for i in range(2, n + 1):
        up = rng.randint(1, i - 1)
        for _ in range(rng.choice((1, 1, 1, 2))):
            points.append((len(points) + 1, [up, i]))
    return CurveConfig.build(curves, points)


def tree_configs():
    """Generated towers, chains, a star and random trees with double contacts."""
    for template in (helpers.corner, helpers.boundary_chain):
        for seed in range(3):
            yield generate_crepant_pair(template(), 12, seed).config
    yield hj_chain([2, 3, 2, 2, 5, 2, 4], Fraction(1, 3), Fraction(1, 2))
    yield star(4)
    rng = random.Random(13)
    for n in (3, 5, 6, 8, 8, 10, 14):
        yield random_tree_config(rng, n)


class TestColdTreeBlocks:
    """Components factored cold by `ratlin.tree_factor` against dense
    elimination and the oracles."""

    def test_blocks_are_the_dense_factors_in_post_order(self):
        rng = random.Random(5)
        checked = definite = 0
        for config in tree_configs():
            ids = [c.id for c in config.curves]
            counts = oracles.crossing_counts(config)
            for _ in range(25):
                subset = rng.sample(ids, rng.randint(1, len(ids)))
                for component in oracles.raw_components(config, subset):
                    # A fresh copy, so the component is factored cold.
                    copy = fresh(config)
                    entry = factor_blocks(copy, frozenset(component))
                    dense = gram(copy, sorted(component))
                    if len(component) <= 8:
                        assert (entry is not None) == oracles.brute_negative_definite(dense.rows())
                    assert (entry is not None) == is_negative_definite(dense)
                    checked += 1
                    if entry is None:
                        continue
                    definite += 1
                    (block,) = entry
                    order, factor = block.order, block.factor
                    # Post-order: every curve but the last meets exactly one
                    # later curve of the component, its parent.
                    for k, cid in enumerate(order):
                        later = [j for j in order[k + 1:] if (min(cid, j), max(cid, j)) in counts]
                        assert len(later) == (k < len(order) - 1)
                    in_order = gram(copy, order)
                    assert is_negative_definite(in_order)
                    assert factor.rows == in_order.factor.rows
                    rhs = raw_rhs(copy, order)
                    assert solve_symmetric(factor, rhs) == oracles.solve_linear(in_order.rows(), rhs)
                    residual = crepant_pullback(copy, component).residual
                    assert tuple(residual[i] for i in order) == oracles.solve_linear(
                        in_order.rows(), rhs
                    )
        assert checked > 400 and 0 < definite < checked

    def test_double_contacts_are_tree_edges(self):
        config = CurveConfig.build(
            [(1, 0, -3, 0), (2, 0, -3, Fraction(1, 2)), (3, 0, -4, 0), (4, 0, -1, Fraction(2, 3))],
            [(1, [1, 2]), (2, [1, 2]), (3, [2, 3]), (4, [3, 4])],
        )
        ids = frozenset({1, 2, 3})
        (block,) = factor_blocks(config, ids)
        order, factor = block.order, block.factor
        dense = gram(config, order)
        assert 2 in dense.rows()[order.index(1)]
        assert is_negative_definite(dense) and factor.rows == dense.factor.rows
        residual = crepant_pullback(config, ids).residual
        expected = oracles.solve_linear(gram(config, [1, 2, 3]).rows(), raw_rhs(config, [1, 2, 3]))
        assert tuple(residual[i] for i in (1, 2, 3)) == expected


class TestColdPathGuard:
    """Which cold components reach the dense Gram path."""

    @pytest.fixture
    def dense(self, monkeypatch):
        """Records each Gram matrix built and tested, each
        `connected_components` call and each read of a tree block's dense
        rows."""
        calls = []
        real_gram = logsurf.surface.gram
        real_definite = logsurf.surface.is_negative_definite
        real_components = logsurf.surface.connected_components
        real_rows = TreeFactor.rows

        def counting_gram(config, ids):
            calls.append("gram")
            return real_gram(config, ids)

        def counting_definite(matrix):
            calls.append("is_negative_definite")
            return real_definite(matrix)

        def counting_components(config, ids):
            calls.append("connected_components")
            return real_components(config, ids)

        def counting_rows(factor):
            calls.append("rows")
            return real_rows.fget(factor)

        monkeypatch.setattr(logsurf.surface, "gram", counting_gram)
        monkeypatch.setattr(logsurf.surface, "is_negative_definite", counting_definite)
        monkeypatch.setattr(logsurf.surface, "connected_components", counting_components)
        monkeypatch.setattr(TreeFactor, "rows", property(counting_rows))
        return calls

    def test_tower_sub_states_build_no_gram_matrix(self, dense):
        # A contractible sub-state builds no Gram matrix, makes no
        # `connected_components` call and writes no tree block's dense rows;
        # an invalid one is decided by dense elimination alone.  Every tower
        # is a tree, so no set here has a cycle.
        rng = random.Random(3)
        seen = set()
        for template in (helpers.corner, helpers.boundary_chain):
            for seed in range(4):
                config = generate_crepant_pair(template(), 12, seed).config
                ids = [c.id for c in config.curves]
                for _ in range(10):
                    state = SurfaceState(fresh(config), rng.sample(ids, rng.randint(1, len(ids))))
                    dense.clear()
                    try:
                        seen.add(state.classification)
                        state.crepant.discrepancies
                    except InvalidStateError:
                        seen.add(None)
                        assert dense == ["gram", "is_negative_definite"]
                    else:
                        assert dense == []
        assert None in seen and Classification.KLT in seen

    def test_a_definite_cycle_takes_the_dense_path(self, dense):
        # Three (−3)-curves meeting pairwise contract to a cusp, whose
        # discrepancies are all −1; a curve of coefficient 1/2 meeting one of
        # them pushes them below −1.
        config = CurveConfig.build(
            [(1, 0, -3, 0), (2, 0, -3, 0), (3, 0, -3, 0), (4, 0, -1, Fraction(1, 2))],
            [(1, [1, 2]), (2, [2, 3]), (3, [3, 1]), (4, [4, 1])],
        )
        ids = [1, 2, 3]
        state = SurfaceState(config, ids)
        assert state.classification is Classification.NOT_LC
        assert dense == ["gram", "is_negative_definite"]
        expected = oracles.solve_linear(gram(config, ids).rows(), raw_rhs(config, ids))
        assert tuple(state.crepant.residual[i] for i in ids) == expected


FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


class TestIntegerColdSolve:
    """A cold solve sums its right-hand sides in integers."""

    def test_no_fraction_arithmetic_and_one_fraction_per_residual(self, monkeypatch):
        for seed in range(3):
            config = generate_crepant_pair(helpers.corner(), 12, seed).config
            ids = frozenset(c.id for c in config.curves if c.boundary_coeff < 1)
            copy = fresh(config)
            built = []
            real_new = Fraction.__new__

            def counting_new(cls, *args, **kwargs):
                built.append(args)
                return real_new(cls, *args, **kwargs)

            def forbidden(*args):
                raise AssertionError("Fraction arithmetic in a cold solve")

            with monkeypatch.context() as patch:
                patch.setattr(Fraction, "__new__", counting_new)
                for name in FRACTION_ARITHMETIC:
                    patch.setattr(Fraction, name, forbidden)
                data = crepant_pullback(copy, ids)
            assert len(built) == len(ids)
            order = sorted(ids)
            assert tuple(data.residual[i] for i in order) == oracles.solve_linear(
                gram(config, order).rows(), raw_rhs(config, order)
            )


def runs(build):
    """(config, trace) of decomposed depth-12 towers or minimised chains."""
    if build == "towers":
        for seed in range(4):
            spec = generate_crepant_pair(helpers.corner(), 12, seed)
            yield spec.config, decompose_morphism(spec)
    else:
        for bs in [
            [2, 2, 3, 2, 2, 2, 4, 2, 2, 5, 2, 2, 2, 3, 2, 2, 2, 2, 3, 2],
            [3, 2, 2, 4, 2, 2, 2, 2, 5, 2, 2, 2, 6],
        ]:
            config = hj_chain(bs)
            yield config, minimize(SurfaceState(config, set()))


class TestInheritedSolutions:
    """A state reached by a move inherits its parent's residuals after one
    exact row check, instead of solving its own system."""

    @staticmethod
    def _reached(trace):
        """The contracted sets the trace's moves reach, in order."""
        contracted = set(trace.start)
        for step in trace.steps:
            contracted.add(step.curve)
            yield frozenset(contracted)

    @pytest.mark.parametrize("build", ["towers", "chains"])
    def test_every_inherited_solution_agrees_with_the_oracle(self, build, cold, made):
        for config, trace in runs(build):
            solved = {key for cfg, key, _ in cold if cfg is config}
            # One state per move, each holding the solution it inherited when
            # it was made: one mapping serves the whole run, and only its end
            # sets were solved cold.
            assert [state.contracted for state in made] == list(self._reached(trace))
            assert len(made) == len(trace.steps) > 1
            assert len({id(state.crepant.residual) for state in made}) == 1
            assert solved <= {trace.start, trace.end}
            for state in made:
                ids, data = state.contracted, state.crepant
                assert data.contracted == ids
                ordered = sorted(ids)
                rows = gram(config, ordered).rows()
                expected = oracles.solve_linear(rows, raw_rhs(config, ordered))
                assert tuple(data.residual[i] for i in ordered) == expected
                assert all(
                    data.residual[c.id] == c.boundary_coeff
                    for c in config.curves
                    if c.id not in ids
                )
            made.clear()

    @pytest.mark.parametrize("build", ["towers", "chains"])
    def test_no_cold_solve_for_a_state_reached_by_a_move(self, build, cold):
        for config, trace in runs(build):
            # A decomposition solves its two end sets to check its input; a
            # minimisation solves its start.  Nothing else is solved.
            ends = [trace.start, trace.end] if build == "towers" else [trace.start]
            assert [key for cfg, key, _ in cold if cfg is config] == ends
            assert trace.steps
            cold.clear()
            assert verify_trace(config, trace.start, trace)
            ((replayed, key, _),) = cold
            assert replayed is not config and key == trace.start
            cold.clear()

    def test_successor_shares_its_parents_solution(self):
        config = helpers.corner_twice()
        state = SurfaceState(config, (), TargetBase({3, 4}))
        new = state.successor(4)
        assert new.contracted == frozenset({4}) and new.base == state.base
        # The solution is stored on the successor when it is made.
        assert "crepant" in vars(new)
        # The inherited solution is the parent's mapping itself, and no
        # caller of either state can write to it.
        assert new.crepant.residual is state.crepant.residual
        # The table of facts follows the mapping.
        assert new.crepant.facts is state.crepant.facts
        # A cold solve of the same set gives the same solution.
        assert crepant_pullback(config, {4}) == new.crepant
        for data in (state.crepant, new.crepant):
            with pytest.raises(TypeError):
                data.residual[4] = Fraction(5)
            with pytest.raises(TypeError):
                data.discrepancies[4] = Fraction(5)
        expected = oracles.solve_linear(gram(config, [4]).rows(), raw_rhs(config, [4]))
        assert (new.crepant.residual[4],) == (state.crepant.residual[4],) == expected
        assert new.crepant.residual == state.crepant.residual == {1: 1, 2: 1, 3: 1, 4: 0}

    def test_a_nonzero_row_is_solved_cold(self, cold):
        # Curve 2 is a (−3)-curve: its log degree is 1, not 0, over {1}.
        config = hj_chain([2, 3])
        state = SurfaceState(config, {1})
        assert log_degree(state, 2) == 1
        assert state.crepant.facts.degrees[2] == 1
        new = state.successor(2)
        assert "crepant" not in vars(new)
        assert new.crepant.discrepancies == {1: Fraction(-1, 5), 2: Fraction(-2, 5)}
        assert [key for _, key, _ in cold] == [frozenset({1}), frozenset({1, 2})]
        # The cold solution has a table of its own: the parent's stored
        # degree on curve 2 belongs to another mapping.
        assert new.crepant.facts is not state.crepant.facts
        assert log_degree(new, 2) == 0
        assert log_degree(state, 2) == 1


def raw_log_degree(config, counts, residual, cid):
    """deg K|_C + Σ_k e_k (C_k·C) over every curve k, recounted raw."""
    curve = next(c for c in config.curves if c.id == cid)
    total = Fraction(2 * curve.genus - 2 - curve.self_intersection)
    for other in config.curves:
        total += residual[other.id] * oracles.raw_pairing(config, counts, other.id, cid)
    return total


def comparison_classification(state):
    """The classification rule written as comparisons of the discrepancies
    and the coefficients, with a fresh simulation for every corner test."""
    config = state.config
    discrepancies = state.crepant.discrepancies
    if any(a < -1 for a in discrepancies.values()):
        return Classification.NOT_LC
    fresh = CurveConfig(config.curves, config.points)
    for component in oracles.raw_components(config, state.contracted):
        if any(discrepancies[cid] == -1 for cid in component):
            sim = smooth_point_blowdown(fresh, component)
            if not (sim and corner_failure(sim.final) is None):
                return Classification.LOG_CANONICAL
    if all(a > -1 for a in discrepancies.values()) and all(
        c.boundary_coeff < 1 for c in config.curves if c.id not in state.contracted
    ):
        return Classification.KLT
    return Classification.LOG_TERMINAL


class TestSharedFacts:
    """Each solution's table of facts (`SolutionFacts`) against raw
    recomputations, along runs, their replays and cold sub-states."""

    @staticmethod
    def _check(state):
        """Every fact the table of `state`'s solution holds, and every fact
        the state reads through it, equals a fresh computation."""
        config = state.config
        data = state.crepant
        assert data.contracted == state.contracted
        counts = oracles.crossing_counts(config)
        residual = data.residual
        facts = data.facts
        for cid, degree in list(facts.degrees.items()):
            assert degree == raw_log_degree(config, counts, residual, cid), cid
        if facts.negated is not None:
            assert all(value == -residual[cid] for cid, value in facts.negated.items())
        for c in config.curves:
            assert log_degree(state, c.id) == raw_log_degree(config, counts, residual, c.id)
        assert data.ones == frozenset(cid for cid, value in residual.items() if value == 1)
        assert data.above_one == frozenset(
            cid for cid, value in residual.items() if value > 1
        )
        assert state.classification is comparison_classification(state)
        # Discrepancies are the shared negations themselves.
        discrepancies = data.discrepancies
        assert discrepancies == {cid: -residual[cid] for cid in sorted(data.contracted)}
        assert all(facts.negated[cid] is value for cid, value in discrepancies.items())
        centers = lc_centers(state)
        assert [c for c in centers if isinstance(c, NodeCenter)] == [
            NodeCenter(p.id, p.incident)
            for p in config.points
            if len(p.incident) == 2 and all(residual[cid] == 1 for cid in p.incident)
        ]

    @pytest.mark.parametrize("build", ["towers", "chains"])
    def test_runs_and_replays_against_raw_scans(self, build, cold, made):
        for config, trace in runs(build):
            run = list(made)
            made.clear()
            cold.clear()
            assert verify_trace(config, trace.start, trace)
            (replay,) = {id(cfg): cfg for cfg, _, _ in cold}.values()
            assert replay is not config
            for cfg, states in ((config, run), (replay, made)):
                assert len(states) == len(trace.steps)
                assert all(state.config is cfg for state in states)
                # The table follows the mapping: one table per mapping.
                tables = {id(state.crepant.residual): state.crepant.facts for state in states}
                assert len(set(map(id, tables.values()))) == len(tables) < len(states)
                # The run has stored the degrees its predicates read.
                assert any(facts.degrees for facts in tables.values())
                for state in states:
                    assert state.crepant.facts is tables[id(state.crepant.residual)]
                    self._check(state)
            made.clear()

    def test_cold_sub_states_against_raw_scans(self):
        rng = random.Random(12)
        configs = [star(2), star(3), helpers.corner_twice(), helpers.elliptic()]
        configs += [generate_crepant_pair(helpers.corner(), 8, seed).config for seed in range(3)]
        seen = set()
        for config in configs:
            ids = [c.id for c in config.curves]
            for _ in range(40):
                state = SurfaceState(config, rng.sample(ids, rng.randint(0, len(ids))))
                try:
                    state.crepant
                except InvalidStateError:
                    continue
                self._check(state)
                seen.add(state.classification)
        assert seen == set(Classification)

    def test_a_minimisation_computes_each_log_degree_once(self, monkeypatch):
        computed = []
        solving = []
        real_degree = logsurf.crepant.canonical_degree
        real_solve = logsurf.crepant.crepant_pullback

        def counting(config, cid):
            if not solving:
                computed.append((config, cid))
            return real_degree(config, cid)

        def solve(config, contracted):
            # A cold solve's right-hand side reads deg K of its own curves.
            solving.append(contracted)
            try:
                return real_solve(config, contracted)
            finally:
                solving.pop()

        monkeypatch.setattr(logsurf.crepant, "canonical_degree", counting)
        monkeypatch.setattr(logsurf.crepant, "crepant_pullback", solve)
        config = hj_chain([2, 2, 3, 2, 2, 2, 4, 2, 2, 5, 2, 2, 2, 3, 2, 2, 2, 2, 3, 2])
        trace = minimize(SurfaceState(config, set()))
        assert len(trace.steps) > 1
        assert computed and all(cfg is config for cfg, _ in computed)
        assert len(computed) == len(set(computed)) <= len(config.curves)


COEFFICIENTS = (0, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 5), 1)


@st.composite
def move_algebra_states(draw):
    """(configuration, contracted set): a random subset of a contractible set
    of a crepant tower, of the same tower with some coefficients set to 1/2
    (so that log degrees are non-zero), or of a Hirzebruch–Jung chain
    decorated with two boundary curves of assorted coefficients."""
    kind = draw(st.sampled_from(["tower", "halves", "chain"]))
    if kind == "chain":
        bs = draw(st.lists(st.integers(2, 5), min_size=1, max_size=6))
        left, right = draw(st.sampled_from(COEFFICIENTS)), draw(st.sampled_from(COEFFICIENTS))
        config = hj_chain(bs, left, right)
        ids = list(range(1, len(bs) + 1))
    else:
        template = draw(st.sampled_from([helpers.corner, helpers.boundary_chain]))
        spec = generate_crepant_pair(
            template(), draw(st.integers(1, 8)), draw(st.integers(0, 10**6))
        )
        config, ids = spec.config, sorted(spec.target_contracted)
        if kind == "halves":
            halved = draw(st.sets(st.sampled_from([c.id for c in config.curves]), min_size=1))
            config = CurveConfig(
                tuple(
                    Curve(c.id, c.genus, c.self_intersection, Fraction(1, 2))
                    if c.id in halved
                    else c
                    for c in config.curves
                ),
                config.points,
            )
    return config, draw(st.frozensets(st.sampled_from(ids)))


class TestIntegerMoveAlgebra:
    """Log degrees, multiplicities, image self-intersections and ε bounds
    run on integers over one denominator per solution, and equal plain
    `Fraction` references."""

    def test_runs_and_replays_do_no_fraction_arithmetic(self, monkeypatch):
        jobs = []
        for template in (helpers.corner, helpers.boundary_chain):
            for seed in range(4):
                spec = generate_crepant_pair(template(), 12, seed)
                jobs.append((spec.config, decompose_morphism(spec), spec))
        for config, trace in runs("chains"):
            jobs.append((config, trace, None))

        def forbidden(*args):
            raise AssertionError("Fraction arithmetic in a run or its replay")

        for config, expected, spec in jobs:
            copy = fresh(config)
            with monkeypatch.context() as patch:
                for name in FRACTION_ARITHMETIC:
                    patch.setattr(Fraction, name, forbidden)
                if spec is None:
                    trace = minimize(SurfaceState(copy, set()))
                else:
                    trace = decompose_morphism(
                        MorphismSpec(copy, spec.source_contracted, spec.target_contracted)
                    )
                verdict = verify_trace(copy, trace.start, trace)
            assert verdict, verdict.failure
            assert trace == expected
            assert trace_to_json(copy, trace) == trace_to_json(config, expected)

    @settings(max_examples=120, deadline=None)
    @given(move_algebra_states())
    def test_values_equal_plain_fraction_references(self, drawn):
        config, contracted = drawn
        state = SurfaceState(config, contracted)
        residual = oracles.raw_residuals(config, contracted)
        for c in config.curves:
            assert log_degree(state, c.id) == oracles.raw_log_degree(config, residual, c.id)
            if c.id in contracted:
                continue
            lam = correction_multiplicities(state, c.id)
            expected = oracles.raw_multiplicities(config, contracted, c.id)
            # λ holds exactly the oracle's non-zero entries: the oracle is 0
            # on every contracted curve λ leaves out.
            assert lam == {j: v for j, v in expected.items() if v}
            assert image_self_intersection(
                config, c.id, lam
            ) == oracles.raw_image_self_intersection(config, expected, c.id)
            # The bound's arithmetic, whether or not the curve's flop passes.
            bound = epsilon_bound(FlopCheck(state, c.id, None, None, lam))
            assert (bound.supremum, bound.chosen) == oracles.raw_epsilon_bound(
                config, residual, expected, c.id
            )


class TestBlockIndex:
    """Each state's curve → block index against the raw components, and the
    searches a run makes."""

    @pytest.mark.parametrize("build", ["towers", "chains"])
    def test_every_state_of_a_run(self, build):
        for config, trace in runs(build):
            copy = fresh(config)
            state = SurfaceState(copy, trace.start, trace.base)
            state._checked
            states = [state]
            for step in trace.steps:
                state = state.successor(step.curve)
                # Checked when made, its index derived from the parent's.
                assert "_checked" in state.__dict__
                states.append(state)
            for state in states:
                index = state._checked
                assert index.keys() == state.contracted
                components = oracles.raw_components(copy, state.contracted)
                for component in components:
                    (block,) = blocks = {id(index[j]): index[j] for j in component}.values()
                    assert frozenset(block.order) == component
                    # The component's memoised block itself.
                    assert factor_blocks(copy, component)[0] is next(iter(blocks))
                counts = oracles.crossing_counts(copy)
                for cid in state.uncontracted:
                    met = [frozenset(block.order) for block in state._blocks_meeting(cid)]
                    assert len(met) == len(set(met))
                    assert set(met) == {
                        component
                        for component in components
                        if any(oracles.raw_pairing(copy, counts, cid, j) for j in component)
                    }

    def test_an_indefinite_grown_block_gives_the_cold_message(self):
        # Curves 1 and 2 form an indefinite pair; curve 5 is apart from
        # them, so the message names the whole set, not the component.
        config = CurveConfig.build(
            [(1, 0, -1, 0), (2, 0, -1, 0), (5, 0, -2, 0)], [(1, [1, 2])]
        )
        parent = SurfaceState(config, {1, 5})
        parent._checked
        with pytest.raises(InvalidStateError) as grown:
            parent.successor(2)._checked
        with pytest.raises(InvalidStateError) as cold:
            SurfaceState(fresh(config), {1, 2, 5})._checked
        assert str(grown.value) == str(cold.value) == (
            "gram matrix of [1, 2, 5] is not negative definite; the set is not contractible"
        )
        assert config._factor_memo[frozenset({1, 2})] is None

    def test_a_successor_by_a_contracted_curve_is_its_parent(self):
        spec = generate_crepant_pair(helpers.corner(), 12, 3)
        picked = sorted(spec.target_contracted)[::2]
        for base in (PointBase(), TargetBase(spec.target_contracted)):
            parent = SurfaceState(fresh(spec.config), picked, base)
            index = parent._checked
            assert len(set(map(id, index.values()))) > 1
            for cid in picked:
                same = parent.successor(cid)
                assert same.contracted == parent.contracted
                assert same._checked.keys() == index.keys()
                assert all(same._checked[j] is index[j] for j in index)
                assert same.crepant.discrepancies == parent.crepant.discrepancies
                assert same.classification is parent.classification

    def test_a_run_searches_only_its_end_states(self, monkeypatch):
        # A decomposition checks its start and end sets cold; every state
        # its moves reach finds its blocks from its parent's.
        searched = []
        real = logsurf.surface.forest_post_order

        def recording(roots, children, weight):
            searched.append(roots)
            return real(roots, children, weight)

        monkeypatch.setattr(logsurf.surface, "forest_post_order", recording)
        spec = generate_crepant_pair(helpers.corner(), 200, 200)
        trace = decompose_morphism(spec)
        assert len(trace.steps) == 200 and trace.flop_minimal_index > 0
        components = oracles.raw_components(spec.config, spec.source_contracted)
        components += oracles.raw_components(spec.config, spec.target_contracted)
        assert sorted(searched) == sorted((min(component),) for component in components)
        # A successor stores only the component its curve joins: every
        # other key is the start or the end set.
        memo = spec.config._factor_memo
        whole = {spec.source_contracted, spec.target_contracted}
        for ids, entry in memo.items():
            if ids not in whole:
                (block,) = entry
                assert frozenset(block.order) == ids
                assert oracles.raw_components(spec.config, ids) == [ids]
        assert whole - {frozenset()} <= memo.keys()


def decided_blocks(config):
    """The distinct blocks of the configuration's factor memo whose corner
    verdict is known, by least id."""
    entries = config._factor_memo.values()
    blocks = dict.fromkeys(block for entry in entries if entry for block in entry)
    decided = [block for block in blocks if block.corner is not None]
    return sorted(decided, key=lambda block: min(block.curves))


class TestCornerVerdict:
    """Each residual-1 component is simulated once per configuration, and
    its verdict kept on its block."""

    def test_one_simulation_per_component(self, monkeypatch):
        simulated = []
        real = logsurf.crepant.smooth_point_blowdown

        def counting(config, gamma):
            simulated.append((config, frozenset(gamma)))
            return real(config, gamma)

        monkeypatch.setattr(logsurf.crepant, "smooth_point_blowdown", counting)
        spec = generate_crepant_pair(helpers.corner(), 12, 2)
        config = spec.config
        trace = decompose_morphism(spec)
        assert verify_trace(config, trace.start, trace)
        assert len(simulated) == len(set(simulated))
        decided = decided_blocks(config)
        assert decided
        assert {block.curves for block in decided} == {
            gamma for cfg, gamma in simulated if cfg is config
        }
        # Each verdict is what a fresh simulation on a fresh copy decides.
        fresh = CurveConfig(config.curves, config.points)
        for block in decided:
            sim = real(fresh, block.curves)
            assert block.corner == (bool(sim) and corner_failure(sim.final) is None)

    def test_states_of_one_set_share_blocks_and_verdicts(self):
        spec = generate_crepant_pair(helpers.corner(), 12, 2)
        config = spec.config
        trace = decompose_morphism(spec)
        run = SurfaceState(config, trace.start, trace.base)
        for step in trace.steps:
            run = run.successor(step.curve)
            cold = SurfaceState(config, run.contracted, run.base)
            copy = SurfaceState(fresh(config), run.contracted, run.base)
            assert run.classification is cold.classification is copy.classification
            for cid, block in run._checked.items():
                # A cold state of the same set reads the run's blocks.
                assert cold._checked[cid] is block
                # A fresh copy decides its own blocks, with the same verdicts.
                other = copy._checked[cid]
                assert other is not block and other.curves == block.curves
                assert other.corner == block.corner
        assert any(block.corner for block in run._checked.values())


def cold_classification(state):
    """`state.classification` decided again on a fresh copy, by the cold path."""
    return SurfaceState(fresh(state.config), state.contracted, state.base).classification


def tower_sub_states(rng, count):
    """`count` random sub-states of seeded towers of both templates, each on
    a fresh copy of its configuration."""
    specs = [
        generate_crepant_pair(template(), depth, seed)
        for template in (helpers.corner, helpers.boundary_chain)
        for depth, seed in ((8, 1), (16, 2), (24, 3), (40, 4))
    ]
    for _ in range(count):
        spec = rng.choice(specs)
        ids = sorted(spec.target_contracted)
        yield SurfaceState(fresh(spec.config), rng.sample(ids, rng.randint(0, len(ids))))


class TestSuccessorVerdict:
    """Every state `SurfaceState.successor` makes has the verdict of a cold
    state of the same set on a fresh copy."""

    @pytest.mark.parametrize("template", [helpers.corner, helpers.boundary_chain])
    def test_every_state_of_decompositions_and_replays(self, template, made):
        for depth in (1, 6, 12, 25, 40):
            for seed in range(3):
                spec = generate_crepant_pair(template(), depth, seed)
                trace = decompose_morphism(spec)
                run = list(made)
                assert verify_trace(spec.config, trace.start, trace)
                # The run makes one state per step.
                assert len(run) == len(trace.steps)
                for state in made:
                    assert state.classification is cold_classification(state)
                made.clear()

    def test_every_state_of_chain_minimisations(self, made):
        rng = random.Random(7)
        chains = [[2] * 12, [2, 3, 2, 2, 4, 2, 2]]
        chains += [[rng.choice((2, 2, 2, 3, 4)) for _ in range(n)] for n in (20, 40, 60)]
        for bs in chains:
            config = hj_chain(bs)
            trace = minimize(SurfaceState(config, ()))
            assert trace.steps and verify_trace(config, trace.start, trace)
            for state in made:
                assert state.classification is cold_classification(state)
            made.clear()

    def test_successors_of_random_log_terminal_sub_states(self):
        rng = random.Random(23)
        seen = collections.Counter()
        for parent in tower_sub_states(rng, 150):
            verdict = parent.classification
            if verdict < Classification.LOG_TERMINAL:
                continue
            for cid in parent.uncontracted:
                try:
                    new = parent.successor(cid)
                except InvalidStateError:
                    continue
                got = new.classification
                assert got is cold_classification(new)
                seen[verdict, got] += 1
        # A LOG_TERMINAL parent has successors of both verdicts.
        assert seen[Classification.LOG_TERMINAL, Classification.LOG_TERMINAL] > 50
        assert seen[Classification.LOG_TERMINAL, Classification.LOG_CANONICAL] > 50

    @pytest.mark.parametrize("ends", [None, (Fraction(1, 3), Fraction(6, 7))])
    def test_successors_of_klt_chain_sub_states(self, ends):
        rng = random.Random(31)
        seen = collections.Counter()
        for _ in range(40):
            bs = [rng.choice((2, 2, 2, 3, 4)) for _ in range(rng.randint(2, 20))]
            picked = [i for i in range(1, len(bs) + 1) if rng.random() < 0.5]
            parent = SurfaceState(hj_chain(bs, *(ends or (None, None))), picked)
            verdict = parent.classification
            for cid in parent.uncontracted:
                try:
                    new = parent.successor(cid)
                except InvalidStateError:
                    continue
                assert new.classification is cold_classification(new)
                seen[verdict, new.classification] += 1
        assert seen[Classification.KLT, Classification.KLT] > 10


class TestDeterminantPretest:
    """A component whose Gram determinant is not ±1 cannot contract to a
    smooth point, so its corner verdict is False with no simulation."""

    @staticmethod
    def connected_subsets(rng, count):
        """Random connected subsets of seeded towers' target sets, each on a
        fresh copy, kept when they hold a residual-1 curve."""
        specs = [
            generate_crepant_pair(template(), depth, seed)
            for template in (helpers.corner, helpers.boundary_chain)
            for depth, seed in ((10, 5), (20, 6), (40, 7))
        ]
        while count:
            spec = rng.choice(specs)
            config = fresh(spec.config)
            picked = {rng.choice(sorted(spec.target_contracted))}
            size = rng.randint(1, len(spec.target_contracted))
            while len(picked) < size:
                front = sorted(
                    j
                    for cid in picked
                    for j in config._adjacency[cid]
                    if j in spec.target_contracted and j not in picked
                )
                if not front:
                    break
                picked.add(rng.choice(front))
            state = SurfaceState(config, picked)
            if not state.crepant.ones.isdisjoint(picked):
                count -= 1
                yield state

    def test_memo_verdicts_and_simulations(self, monkeypatch):
        simulated = []
        real = logsurf.crepant.smooth_point_blowdown

        def counting(config, gamma):
            simulated.append((config, frozenset(gamma)))
            return real(config, gamma)

        monkeypatch.setattr(logsurf.crepant, "smooth_point_blowdown", counting)
        rng = random.Random(41)
        unimodular = skipped = 0
        for state in self.connected_subsets(rng, 200):
            config = state.config
            (component,) = {block.curves for block in state._checked.values()}
            assert component == state.contracted
            state.classification
            (block,) = factor_blocks(config, component)
            assert decided_blocks(config) == [block]
            sim = real(fresh(config), component)
            assert block.corner == (bool(sim) and corner_failure(sim.final) is None)
            if abs(block.factor.determinant()) == 1:
                assert simulated == [(config, component)]
                unimodular += 1
            else:
                assert simulated == [] and block.corner is False
                skipped += 1
            simulated.clear()
        assert unimodular > 20 and skipped > 20

    def test_sub_states_with_several_components(self, monkeypatch):
        simulated = []
        real = logsurf.crepant.smooth_point_blowdown

        def counting(config, gamma):
            simulated.append(frozenset(gamma))
            return real(config, gamma)

        monkeypatch.setattr(logsurf.crepant, "smooth_point_blowdown", counting)
        rng = random.Random(43)
        for state in tower_sub_states(rng, 100):
            assert state.classification is comparison_classification(state)
            for component in simulated:
                (block,) = factor_blocks(state.config, component)
                assert abs(block.factor.determinant()) == 1
            simulated.clear()


coefficients = st.fractions(min_value=0, max_value=1, max_denominator=7).filter(lambda x: x < 1)


class TestChainClosedForm:
    """Hirzebruch–Jung chains against their continuant closed forms."""

    def _check(self, bs, left, right, order):
        r = len(bs)
        ids = frozenset(range(1, r + 1))
        n = oracles.continuant(bs)
        expected = dict(
            zip(range(1, r + 1), oracles.chain_discrepancies(bs, left or 0, right or 0))
        )
        # Cold: one elimination of the whole chain.
        config = hj_chain(bs, left, right)
        cold = SurfaceState(config, ids)
        assert cold.crepant.discrepancies == expected
        assert cold.classification is Classification.KLT
        (cold_block,) = config._factor_memo[ids]
        assert cold_block.factor.determinant() == (-1) ** r * n
        assert determinant(gram(config, sorted(ids))) == (-1) ** r * n
        # Bordered: the same set grown one curve at a time in `order`, by
        # successors.  The join rule predicts each block's row order: the
        # blocks the new curve meets, largest first (ties in the order the
        # curve's crossings list them), then the new curve; the blocks it
        # does not meet are kept.
        grown = hj_chain(bs, left, right)
        predicted: list[tuple[int, ...]] = []
        step = SurfaceState(grown, ())
        step._checked
        for k in range(1, r + 1):
            c = order[k - 1]
            step = step.successor(c)
            met = []
            for j in grown._adjacency[c]:
                met += [b for b in predicted if j in b and b not in met]
            met.sort(key=lambda b: -len(b))
            predicted = [b for b in predicted if b not in met]
            predicted.append(tuple(j for b in met for j in b) + (c,))
            blocks = {id(block): block for block in step._checked.values()}.values()
            assert sorted(block.order for block in blocks) == sorted(predicted)
        state = SurfaceState(grown, ids)
        assert state.crepant.discrepancies == expected
        assert state.classification is Classification.KLT
        (block,) = grown._factor_memo[ids]
        assert [block.order] == predicted
        assert block.factor.determinant() == (-1) ** r * n

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=50),
        st.one_of(st.none(), st.tuples(coefficients, coefficients)),
        st.data(),
    )
    def test_random_chains(self, bs, ends, data):
        left, right = ends if ends is not None else (None, None)
        order = data.draw(st.permutations(range(1, len(bs) + 1)), label="order")
        self._check(bs, left, right, order)

    @pytest.mark.parametrize("ends", [None, (Fraction(1, 3), Fraction(6, 7))])
    def test_fifty_curves(self, ends):
        rng = random.Random(50)
        bs = [rng.choice((2, 2, 3, 4, 5, 6)) for _ in range(50)]
        order = list(range(1, 51))
        rng.shuffle(order)
        self._check(bs, *(ends or (None, None)), order)


# The lazy facts of each class, computed on first read.
LAZY_FACTS = {
    CurveConfig: [
        "_adjacency", "_blowdown_memo", "_coeff_denominator", "_curve_map",
        "_factor_memo", "_point_map", "_violations",
    ],
    CrepantData: ["discrepancies"],
    SurfaceState: ["_checked", "classification", "crepant", "uncontracted"],
}


class _RaisingLock:
    """A lock that raises when taken."""

    def __enter__(self):
        raise AssertionError("a lazy fact took a lock")

    def __exit__(self, *exc_info):
        return False


class TestLazyFacts:
    """Every lazy fact is a `functools.cached_property`, which perfbench's
    tracer tests for before it wraps one, read without the class-wide lock
    that Python 3.11's takes on a first read, and a value stored in the
    instance dict before that read is the fact."""

    def test_every_lazy_fact_is_a_cached_property(self):
        for cls, names in LAZY_FACTS.items():
            found = sorted(
                name for name, value in vars(cls).items() if isinstance(value, cached_property)
            )
            assert found == names, cls.__name__

    def test_a_first_read_takes_no_lock(self, monkeypatch):
        for cls, names in LAZY_FACTS.items():
            for name in names:
                monkeypatch.setattr(vars(cls)[name], "lock", _RaisingLock(), raising=False)
        config = helpers.corner_twice()
        for name in LAZY_FACTS[CurveConfig]:
            getattr(config, name)
        state = SurfaceState(config, {3, 4}, TargetBase({3, 4}))
        assert state.classification is Classification.LOG_TERMINAL
        assert dict(state.crepant.discrepancies) == {3: -1, 4: 0}
        assert state.uncontracted == (1, 2)
        for instance in (config, state.crepant, state):
            assert set(LAZY_FACTS[type(instance)]) <= vars(instance).keys()

    def test_a_stored_value_is_the_fact(self):
        state = SurfaceState(helpers.corner_twice(), set(), TargetBase({3, 4}))
        first = decompose_morphism(MorphismSpec(state.config, set(), {3, 4})).steps[0]
        new = state.successor(first.curve)
        for name in ("_checked", "crepant"):
            stored = vars(new)[name]
            assert getattr(new, name) is stored
            assert vars(SurfaceState)[name].__get__(new, SurfaceState) is stored
        fresh_state = SurfaceState(helpers.corner_twice(), {4})
        marker = object()
        vars(fresh_state)["uncontracted"] = marker
        assert vars(SurfaceState)["uncontracted"].__get__(fresh_state, SurfaceState) is marker
        assert fresh_state.uncontracted is marker
