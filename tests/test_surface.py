"""Configurations, validation, blow-up rewriting, and the contraction simulator."""

from fractions import Fraction
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import oracles
from logsurf import (
    BadCoefficientError,
    BlowUpTarget,
    CrossingPoint,
    Curve,
    CurveConfig,
    InvalidStateError,
    LocalBlowdownModel,
    SurfaceState,
    TargetBase,
    TheoremViolationError,
    UnknownIdError,
    UnknownTargetError,
    at_point,
    blow_up,
    canonical_degree,
    connected_components,
    decompose_morphism,
    free_point_on,
    generate_crepant_pair,
    generic_point,
    gram,
    is_log_blowdown,
    next_curve_id,
    pairing,
    relative_picard_rank,
    smooth_point_blowdown,
    validate_config,
)
from logsurf.surface import (
    NO_MINUS_ONE,
    NON_SNC_CONTRACTION,
    corner_failure,
    factor_blocks,
    require_unimodular,
    run_contraction,
)


class TestValidation:
    def test_fixture_builders_are_valid(self):
        for build in (
            helpers.du_val_a1,
            helpers.du_val_a1_half,
            helpers.elliptic,
            helpers.chain,
            helpers.boundary_chain,
            helpers.corner,
            helpers.corner_once,
            helpers.corner_twice,
        ):
            assert validate_config(build()) == ()

    def _kinds(self, config):
        return {v.kind for v in validate_config(config)}

    def test_duplicate_curve_id(self):
        config = CurveConfig.build([(1, 0, -1, 0), (1, 0, -2, 0)])
        assert "DuplicateId" in self._kinds(config)

    def test_duplicate_point_id(self):
        config = CurveConfig.build(
            [(1, 0, -2, 0), (2, 0, -2, 0)], [(1, [1, 2]), (1, [1, 2])]
        )
        assert "DuplicateId" in self._kinds(config)

    def test_coefficient_above_one(self):
        config = CurveConfig.build([(1, 0, -2, Fraction(3, 2))])
        assert "BadCoefficient" in self._kinds(config)

    def test_negative_coefficient(self):
        config = CurveConfig.build([(1, 0, -2, Fraction(-1, 2))])
        assert "BadCoefficient" in self._kinds(config)

    def test_build_rejects_a_bool_coefficient(self):
        # True is an int subclass; read as 1 it would change the curve's meaning.
        with pytest.raises(TypeError, match="got bool"):
            CurveConfig.build([(1, 0, -1, True)])

    def test_build_keeps_a_fraction_coefficient_and_normalises_the_rest(self):
        # `_violations` requires the exact type `Fraction` of a coefficient.
        class Half(Fraction):
            pass

        half = Fraction(1, 2)
        config = CurveConfig.build([(1, 0, -2, half), (2, 0, -2, 1), (3, 0, -2, Half(1, 2))])
        kept, one, subclass = (c.boundary_coeff for c in config.curves)
        assert kept is half
        assert (type(one), one) == (Fraction, 1)
        assert (type(subclass), subclass) == (Fraction, half)
        assert validate_config(config) == ()
        quarter = Fraction(1, 4)
        blown = blow_up(helpers.corner(), generic_point(), quarter)
        assert blown.curve(next_curve_id(helpers.corner())).boundary_coeff is quarter

    def test_negative_genus(self):
        config = CurveConfig.build([(1, -1, -2, 0)])
        assert "BadGenus" in self._kinds(config)

    def test_triple_point(self):
        config = CurveConfig.build(
            [(1, 0, -2, 0), (2, 0, -2, 0), (3, 0, -2, 0)], [(1, [1, 2, 3])]
        )
        assert "TriplePoint" in self._kinds(config)

    def test_empty_point(self):
        config = CurveConfig.build([(1, 0, -2, 0)], [(1, [])])
        assert "EmptyPoint" in self._kinds(config)

    def test_dangling_curve_reference(self):
        config = CurveConfig.build([(1, 0, -2, 0)], [(1, [1, 9])])
        assert "DanglingId" in self._kinds(config)

    def test_float_self_intersection_is_a_bad_type(self):
        config = CurveConfig.build([(1, 0, -2.5, 0)], [])
        violations = validate_config(config)
        assert [v.kind for v in violations] == ["BadType"]
        assert "self_intersection -2.5" in violations[0].detail

    @pytest.mark.parametrize(
        "row, field",
        [
            ((1.0, 0, -2, 0), "id"),
            ((True, 0, -2, 0), "id"),
            ((1, 0.0, -2, 0), "genus"),
            ((1, False, -2, 0), "genus"),
            ((1, "0", -2, 0), "genus"),
            ((1, 0, True, 0), "self_intersection"),
            ((1, 0, -2, 0.5), "boundary_coeff"),
            ((1, 0, -2, True), "boundary_coeff"),
        ],
    )
    def test_non_int_fields_are_bad_types(self, row, field):
        # Built directly: `CurveConfig.build` would convert the coefficient.
        violations = validate_config(CurveConfig((Curve(*row),), ()))
        assert [(v.kind, field in v.detail) for v in violations] == [("BadType", True)]

    @pytest.mark.parametrize(
        "point, named",
        [
            (CrossingPoint(1.5, frozenset({1, 2})), "id 1.5 of type float"),
            (CrossingPoint(True, frozenset({2})), "id True of type bool"),
            (CrossingPoint(1, frozenset({1.0, 2})), "incident curve 1.0 of type float"),
            (CrossingPoint(1, frozenset({True})), "incident curve True of type bool"),
            (CrossingPoint(1, frozenset({2.5})), "incident curve 2.5 of type float"),
        ],
    )
    def test_non_int_point_ids_are_bad_types(self, point, named):
        curves = (Curve(1, 0, -2, Fraction(0)), Curve(2, 0, -2, Fraction(0)))
        violations = validate_config(CurveConfig(curves, (point,)))
        assert [(v.kind, named in v.detail) for v in violations] == [("BadType", True)]

    def test_float_and_bool_point_ids_do_not_pass_as_ints(self):
        config = CurveConfig.build(
            [(1, 0, -2, 0), (2, 0, -2, 0)], [(1.5, [1.0, 2]), (True, [2])]
        )
        assert [v.kind for v in validate_config(config)] == ["BadType"] * 3
        with pytest.raises(InvalidStateError, match="BadType"):
            SurfaceState(config, {1}).classification

    def test_agrees_with_a_full_rescan_on_random_rows(self):
        rng = random.Random(9)
        ids = (1, 2, 3, 4, 1.0, 2.5, True, False, -1)
        genera = (0, 0, 1, -1, 0.0, True, "0")
        selves = (-1, -2, 0, 3, -1.0, False)
        coeffs = (
            Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3),
            0, 1, 0.5, 2, True,
        )
        plain = 0
        for case in range(600):
            # Half the cases start from well-formed rows and break at most one.
            clean = case % 2 == 0
            n = rng.randint(0, 5)
            curves = [
                Curve(
                    k + 1 if clean else rng.choice(ids),
                    0 if clean else rng.choice(genera),
                    -2 if clean else rng.choice(selves),
                    Fraction(rng.randint(0, 2), 2) if clean else rng.choice(coeffs),
                )
                for k in range(n)
            ]
            points = []
            for k in range(rng.randint(0, 4)):
                size = rng.choice((1, 2, 2, 2, 0, 3)) if not clean else rng.choice((1, 2))
                incident = rng.sample(range(1, n + 2), min(size, n + 1))
                if not clean and incident and rng.random() < 0.2:
                    incident[0] = rng.choice(ids)
                if clean:
                    incident = [c for c in incident if c <= n][:2] or [1]
                points.append(CrossingPoint(k + 1 if clean else rng.choice(ids), frozenset(incident)))
            if clean and rng.random() < 0.5 and curves:
                k = rng.randrange(len(curves))
                c = curves[k]
                curves[k] = Curve(c.id, rng.choice(genera), rng.choice(selves), rng.choice(coeffs))
            expected = oracles.rescan_violations(curves, points)
            assert validate_config(CurveConfig(tuple(curves), tuple(points))) == expected
            plain += not expected
        assert 100 < plain < 500

    @pytest.mark.parametrize(
        "rank, kind",
        [(-3, "BadPicardRank"), (-1, "BadPicardRank"), ("5", "BadType"), (True, "BadType"),
         (2.0, "BadType")],
    )
    def test_malformed_picard_rank(self, rank, kind):
        config = CurveConfig.build([(1, 0, -2, 0)], [], picard_rank_of_model=rank)
        assert [v.kind for v in validate_config(config)] == [kind]
        with pytest.raises(InvalidStateError, match=kind):
            relative_picard_rank(SurfaceState(config, {1}))

    @pytest.mark.parametrize("rank", [None, 0, 5])
    def test_a_picard_rank_of_at_least_zero_is_valid(self, rank):
        config = CurveConfig.build([(1, 0, -2, 0)], [], picard_rank_of_model=rank)
        assert validate_config(config) == ()

    def test_point_repeating_a_curve_is_refused(self):
        with pytest.raises(ValueError, match="point 1 lists a curve twice"):
            CurveConfig.build([(1, 0, -2, 0), (2, 0, -2, 0)], [(1, [1, 1])])

    def test_lookup_errors(self):
        config = helpers.chain()
        with pytest.raises(UnknownIdError):
            config.curve(9)
        with pytest.raises(UnknownIdError):
            config.point(9)


class TestPairingAndDegree:
    def test_self_pairing_is_self_intersection(self):
        config = helpers.corner_twice()
        assert pairing(config, 3, 3) == -2
        assert pairing(config, 4, 4) == -1

    def test_cross_pairing_counts_points(self):
        config = helpers.corner_twice()
        assert pairing(config, 1, 3) == 1
        assert pairing(config, 3, 4) == 1
        assert pairing(config, 1, 2) == 0
        assert pairing(config, 1, 4) == 0

    def test_pairing_is_symmetric(self):
        config = helpers.corner_twice()
        ids = [c.id for c in config.curves]
        for i in ids:
            for j in ids:
                assert pairing(config, i, j) == pairing(config, j, i)

    def test_canonical_degree_by_adjunction(self):
        assert canonical_degree(helpers.du_val_a1(), 1) == 0
        assert canonical_degree(helpers.elliptic(), 1) == 1
        assert canonical_degree(helpers.corner(), 1) == -2
        assert canonical_degree(helpers.corner_twice(), 3) == 0
        assert canonical_degree(helpers.corner_twice(), 4) == -1


class TestBlowUp:
    def test_at_marked_point(self):
        config = helpers.corner_once()
        curves = {c.id: c for c in config.curves}
        assert curves[1].self_intersection == -1
        assert curves[2].self_intersection == -1
        assert curves[3].self_intersection == -1
        assert curves[3].genus == 0
        assert curves[3].boundary_coeff == 1
        assert all(p.id != 1 for p in config.points)
        incidences = {frozenset(p.incident) for p in config.points}
        assert incidences == {frozenset({1, 3}), frozenset({2, 3})}

    def test_at_free_point(self):
        config = helpers.corner_twice()
        curves = {c.id: c for c in config.curves}
        assert curves[3].self_intersection == -2
        assert curves[4].self_intersection == -1
        assert curves[4].boundary_coeff == 0
        assert frozenset({3, 4}) in {frozenset(p.incident) for p in config.points}
        # the two earlier crossings are untouched
        assert pairing(config, 1, 3) == 1
        assert pairing(config, 2, 3) == 1

    def test_at_generic_point(self):
        config = blow_up(helpers.chain(), generic_point(), Fraction(1, 2))
        new = config.curve(3)
        assert (new.genus, new.self_intersection, new.boundary_coeff) == (
            0,
            -1,
            Fraction(1, 2),
        )
        assert len(config.points) == len(helpers.chain().points)

    def test_point_ids_ascend_over_sorted_partners(self):
        config = helpers.corner_once()
        by_id = {p.id: sorted(p.incident) for p in config.points}
        assert by_id == {2: [1, 3], 3: [2, 3]}
        deeper = helpers.corner_twice()
        assert {p.id: sorted(p.incident) for p in deeper.points}[4] == [3, 4]

    def test_tracks_picard_rank_when_present(self):
        base = CurveConfig.build([(1, 0, 0, 1)], [], picard_rank_of_model=2)
        once = blow_up(base, free_point_on(1), 0)
        assert once.picard_rank_of_model == 3
        assert blow_up(base, generic_point(), 0).picard_rank_of_model == 3

    def test_rank_stays_unknown_when_absent(self):
        assert blow_up(helpers.corner(), at_point(1), 1).picard_rank_of_model is None

    def test_rejects_bad_coefficient(self):
        with pytest.raises(BadCoefficientError):
            blow_up(helpers.corner(), at_point(1), Fraction(3, 2))
        with pytest.raises(BadCoefficientError):
            blow_up(helpers.corner(), at_point(1), -1)

    def test_rejects_a_bool_coefficient(self):
        for coeff in (True, False):
            with pytest.raises(TypeError, match="got bool"):
                blow_up(helpers.corner(), generic_point(), coeff)

    def test_rejects_unknown_targets(self):
        with pytest.raises(UnknownTargetError):
            blow_up(helpers.corner(), at_point(9), 0)
        with pytest.raises(UnknownTargetError):
            blow_up(helpers.corner(), free_point_on(9), 0)
        with pytest.raises(UnknownTargetError, match="unknown target kind 'nowhere'"):
            blow_up(helpers.corner(), BlowUpTarget("nowhere"), 0)

    def test_rejects_an_invalid_configuration(self):
        # Two curves with id 1: tables keyed by id would merge them.
        config = CurveConfig((Curve(1, 0, -1, Fraction(1)), Curve(1, 0, -2, Fraction(0))), ())
        with pytest.raises(InvalidStateError, match="curve id 1 appears twice"):
            blow_up(config, free_point_on(1), 0)

    def test_fresh_ids(self):
        config = helpers.corner_twice()
        assert next_curve_id(config) == 5
        # New points take ids from one above the largest.
        blown = blow_up(config, free_point_on(1), 0)
        assert blown.points[-1].id == 5

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_sequences_stay_valid(self, seed):
        import random

        rng = random.Random(seed)
        config = helpers.corner() if seed % 2 == 0 else helpers.chain()
        for _ in range(6):
            kind = rng.randrange(3)
            if kind == 0 and config.points:
                target = at_point(rng.choice(sorted(p.id for p in config.points)))
            elif kind == 1:
                target = free_point_on(rng.choice(sorted(c.id for c in config.curves)))
            else:
                target = generic_point()
            config = blow_up(config, target, Fraction(rng.randrange(5), 4))
            assert validate_config(config) == ()


class TestComponentsAndGram:
    def test_single_component(self):
        config = helpers.corner_twice()
        assert connected_components(config, [3, 4]) == (frozenset({3, 4}),)

    def test_split_components(self):
        config = helpers.corner_twice()
        assert connected_components(config, [1, 2]) == (
            frozenset({1}),
            frozenset({2}),
        )

    def test_empty(self):
        assert connected_components(helpers.chain(), []) == ()

    def test_unknown_member_raises(self):
        with pytest.raises(UnknownIdError):
            connected_components(helpers.chain(), [9])
        with pytest.raises(UnknownIdError, match="no curve with id 9"):
            factor_blocks(helpers.chain(), frozenset({1, 9}))

    @pytest.mark.parametrize("seed", range(4))
    def test_neighbours_match_raw_counts(self, seed):
        template = (helpers.corner, helpers.boundary_chain)[seed % 2]
        config = generate_crepant_pair(template(), 6 + seed, seed).config
        counts = oracles.crossing_counts(config)
        for c in config.curves:
            expected = {
                o.id: n
                for o in config.curves
                if o.id != c.id and (n := oracles.raw_pairing(config, counts, c.id, o.id))
            }
            assert config.neighbours(c.id) == expected
        # Callers get a copy: changing it leaves the configuration alone.
        config.neighbours(1).clear()
        assert config.neighbours(1)

    def test_gram_matches_pairings(self):
        config = helpers.corner_twice()
        matrix = gram(config, [3, 4])
        assert matrix.rows() == (
            (Fraction(-2), Fraction(1)),
            (Fraction(1), Fraction(-1)),
        )

    def test_gram_rejects_a_repeated_curve(self):
        with pytest.raises(ValueError, match="curve ids must be distinct"):
            gram(helpers.corner_twice(), [1, 1])


def _graph_config(selves, edges):
    """Curves 1..n of genus 0 and coefficient 0 with the given
    self-intersections, and one crossing point per listed pair: a pair
    listed twice is a double contact."""
    return CurveConfig.build(
        [(cid, 0, square, 0) for cid, square in enumerate(selves, 1)],
        list(enumerate(edges, 1)),
    )


@st.composite
def cycle_configs(draw):
    """3 to 7 curves of self-intersection −5..−1 whose crossings close a
    cycle through 3 or more of them, plus up to n random crossings, which
    may repeat a pair."""
    n = draw(st.integers(3, 7))
    length = draw(st.integers(3, n))
    edges = [(i, i % length + 1) for i in range(1, length + 1)]
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges += draw(st.lists(st.sampled_from(pairs), max_size=n))
    return _graph_config(draw(st.lists(st.integers(-5, -1), min_size=n, max_size=n)), edges)


class TestCycles:
    """The one component search on sets with cycles: `connected_components`
    against the raw components, `factor_blocks` against brute-force
    definiteness."""

    @staticmethod
    def _check(config, members):
        components = oracles.raw_components(config, members)
        assert list(connected_components(config, members)) == components
        blocks = factor_blocks(config, members)
        rows = gram(config, sorted(members)).rows()
        assert (blocks is not None) == oracles.brute_negative_definite(rows)
        if blocks is not None:
            assert [frozenset(block.order) for block in blocks] == components

    @pytest.mark.parametrize(
        "selves, edges",
        [
            # A triangle of (−3)-curves: a cusp, definite.
            ([-3, -3, -3], [(1, 2), (2, 3), (3, 1)]),
            # A 4-cycle of (−2)-curves: semi-definite; its proper subsets are chains.
            ([-2, -2, -2, -2], [(1, 2), (2, 3), (3, 4), (4, 1)]),
            ([-3, -2, -3, -2], [(1, 2), (2, 3), (3, 4), (4, 1)]),
            # A triangle with a pendant tree at curve 1.
            ([-3, -3, -3, -2, -2, -2], [(1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (4, 6)]),
            # A triangle beside a tree component.
            ([-3, -3, -3, -2, -2, -2], [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6)]),
            # Double contacts: within a triangle, and on a pendant curve.
            ([-4, -3, -3, -3], [(1, 2), (1, 2), (2, 3), (3, 1), (3, 4), (3, 4)]),
            ([-2, -2], [(1, 2), (1, 2)]),
        ],
    )
    def test_every_subset_of_small_cyclic_configurations(self, selves, edges):
        config = _graph_config(selves, edges)
        ids = [c.id for c in config.curves]
        for size in range(1, len(ids) + 1):
            for subset in itertools.combinations(ids, size):
                self._check(config, frozenset(subset))

    @settings(max_examples=150, deadline=None)
    @given(cycle_configs(), st.data())
    def test_random_cyclic_configurations(self, config, data):
        ids = [c.id for c in config.curves]
        self._check(config, frozenset(ids))
        drawn = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        self._check(config, frozenset(drawn))


class TestSmoothPointBlowdown:
    def test_contracts_exceptional_tower(self):
        sim = smooth_point_blowdown(helpers.corner_twice(), [3, 4])
        assert sim
        assert sim.order == (4, 3)
        final = sim.final
        assert sorted(final.present) == [1, 2]
        assert final.crossings(1, 2) == 1
        assert final.coeff(1) == 1
        assert final.coeff(2) == 1
        assert final.self_intersection(1) == 0
        assert final.self_intersection(2) == 0

    def test_single_minus_one_curve(self):
        config = CurveConfig.build([(1, 0, -1, 0)])
        sim = smooth_point_blowdown(config, [1])
        assert sim and sim.order == (1,)

    def test_no_minus_one_curve(self):
        sim = smooth_point_blowdown(helpers.du_val_a1(), [1])
        assert not sim
        assert sim.reason == "NoMinusOne"

    def test_chain_of_minus_twos_fails(self):
        sim = smooth_point_blowdown(helpers.chain(), [1, 2])
        assert not sim
        assert sim.reason == "NoMinusOne"

    def test_double_crossing_is_rejected(self):
        config = CurveConfig.build(
            [(1, 0, -1, 0), (2, 0, -3, 0)], [(1, [1, 2]), (2, [1, 2])]
        )
        sim = smooth_point_blowdown(config, [1])
        assert not sim
        assert sim.reason == "NonSNCContraction"

    def test_positive_genus_curve_is_no_candidate(self):
        sim = smooth_point_blowdown(
            CurveConfig.build([(1, 1, -1, 0)]), [1]
        )
        assert not sim
        assert sim.reason == "NoMinusOne"

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            smooth_point_blowdown(helpers.chain(), [])

    def test_non_definite_set_rejected(self):
        config = CurveConfig.build([(1, 0, 0, 1)])
        with pytest.raises(ValueError):
            smooth_point_blowdown(config, [1])

    def test_success_implies_unimodular_gram(self):
        from logsurf import determinant

        config = helpers.corner_twice()
        config = blow_up(config, at_point(4), 1)
        for gamma in ([3, 4], [3, 4, 5], [5]):
            if smooth_point_blowdown(config, gamma):
                assert abs(determinant(gram(config, sorted(gamma)))) == 1

    def test_contracting_an_absent_curve_raises(self):
        model = LocalBlowdownModel.from_config(helpers.corner_twice(), [4])
        with pytest.raises(UnknownIdError, match="curve 1 not present in local model"):
            model.contract(1)

    def test_corner_failure_names_the_first_broken_condition(self):
        assert corner_failure(smooth_point_blowdown(helpers.corner_twice(), [3, 4]).final) is None
        lone = smooth_point_blowdown(CurveConfig.build([(1, 0, -1, 0)]), [1]).final
        assert corner_failure(lone) == ("BoundaryNotTwoCurves", "0 curves survive: []")

    def test_unimodularity_postcondition(self):
        def blocks(*selves):
            config = CurveConfig.build([(i, 0, s, 0) for i, s in enumerate(selves, start=1)])
            return factor_blocks(config, frozenset(range(1, len(selves) + 1)))

        require_unimodular([1], blocks(-1))
        with pytest.raises(TheoremViolationError, match="determinant is -2"):
            require_unimodular([1], blocks(-2))
        # The determinant is the product over the blocks.
        require_unimodular([1, 2], blocks(-1, -1))
        with pytest.raises(TheoremViolationError, match="determinant is 2"):
            require_unimodular([1, 2], blocks(-1, -2))

    def test_order_robustness_on_small_sets(self):
        # every eligible-choice order reaches the same verdict as the
        # deterministic lowest-id driver
        cases = [
            (helpers.corner_twice(), [3, 4]),
            (helpers.corner_once(), [3]),
            (helpers.du_val_a1(), [1]),
        ]
        config = helpers.corner_twice()
        config = blow_up(config, at_point(4), 1)  # curve 5 between 3 and 4
        cases.append((config, [3, 4, 5]))
        for cfg, gamma in cases:
            outcomes = oracles.all_contraction_orders(cfg, gamma)
            assert len(outcomes) == 1
            library_ok = bool(smooth_point_blowdown(cfg, gamma))
            assert outcomes == ({"ok"} if library_ok else {"fail"})


class TestSimulatorAgainstDenseOracle:
    """The contraction simulator against `oracles.DenseContraction`.

    On the blow-down checks of decomposed depth-12 towers, the library's
    contraction order is the oracle's lowest-id order, and a check passes
    exactly when the oracle's dense table, contracted along that order and
    then at the curve, leaves a corner.  On the residual-1 components of
    their sub-states, the self-intersections and crossing counts left after
    the library's order are the ones the oracle reaches along it.
    """

    SEEDS = range(8)
    EARLY = {"NotExceptionalOverBase", "CoefficientNotOne", "PositiveGenus"}

    @staticmethod
    def assert_same_model(model, oracle):
        assert set(model.present) == set(oracle.selves)
        for a in oracle.selves:
            assert model.self_intersection(a) == oracle.selves[a]
            for b in oracle.selves:
                if b != a:
                    assert model.crossings(a, b) == oracle.table[(a, b)]

    @staticmethod
    def oracle_corner(config, oracle, cid):
        """Whether the oracle, its adjacent curves contracted, holds `cid` as
        a (−1)-curve meeting two curves once each, and contracting it leaves
        exactly two coefficient-1 curves crossing once."""
        met = [o for o in oracle.selves if o != cid and oracle.table[(cid, o)]]
        if oracle.selves[cid] != -1 or len(met) != 2:
            return False
        if any(oracle.table[(cid, o)] != 1 for o in met):
            return False
        oracle.contract(cid)
        if len(oracle.selves) != 2:
            return False
        a, b = oracle.selves
        coeffs = config.curve(a).boundary_coeff, config.curve(b).boundary_coeff
        return coeffs == (1, 1) and oracle.table[(a, b)] == 1

    @staticmethod
    def tower(seed):
        template = helpers.corner() if seed % 2 == 0 else helpers.boundary_chain()
        return generate_crepant_pair(template, 12, seed)

    def test_blowdown_checks(self):
        compared = passed = 0
        for seed in self.SEEDS:
            spec = self.tower(seed)
            config = spec.config
            trace = decompose_morphism(spec)
            contracted = set(trace.start)
            for step in trace.steps + (None,):
                state = SurfaceState(config, contracted, TargetBase(trace.end))
                counts = oracles.crossing_counts(config)
                for cid in sorted(trace.end - contracted):
                    check = is_log_blowdown(state, cid)
                    if check.reason in self.EARLY:
                        continue
                    adjacent = set().union(*(
                        comp
                        for comp in oracles.raw_components(config, contracted)
                        if any(oracles.raw_pairing(config, counts, cid, m) for m in comp)
                    ))
                    oracle = oracles.DenseContraction(config, adjacent | {cid})
                    order = oracle.lowest_id_order(adjacent)
                    compared += 1
                    if check.reason == "AdjacentSetNotContractible":
                        assert check.order == order and oracle.core & adjacent
                        continue
                    assert not oracle.core & adjacent
                    assert bool(check) is self.oracle_corner(config, oracle, cid)
                    if not check:
                        assert check.order == order
                        continue
                    passed += 1
                    assert check.order == order + (cid,)
                if step is not None:
                    contracted.add(step.curve)
        assert passed >= len(self.SEEDS) and compared > passed

    def test_residual_one_components_of_sub_states(self):
        import random

        compared = 0
        for seed in self.SEEDS:
            spec = self.tower(seed)
            config = spec.config
            ids = sorted(spec.target_contracted)
            rng = random.Random(f"sub-states:{seed}")
            for size in range(1, len(ids) + 1, 2):
                picked = rng.sample(ids, size)
                residual = SurfaceState(config, picked).crepant.residual
                for comp in oracles.raw_components(config, picked):
                    if not any(residual[cid] == 1 for cid in comp):
                        continue
                    sim = smooth_point_blowdown(config, comp)
                    oracle = oracles.DenseContraction(config, comp)
                    assert sim.order == oracle.lowest_id_order(comp)
                    assert sim.ok == (not oracle.core)
                    self.assert_same_model(sim.final, oracle)
                    compared += 1
        assert compared >= 2 * len(self.SEEDS)

    def test_random_cores_and_restrictions(self):
        """Any modelled set, any pool of it: the same order, model and failure."""
        rng = random.Random("cores")
        outcomes = set()
        # A (−1)-curve meeting three curves, and a (−1)-curve meeting a
        # curve twice.
        star = CurveConfig.build(
            [(1, 0, -1, 0), (2, 0, -2, 0), (3, 0, -2, 0), (4, 0, -1, 0)],
            [(1, [1, 2]), (2, [1, 3]), (3, [1, 4])],
        )
        double = CurveConfig.build(
            [(1, 0, -1, 0), (2, 0, -3, 0), (3, 0, -1, 0)],
            [(1, [1, 2]), (2, [1, 2]), (3, [2, 3])],
        )
        configs = [self.tower(seed).config for seed in self.SEEDS] + [star, double] * 4
        for config in configs:
            ids = [c.id for c in config.curves]
            for _ in range(25):
                core = set(rng.sample(ids, rng.randint(1, len(ids))))
                pool = set(rng.sample(sorted(core), rng.randint(0, len(core))))
                if rng.random() < 0.5:
                    pool = core
                model = LocalBlowdownModel.from_config(config, core)
                sim = run_contraction(model, pool)
                oracle = oracles.DenseContraction(config, core)
                assert sim.order == oracle.lowest_id_order(pool)
                self.assert_same_model(sim.final, oracle)
                left = sorted(oracle.core & pool)
                minus_ones = [
                    c for c in left if oracle.genus[c] == 0 and oracle.selves[c] == -1
                ]
                if not left:
                    assert (sim.ok, sim.reason, sim.detail) == (True, None, None)
                elif not minus_ones:
                    assert (sim.ok, sim.reason) == (False, NO_MINUS_ONE)
                    assert sim.detail == f"no contractible (-1)-curve among {left}"
                else:
                    assert (sim.ok, sim.reason) == (False, NON_SNC_CONTRACTION)
                    assert sim.detail.startswith(f"every (-1)-curve in {minus_ones} ")
                outcomes.add(sim.reason)
        assert outcomes == {None, NO_MINUS_ONE, NON_SNC_CONTRACTION}
