"""The two elementary contractions and their certificates and guards."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import logsurf.crepant
import logsurf.moves
from logsurf import (
    Classification,
    ComponentImage,
    CurveConfig,
    FlopCheck,
    InvalidStateError,
    NotABlowdownError,
    NotFloppingError,
    NotLogTerminalError,
    NotNefError,
    NodeCenter,
    PointBase,
    SurfaceState,
    TargetBase,
    TheoremViolationError,
    at_point,
    blow_up,
    classify,
    contract_blowdown,
    contract_flop,
    correction_multiplicities,
    decompose_morphism,
    epsilon_bound,
    free_point_on,
    generate_crepant_pair,
    is_flop_minimal,
    is_log_blowdown,
    is_log_flopping,
    is_nef_on_marked,
    lc_centers,
    log_degree,
    pushforward_self_intersection,
    minimize,
    relative_picard_rank,
)
from logsurf.moves import lowest_flop, lowest_passing
from logsurf.surface import factor_blocks


def tower_state(contracted=(), target=(3, 4)):
    return SurfaceState(helpers.corner_twice(), contracted, TargetBase(target))


class TestIsLogFlopping:
    def test_top_tower_curve_qualifies(self):
        assert is_log_flopping(tower_state(), 4)

    def test_boundary_curve_is_divisorial_center(self):
        check = is_log_flopping(tower_state(), 3)
        assert not check
        assert check.reason == "IsDivisorialCenter"

    def test_du_val_over_point_base(self):
        assert is_log_flopping(SurfaceState(helpers.du_val_a1(), set()), 1)

    def test_curve_surviving_on_target_is_not_exceptional(self):
        state = SurfaceState(helpers.corner_twice(), set(), TargetBase({4}))
        check = is_log_flopping(state, 3)
        assert not check
        assert check.reason == "NotExceptionalOverBase"

    def test_nonzero_log_degree(self):
        check = is_log_flopping(SurfaceState(helpers.elliptic(), set()), 1)
        assert not check
        assert check.reason == "NonzeroLogDegree"

    def test_non_negative_image_square(self):
        config = CurveConfig.build(
            [(1, 0, -2, 1), (2, 0, -2, 1), (3, 0, 0, 0)],
            [(1, [1, 3]), (2, [2, 3])],
        )
        check = is_log_flopping(SurfaceState(config, set()), 3)
        assert not check
        assert check.reason == "ImageNotNegative"

    def test_coefficient_one_is_tested_before_the_image(self, monkeypatch):
        # Curve 3 has coefficient 1, log degree −2 + 1 + 1 = 0 and image
        # square 0: its own coefficient fails it before λ is solved.
        config = CurveConfig.build(
            [(1, 0, -2, 1), (2, 0, -2, 1), (3, 0, 0, 1)],
            [(1, [1, 3]), (2, [2, 3])],
        )
        state = SurfaceState(config, set())
        assert log_degree(state, 3) == 0
        assert pushforward_self_intersection(state, 3) == 0
        solved = []
        real = logsurf.moves.correction_multiplicities

        def counting(state, cid):
            solved.append(cid)
            return real(state, cid)

        monkeypatch.setattr(logsurf.moves, "correction_multiplicities", counting)
        check = is_log_flopping(state, 3)
        assert not check
        assert check.reason == "IsDivisorialCenter"
        assert solved == []
        assert is_log_flopping(SurfaceState(helpers.du_val_a1(), set()), 1)
        assert solved == [1]

    def test_requires_log_terminal_state(self):
        config = CurveConfig.build([(1, 1, -1, 0), (2, 0, -2, 0)])
        with pytest.raises(NotLogTerminalError):
            is_log_flopping(SurfaceState(config, {1}), 2)

    def test_rejects_contracted_curve(self):
        with pytest.raises(InvalidStateError):
            is_log_flopping(tower_state({4}), 4)

    def test_passed_check_carries_its_multiplicities(self):
        state = SurfaceState(helpers.chain(), {1}, TargetBase({1, 2}))
        check = is_log_flopping(state, 2)
        assert check
        assert (check.state, check.curve) == (state, 2)
        assert check.multiplicities == correction_multiplicities(state, 2)
        assert check.multiplicities == {1: Fraction(1, 2)}


def scanned_flop_verdict(state, cid, image_test=True):
    """The flop check's (reason, detail) with its centre test scanning every
    non-klt centre of `lc_centers` in order, node centres included; without
    `image_test`, every image is taken to be negative."""
    config = state.config
    if isinstance(state.base, TargetBase) and cid not in state.base.contracted_on_target:
        return "NotExceptionalOverBase", f"curve {cid} survives on the target model"
    degree = log_degree(state, cid)
    if degree != 0:
        return "NonzeroLogDegree", f"log degree is {degree}, not 0"
    if config.curve(cid).boundary_coeff == 1:
        return "IsDivisorialCenter", f"curve {cid} has coefficient 1"
    image_self = pushforward_self_intersection(state, cid)
    if image_test and image_self >= 0:
        return "ImageNotNegative", f"image self-intersection is {image_self} ≥ 0"
    for center in lc_centers(state):
        if isinstance(center, NodeCenter) and cid in center.curves:
            return "MeetsNodeCenter", f"curve {cid} passes through corner point {center.point}"
        if isinstance(center, ComponentImage) and any(
            config.neighbours(cid).get(j) for j in center.component
        ):
            return (
                "MeetsComponentImage",
                f"curve {cid} meets contracted component {sorted(center.component)} "
                "whose image is a non-klt point",
            )
    return None, None


def _tower_sub_state(template, depth, seed, pick, over_target):
    """A sub-state of a crepant tower: the curves `pick` keeps of its
    target set, over a point or over the target."""
    spec = generate_crepant_pair(template(), depth, seed)
    target = spec.target_contracted
    base = TargetBase(target) if over_target else PointBase()
    return SurfaceState(spec.config, pick(sorted(target)), base)


def _flop_verdicts_agree(state, image_test=True):
    """Assert every uncontracted curve's flop verdict equals the scanned
    reference, and return the reasons.

    The centre test never fails at a log-terminal state: a curve of
    coefficient below 1 that meets a component with a residual-1 curve
    survives beside that component's corner, so the component fails the
    corner test and the state is only log canonical.  A state that is not
    log terminal is therefore let past the predicate's log-terminality
    requirement, so that the centre test itself is compared."""
    if state.classification < Classification.LOG_TERMINAL:
        state.__dict__["classification"] = Classification.LOG_TERMINAL
    reasons = []
    for cid in state.uncontracted:
        check = is_log_flopping(state, cid)
        expected = scanned_flop_verdict(state, cid, image_test)
        assert (check.reason, check.detail) == expected, cid
        assert bool(check) is (check.reason is None)
        reasons.append(check.reason)
    return reasons


class TestFlopCentres:
    """The flop predicate's centre test, which reads only the contracted
    components the curve meets, against a scan of every non-klt centre."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([helpers.corner, helpers.boundary_chain]),
        st.integers(1, 12),
        st.integers(0, 10**6),
        st.randoms(use_true_random=False),
        st.booleans(),
    )
    def test_same_reason_and_detail_as_scanning_every_centre(
        self, template, depth, seed, rng, over_target
    ):
        def pick(ids):
            return rng.sample(ids, rng.randint(0, len(ids)))

        _flop_verdicts_agree(_tower_sub_state(template, depth, seed, pick, over_target))

    def test_the_sub_states_reach_the_centre_test_beside_both_kinds_of_centre(self):
        rng = random.Random(17)
        beside = {NodeCenter: 0, ComponentImage: 0}
        reasons = []
        for seed in range(60):
            state = _tower_sub_state(
                (helpers.corner, helpers.boundary_chain)[seed % 2],
                rng.randint(4, 12),
                seed,
                lambda ids: rng.sample(ids, rng.randint(0, len(ids))),
                seed % 3 == 0,
            )
            centers = lc_centers(state)
            verdicts = _flop_verdicts_agree(state)
            reasons += verdicts
            for reason in verdicts:
                if reason in (None, "MeetsComponentImage"):
                    for kind in beside:
                        beside[kind] += any(isinstance(c, kind) for c in centers)
        assert beside[NodeCenter] > 10 and beside[ComponentImage] > 10, beside
        assert reasons.count("MeetsComponentImage") > 10 and None in reasons

    def test_the_least_of_several_met_images_is_reported(self, monkeypatch):
        # Curve 5 (coefficient 0, self-intersection 0) meets the contracted
        # (−2)-curves 4 and 3, each of residual 1 between two coefficient-1
        # curves; 1 and 6 cross at a node centre.  Its log degree is
        # −2 + 1 + 1 = 0, but its image is positive: no such curve with a
        # negative image meets two images, so the image is taken to be
        # negative here, in the predicate and in the reference alike.
        config = CurveConfig.build(
            [(1, 0, 0, 1), (2, 0, 0, 1), (3, 0, -2, 0), (4, 0, -2, 0),
             (5, 0, 0, 0), (6, 0, 0, 1), (7, 0, 0, 1)],
            [(1, [5, 4]), (2, [5, 3]), (3, [1, 3]), (4, [2, 3]),
             (5, [6, 4]), (6, [7, 4]), (7, [1, 6])],
        )
        state = SurfaceState(config, {3, 4})
        assert state.crepant.ones >= {3, 4}
        assert any(isinstance(c, NodeCenter) for c in lc_centers(state))
        monkeypatch.setattr(logsurf.moves, "image_self_intersection", lambda *_: Fraction(-1))
        reasons = _flop_verdicts_agree(state, image_test=False)
        assert reasons[state.uncontracted.index(5)] == "MeetsComponentImage"
        check = is_log_flopping(state, 5)
        assert check.detail == (
            "curve 5 meets contracted component [3] whose image is a non-klt point"
        )


class TestEpsilonBound:
    def test_plain_du_val(self):
        eps = epsilon_bound(is_log_flopping(SurfaceState(helpers.du_val_a1(), set()), 1))
        assert (eps.supremum, eps.chosen) == (1, Fraction(1, 2))

    def test_tower_top(self):
        eps = epsilon_bound(is_log_flopping(tower_state(), 4))
        assert (eps.supremum, eps.chosen) == (1, Fraction(1, 2))

    def test_contracted_curve_constraint(self):
        state = SurfaceState(helpers.chain(), {1}, TargetBase({1, 2}))
        eps = epsilon_bound(is_log_flopping(state, 2))
        assert (eps.supremum, eps.chosen) == (1, Fraction(1, 2))

    def test_rejects_non_flop(self):
        with pytest.raises(NotFloppingError):
            epsilon_bound(is_log_flopping(SurfaceState(helpers.elliptic(), set()), 1))

    @pytest.mark.parametrize(
        "config, contracted, cid",
        [
            (helpers.du_val_a1(), frozenset(), 1),
            (helpers.corner_twice(), frozenset(), 4),
            (helpers.chain(), frozenset({1}), 2),
        ],
    )
    def test_perturbation_identity(self, config, contracted, cid):
        state = SurfaceState(config, contracted, TargetBase(contracted | {cid}))
        eps = epsilon_bound(is_log_flopping(state, cid))
        assert eps.supremum is None or eps.supremum > 0
        image_square = pushforward_self_intersection(state, cid)
        old = config.curve(cid)
        perturbed = CurveConfig(
            tuple(
                c
                if c.id != cid
                else type(c)(c.id, c.genus, c.self_intersection, old.boundary_coeff + eps.chosen)
                for c in config.curves
            ),
            config.points,
            config.picard_rank_of_model,
        )
        new_state = SurfaceState(perturbed, contracted, state.base)
        assert new_state.classification >= Classification.LOG_TERMINAL
        assert log_degree(new_state, cid) == eps.chosen * image_square
        assert log_degree(new_state, cid) < 0


class TestContractFlop:
    def test_tower_top(self):
        new = contract_flop(is_log_flopping(tower_state(), 4))
        assert new.contracted == frozenset({4})
        assert new.crepant.discrepancies == {4: 0}

    def test_du_val(self):
        new = contract_flop(is_log_flopping(SurfaceState(helpers.du_val_a1(), set()), 1))
        assert new.contracted == frozenset({1})
        assert classify(new) is Classification.KLT

    def test_chain_second_step(self):
        state = SurfaceState(helpers.chain(), {1}, TargetBase({1, 2}))
        new = contract_flop(is_log_flopping(state, 2))
        assert new.crepant.discrepancies == {1: 0, 2: 0}

    def test_rejects_divisorial_center(self):
        with pytest.raises(NotFloppingError):
            contract_flop(is_log_flopping(tower_state(), 3))

    def test_keeps_residuals(self):
        state = tower_state()
        new = contract_flop(is_log_flopping(state, 4))
        assert new.crepant.residual == state.crepant.residual

    @pytest.mark.parametrize(
        "config, contracted, cid, degree",
        [
            (helpers.one_curve(0, -1, 0), (), 1, -1),
            # A (−2)-curve and a (−3)-curve crossing once.
            (CurveConfig.build([(1, 0, -2, 0), (2, 0, -3, 0)], [(1, [1, 2])]), (1,), 2, 1),
        ],
    )
    def test_forged_check_of_nonzero_log_degree_is_not_crepant(
        self, config, contracted, cid, degree
    ):
        state = SurfaceState(config, contracted)
        assert log_degree(state, cid) == degree
        forged = FlopCheck(state, cid, True, None, None, {})
        with pytest.raises(TheoremViolationError, match="not log crepant"):
            contract_flop(forged)

    def test_an_invalid_successor_is_a_theorem_violation(self, monkeypatch):
        check = is_log_flopping(tower_state(), 4)
        assert check
        monkeypatch.setattr(logsurf.crepant, "grow_block", lambda config, met, cid: None)
        with pytest.raises(TheoremViolationError) as raised:
            contract_flop(check)
        assert str(raised.value) == (
            "flop contraction of curve 4 produced an invalid state: gram matrix of [4] "
            "is not negative definite; the set is not contractible"
        )


class TestPicardRank:
    def test_relative_to_target(self):
        assert relative_picard_rank(tower_state()).value == 2
        rank = relative_picard_rank(tower_state({4}))
        assert (rank.value, rank.mode) == (1, "relative-to-target")

    def test_of_model_over_point(self):
        config = CurveConfig.build(
            [(1, 0, 0, 1), (2, 0, 0, 1)], [(1, [1, 2])], picard_rank_of_model=2
        )
        config = blow_up(config, at_point(1), 1)
        config = blow_up(config, free_point_on(3), 0)
        assert config.picard_rank_of_model == 4
        rank = relative_picard_rank(SurfaceState(config, {4}))
        assert (rank.value, rank.mode) == (3, "of-model-over-point")
        assert rank.step_delta() == -1

    def test_deficit_mode(self):
        rank = relative_picard_rank(SurfaceState(helpers.corner_twice(), {4}))
        assert (rank.value, rank.mode) == (1, "deficit-from-master-model")
        assert rank.step_delta() == 1


class TestNef:
    def test_elliptic_over_point(self):
        report = is_nef_on_marked(SurfaceState(helpers.elliptic(), set()))
        assert report
        assert report.complete is False

    def test_corner_fails_over_point(self):
        report = is_nef_on_marked(SurfaceState(helpers.corner(), set()))
        assert not report
        assert report.failing == ((1, Fraction(-1)), (2, Fraction(-1)))

    def test_tower_over_target(self):
        report = is_nef_on_marked(tower_state())
        assert report
        assert report.complete is True


class TestFlopMinimal:
    def test_tower_start_is_not_minimal(self):
        assert is_flop_minimal(tower_state()) is False

    def test_after_the_flop_it_is(self):
        assert is_flop_minimal(tower_state({4})) is True

    def test_elliptic_is_minimal(self):
        assert is_flop_minimal(SurfaceState(helpers.elliptic(), set())) is True

    def test_requires_nef(self):
        with pytest.raises(NotNefError):
            is_flop_minimal(SurfaceState(helpers.corner(), set()))

    def test_requires_log_terminal(self):
        with pytest.raises(NotLogTerminalError):
            is_flop_minimal(SurfaceState(helpers.elliptic(), {1}))


class TestIsLogBlowdown:
    def test_after_flop_the_middle_curve_blows_down(self):
        check = is_log_blowdown(tower_state({4}), 3)
        assert check
        assert check.order == (4, 3)

    def test_blocked_while_tower_uncontracted(self):
        check = is_log_blowdown(tower_state(), 3)
        assert not check
        assert check.reason == "ImageNotMinusOne"

    def test_plain_exceptional_curve(self):
        check = is_log_blowdown(SurfaceState(helpers.corner_once(), set()), 3)
        assert check
        assert check.order == (3,)

    def test_coefficient_below_one(self):
        check = is_log_blowdown(SurfaceState(helpers.du_val_a1(), set()), 1)
        assert not check
        assert check.reason == "CoefficientNotOne"

    def test_positive_genus(self):
        config = CurveConfig.build([(1, 1, -1, 1)])
        check = is_log_blowdown(SurfaceState(config, set()), 1)
        assert not check
        assert check.reason == "PositiveGenus"

    def test_single_boundary_partner(self):
        config = CurveConfig.build(
            [(1, 0, 0, 1), (2, 0, -1, 1)], [(1, [1, 2])]
        )
        check = is_log_blowdown(SurfaceState(config, set()), 2)
        assert not check
        assert check.reason == "BoundaryNotTwoCurves"

    def test_double_contact_rejected(self):
        config = CurveConfig.build(
            [(1, 0, 0, 1), (2, 0, 0, 1), (3, 0, -1, 1)],
            [(1, [1, 3]), (2, [1, 3]), (3, [2, 3])],
        )
        check = is_log_blowdown(SurfaceState(config, set()), 3)
        assert not check
        assert check.reason == "NonTransverseContact"

    def test_partner_coefficient_below_one(self):
        config = CurveConfig.build(
            [(1, 0, 0, 1), (2, 0, 0, Fraction(1, 2)), (3, 0, -1, 1)],
            [(1, [1, 3]), (2, [2, 3])],
        )
        check = is_log_blowdown(SurfaceState(config, set()), 3)
        assert not check
        assert check.reason == "BoundaryCoefficientBelowOne"

    def test_pre_existing_crossing_rejected(self):
        config = CurveConfig.build(
            [(1, 0, 0, 1), (2, 0, 0, 1), (3, 0, -1, 1)],
            [(1, [1, 2]), (2, [1, 3]), (3, [2, 3])],
        )
        check = is_log_blowdown(SurfaceState(config, set()), 3)
        assert not check
        assert check.reason == "NoCornerAtImage"

    def test_curve_surviving_on_target_is_not_exceptional(self):
        state = SurfaceState(helpers.corner_once(), set(), TargetBase(set()))
        check = is_log_blowdown(state, 3)
        assert not check
        assert check.reason == "NotExceptionalOverBase"

    def test_uncontractible_neighbour_component(self):
        config = CurveConfig.build(
            [(1, 0, -2, 0), (2, 0, -1, 1)], [(1, [1, 2])]
        )
        check = is_log_blowdown(SurfaceState(config, {1}), 2)
        assert not check
        assert check.reason == "AdjacentSetNotContractible"

    def test_memoised_failures_equal_fresh_verdicts_along_runs(self, monkeypatch):
        # At every state of a decomposition, then at random contractible
        # sub-states, each curve still to contract is tested on the run's
        # configuration, whose memo holds the failures found so far, and on
        # a fresh copy of it.
        rng = random.Random(11)
        run_tests = []
        real = logsurf.moves._local_blowdown

        def counting(state, cid, *args):
            run_tests.append(state.config)
            return real(state, cid, *args)

        monkeypatch.setattr(logsurf.moves, "_local_blowdown", counting)
        for template in (helpers.corner, helpers.boundary_chain):
            for seed in range(3):
                spec = generate_crepant_pair(template(), 10, seed)
                config = spec.config
                trace = decompose_morphism(spec)
                run_tests.clear()
                asked = 0
                states = [SurfaceState(config, spec.source_contracted, trace.base)]
                for step in trace.steps:
                    states.append(states[-1].successor(step.curve))
                target = sorted(spec.target_contracted)
                for _ in range(30):
                    state = SurfaceState(config, rng.sample(target, rng.randint(0, len(target))))
                    if factor_blocks(config, state.contracted) is not None:
                        states.append(state)
                for state in states:
                    for cid in sorted(spec.target_contracted - state.contracted):
                        check = is_log_blowdown(state, cid)
                        copy = CurveConfig(config.curves, config.points)
                        fresh = is_log_blowdown(
                            SurfaceState(copy, state.contracted, state.base), cid
                        )
                        assert (check.ok, check.reason, check.detail, check.order) == (
                            fresh.ok, fresh.reason, fresh.detail, fresh.order
                        )
                        asked += 1
                # The memo holds failures only, and answered for the run's
                # configuration some of the local tests each copy ran.
                memo = config._blowdown_memo
                assert memo and all(reason for reason, _, _ in memo.values())
                on_run = sum(tested is config for tested in run_tests)
                assert on_run < len(run_tests) - on_run
                assert asked > 10

    def test_round_trip_with_corner_blow_up(self):
        for state, cid in [
            (tower_state({4}), 3),
            (SurfaceState(helpers.corner_once(), set()), 3),
        ]:
            check = is_log_blowdown(state, cid)
            assert check
            before, after = check.local_before, check.local_after
            a, b = before.partners(cid)
            assert before.self_intersection(cid) == -1
            assert before.crossings(cid, a) == 1
            assert before.crossings(cid, b) == 1
            assert before.crossings(a, b) == after.crossings(a, b) - 1
            assert before.self_intersection(a) == after.self_intersection(a) - 1
            assert before.self_intersection(b) == after.self_intersection(b) - 1
            assert after.crossings(a, b) == 1
            assert after.coeff(a) == 1 and after.coeff(b) == 1


class TestContractBlowdown:
    def test_finishes_the_tower(self):
        new = contract_blowdown(is_log_blowdown(tower_state({4}), 3))
        assert new.contracted == frozenset({3, 4})
        assert classify(new) is Classification.LOG_TERMINAL

    def test_recovers_the_corner(self):
        new = contract_blowdown(is_log_blowdown(SurfaceState(helpers.corner_once(), set()), 3))
        assert new.contracted == frozenset({3})

    def test_rejects_non_blowdown(self):
        with pytest.raises(NotABlowdownError):
            contract_blowdown(is_log_blowdown(SurfaceState(helpers.du_val_a1(), set()), 1))

    def test_rejects_curve_surviving_on_target(self):
        config = helpers.corner_once()
        state = SurfaceState(config, set(), TargetBase(set()))
        with pytest.raises(NotABlowdownError):
            contract_blowdown(is_log_blowdown(state, 3))


def bare_chain(bs) -> CurveConfig:
    """Rational curves 1..r of self-intersection −b_i and coefficient 0 in a chain."""
    curves = [(i, 0, -b, 0) for i, b in enumerate(bs, start=1)]
    return CurveConfig.build(curves, [(i, [i, i + 1]) for i in range(1, len(bs))])


def _verdict(check):
    if check is None:
        return None
    return check.curve, check.ok, check.reason, check.detail, check.multiplicities


class TestLowestFlop:
    """`lowest_flop` skips curves of known non-zero log degree and otherwise
    answers as testing every curve does."""

    CHAINS = [
        [2, 3, 2, 2, 4, 2, 5],
        [3, 2, 2, 2, 2, 6, 2, 3, 2, 2, 4, 2],
        [2] * 12,
    ]

    def test_same_checks_as_testing_every_curve(self, monkeypatch):
        tested, rejected = [], []
        real = logsurf.moves.is_log_flopping

        def recording(state, cid):
            check = real(state, cid)
            tested.append(check.reason)
            return check

        def every_curve(state, cid):
            check = real(state, cid)
            rejected.append(check.reason)
            return check

        monkeypatch.setattr(logsurf.moves, "is_log_flopping", recording)
        for bs in self.CHAINS:
            config = bare_chain(bs)
            trace = minimize(SurfaceState(config, set()))
            assert trace.steps
            # Along the run, on the run's shared solutions, against every
            # curve tested on a fresh copy.
            state = SurfaceState(config, set())
            reference = SurfaceState(
                CurveConfig(config.curves, config.points, config.picard_rank_of_model), set()
            )
            for step in trace.steps:
                expected = _verdict(lowest_passing(reference, every_curve))
                assert _verdict(lowest_flop(state)) == expected
                state, reference = state.successor(step.curve), reference.successor(step.curve)
            assert lowest_flop(state) is None is lowest_passing(reference, every_curve)
        # The nef check after each step has found every log degree, so no
        # curve is tested only to be rejected for it.
        assert tested and "NonzeroLogDegree" not in tested
        assert rejected.count("NonzeroLogDegree") > 20

    def test_not_log_terminal_is_raised_with_every_degree_known(self):
        # A contracted (−1)-curve of genus 1 has residual 1 and no corner.
        config = CurveConfig.build([(1, 1, -1, 0), (2, 0, -2, 0)], [(1, [1, 2])])
        state = SurfaceState(config, {1})
        assert state.classification is Classification.LOG_CANONICAL
        assert log_degree(state, 2) == 1
        with pytest.raises(NotLogTerminalError):
            lowest_flop(state)
        with pytest.raises(NotLogTerminalError):
            lowest_passing(state, is_log_flopping)

    def test_empty_scope_and_invalid_states(self):
        state = SurfaceState(helpers.elliptic(), {1})
        assert state.classification is Classification.LOG_CANONICAL
        assert lowest_flop(state) is None is lowest_passing(state, is_log_flopping)
        for find in (lowest_flop, lambda s: lowest_passing(s, is_log_flopping)):
            with pytest.raises(InvalidStateError):
                find(SurfaceState(helpers.corner(), {1}))
