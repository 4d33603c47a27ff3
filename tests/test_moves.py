"""The two elementary contractions and their certificates and guards."""

from fractions import Fraction
import hashlib
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import helpers
import oracles
import logsurf.crepant
import logsurf.moves
from logsurf import (
    Classification,
    ComponentImage,
    CurveConfig,
    FlopCheck,
    InvalidStateError,
    LogSurfaceError,
    NotABlowdownError,
    NotFloppingError,
    NotLogTerminalError,
    NotNefError,
    NotNestedError,
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
from logsurf.crepant import survives_on_target
from logsurf.moves import lowest_blowdown, lowest_flop
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


def scanned_flop_verdict(state, cid):
    """The flop check's (reason, detail) with a last test scanning every
    non-klt centre of `lc_centers` in order, node centres included."""
    config = state.config
    if isinstance(state.base, TargetBase) and cid not in state.base.contracted_on_target:
        return "NotExceptionalOverBase", f"curve {cid} survives on the target model"
    degree = log_degree(state, cid)
    if degree != 0:
        return "NonzeroLogDegree", f"log degree is {degree}, not 0"
    if config.curve(cid).boundary_coeff == 1:
        return "IsDivisorialCenter", f"curve {cid} has coefficient 1"
    image_self = pushforward_self_intersection(state, cid)
    if image_self >= 0:
        return "ImageNotNegative", f"image self-intersection is {image_self} ≥ 0"
    counts = oracles.crossing_counts(config)
    for center in lc_centers(state):
        if isinstance(center, NodeCenter) and cid in center.curves:
            return "MeetsNodeCenter", f"curve {cid} passes through corner point {center.point}"
        if isinstance(center, ComponentImage) and any(
            oracles.raw_pairing(config, counts, cid, j) for j in center.component
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


def _flop_verdicts_agree(state):
    """Assert every uncontracted curve's flop verdict at a log-terminal state
    equals the reference that also scans every non-klt centre, which never
    fails a curve for meeting one; return the reasons.

    A curve of coefficient below 1 meeting a contracted component that
    holds a residual-1 curve would survive beside that component's corner,
    so the state would be only log canonical."""
    assert state.classification >= Classification.LOG_TERMINAL
    reasons = []
    for cid in state.uncontracted:
        check = is_log_flopping(state, cid)
        expected = scanned_flop_verdict(state, cid)
        assert expected[0] not in ("MeetsNodeCenter", "MeetsComponentImage"), cid
        assert (check.reason, check.detail) == expected, cid
        assert bool(check) is (check.reason is None)
        reasons.append(check.reason)
    return reasons


class TestNotExceptional:
    @pytest.mark.parametrize("target", [True, False])
    def test_a_successor_and_both_predicates_refuse_the_same_curves(self, target):
        # One test, `survives_on_target`, decides all three.
        spec = generate_crepant_pair(helpers.corner(), 8, 5)
        base = TargetBase(spec.target_contracted) if target else PointBase()
        state = SurfaceState(spec.config, set(), base)
        outside = set(state.uncontracted) - spec.target_contracted
        assert outside
        for cid in state.uncontracted:
            survives = survives_on_target(state, cid)
            assert survives is (target and cid in outside)
            try:
                state.successor(cid)
                refused = False
            except NotNestedError:
                refused = True
            assert refused is survives
            for predicate in (is_log_flopping, is_log_blowdown):
                assert (predicate(state, cid).reason == "NotExceptionalOverBase") is survives


class TestFlopCentres:
    """At a log-terminal state no curve the flop predicate can pass meets a
    non-klt centre: the predicate, which tests none, agrees with a scan of
    every centre."""

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

        state = _tower_sub_state(template, depth, seed, pick, over_target)
        assume(state.classification >= Classification.LOG_TERMINAL)
        _flop_verdicts_agree(state)

    def test_flops_pass_beside_both_kinds_of_centre(self):
        rng = random.Random(17)
        beside = {NodeCenter: 0, ComponentImage: 0}
        for seed in range(60):
            state = _tower_sub_state(
                (helpers.corner, helpers.boundary_chain)[seed % 2],
                rng.randint(4, 12),
                seed,
                lambda ids: rng.sample(ids, rng.randint(0, len(ids))),
                seed % 3 == 0,
            )
            if state.classification < Classification.LOG_TERMINAL:
                continue
            centers = lc_centers(state)
            for reason in _flop_verdicts_agree(state):
                if reason is None:
                    for kind in beside:
                        beside[kind] += any(isinstance(c, kind) for c in centers)
        assert beside[NodeCenter] > 10 and beside[ComponentImage] > 10, beside


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
        assert eps.supremum > 0
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

    @staticmethod
    def _headroom_binds(check):
        """Compare the bound of a passed check with min((1 − e_j)/λ_j, 1 − d)
        over the oracle's whole-set solves; True when a contracted curve's
        headroom, not the coefficient cap, is the least."""
        state, cid = check.state, check.curve
        config, contracted = state.config, state.contracted
        eps = epsilon_bound(check)
        residual = oracles.raw_residuals(config, contracted)
        lam = oracles.raw_multiplicities(config, contracted, cid)
        assert (eps.supremum, eps.chosen) == oracles.raw_epsilon_bound(config, residual, lam, cid)
        return eps.supremum < 1 - config.curve(cid).boundary_coeff

    def test_a_contracted_curve_headroom_binds(self):
        # Tower coefficients are 0 or 1, so there the cap always binds.
        config = CurveConfig.build(
            [
                (1, 0, -1, Fraction(1, 2)),
                (2, 0, -4, Fraction(3, 4)),
                (3, 0, -2, Fraction(3, 4)),
                (4, 0, -2, Fraction(1, 4)),
                (5, 0, -1, Fraction(3, 4)),
            ],
            [(1, [2, 1]), (2, [3, 1]), (3, [4, 1]), (4, [5, 2])],
        )
        check = is_log_flopping(SurfaceState(config, {1, 2, 5}), 4)
        assert check
        eps = epsilon_bound(check)
        # (1 − e_1)/λ_1 = (1/2)/(3/2), below the cap 1 − 1/4.
        assert (eps.supremum, eps.chosen) == (Fraction(1, 3), Fraction(1, 6))
        assert self._headroom_binds(check)

    def test_seeded_trees_against_the_oracle(self):
        rng = random.Random(7)
        coeffs = [Fraction(k, 4) for k in range(4)]
        passed = binding = 0
        for _ in range(3000):
            n = rng.randint(3, 6)
            config = CurveConfig.build(
                [(i, 0, rng.randint(-4, -1), rng.choice(coeffs)) for i in range(1, n + 1)],
                [(i - 1, [i, rng.randint(1, i - 1)]) for i in range(2, n + 1)],
            )
            state = SurfaceState(config, rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
            try:
                if state.classification < Classification.LOG_TERMINAL:
                    continue
            except LogSurfaceError:
                continue
            for cid in state.uncontracted:
                check = is_log_flopping(state, cid)
                if check:
                    passed += 1
                    binding += self._headroom_binds(check)
        assert passed > 200 and binding >= 5, (passed, binding)


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
        forged = FlopCheck(state, cid, None, None, {})
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

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_a_rank_below_one_plus_the_contracted_set_is_refused(self, rank):
        # Two contractible curves and an ample class are independent, so the
        # model's Picard rank is at least 3.
        config = CurveConfig.build(
            [(1, 0, -2, 0), (2, 0, -2, 0)], [(1, [1, 2])], picard_rank_of_model=rank
        )
        assert not config._violations
        message = rf"^picard_rank_of_model {rank} is below 1 \+ 2 = 3$"
        with pytest.raises(InvalidStateError, match=message):
            relative_picard_rank(SurfaceState(config, {1, 2}))
        least = CurveConfig(config.curves, config.points, 3)
        reported = relative_picard_rank(SurfaceState(least, {1, 2}))
        assert (reported.value, reported.mode) == (1, "of-model-over-point")

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

    def test_memoised_outcomes_equal_fresh_verdicts_along_runs(self, monkeypatch):
        # At every state of a decomposition, then at random contractible
        # sub-states, each curve still to contract is tested on the run's
        # configuration, whose memo holds the outcomes found so far, and on
        # a fresh copy of it.
        rng = random.Random(11)
        run_tests = []
        real = logsurf.moves._local_blowdown

        def counting(config, cid, met):
            run_tests.append(config)
            return real(config, cid, met)

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
                        assert (bool(check), check.reason, check.detail, check.order) == (
                            bool(fresh), fresh.reason, fresh.detail, fresh.order
                        )
                        asked += 1
                # The memo holds passes and failures, each equal to the
                # outcome a fresh copy computes, and answered for the run's
                # configuration some of the local tests each copy ran.
                memo = config._blowdown_memo
                assert {reason is None for reason, _, _ in memo.values()} == {True, False}
                for (cid, *met), outcome in memo.items():
                    copy = CurveConfig(config.curves, config.points)
                    blocks = [factor_blocks(copy, block.curves)[0] for block in met]
                    assert real(copy, cid, blocks) == outcome
                on_run = sum(tested is config for tested in run_tests)
                assert on_run < len(run_tests) - on_run
                assert asked > 10

    def test_round_trip_with_corner_blow_up(self):
        # The dense oracle contracts the met curves in the check's order,
        # leaving the curve a (−1)-curve on two coefficient-1 curves a and b;
        # contracting it leaves a and b crossing once, each square one up.
        for state, cid in [
            (tower_state({4}), 3),
            (SurfaceState(helpers.corner_once(), set()), 3),
        ]:
            check = is_log_blowdown(state, cid)
            assert check
            oracle = oracles.DenseContraction(state.config, state.contracted | {cid})
            assert oracle.lowest_id_order(state.contracted) + (cid,) == check.order
            a, b = (o for o in oracle.selves if o != cid and oracle.table[(cid, o)])
            assert oracle.selves[cid] == -1
            assert oracle.table[(cid, a)] == oracle.table[(cid, b)] == 1
            before = oracle.table[(a, b)], oracle.selves[a], oracle.selves[b]
            oracle.contract(cid)
            assert set(oracle.selves) == {a, b}
            assert (oracle.table[(a, b)], oracle.selves[a], oracle.selves[b]) == (
                before[0] + 1, before[1] + 1, before[2] + 1
            )
            assert oracle.table[(a, b)] == 1
            assert state.config.curve(a).boundary_coeff == state.config.curve(b).boundary_coeff == 1


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
    return check.curve, bool(check), check.reason, check.detail, check.multiplicities


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
            # Along the run from its own start state, on the run's shared
            # solution, against every curve tested on a fresh copy.
            state = SurfaceState(config, set())
            trace = minimize(state)
            assert trace.steps
            reference = SurfaceState(
                CurveConfig(config.curves, config.points, config.picard_rank_of_model), set()
            )
            for step in trace.steps:
                expected = _verdict(oracles.lowest_passing(reference, every_curve))
                assert _verdict(lowest_flop(state)) == expected
                state, reference = state.successor(step.curve), reference.successor(step.curve)
            assert lowest_flop(state) is None is oracles.lowest_passing(reference, every_curve)
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
            oracles.lowest_passing(state, is_log_flopping)

    def test_empty_scope_and_invalid_states(self):
        state = SurfaceState(helpers.elliptic(), {1})
        assert state.classification is Classification.LOG_CANONICAL
        assert lowest_flop(state) is None is oracles.lowest_passing(state, is_log_flopping)
        for find in (lowest_flop, lambda s: oracles.lowest_passing(s, is_log_flopping)):
            with pytest.raises(InvalidStateError):
                find(SurfaceState(helpers.corner(), {1}))


def _blowdown_verdict(check):
    if check is None:
        return None
    return check.curve, bool(check), check.reason, check.detail, check.order


class TestLowestBlowdown:
    """`lowest_blowdown` answers as the reference scan of every curve."""

    def test_same_check_as_testing_every_curve(self):
        rng = random.Random(3)
        found = set()
        for template in (helpers.corner, helpers.boundary_chain):
            for seed in range(3):
                spec = generate_crepant_pair(template(), 12, seed)
                config = spec.config
                target = sorted(spec.target_contracted)
                trace = decompose_morphism(spec)
                # Along the run, on its memo, then at random sub-states over
                # both bases; the reference scans a fresh copy.
                state = SurfaceState(config, trace.start, trace.base)
                states = [state]
                for step in trace.steps:
                    state = state.successor(step.curve)
                    states.append(state)
                for _ in range(20):
                    contracted = rng.sample(target, rng.randint(0, len(target)))
                    for base in (PointBase(), TargetBase(target)):
                        states.append(SurfaceState(config, contracted, base))
                for state in states:
                    copy = CurveConfig(config.curves, config.points)
                    reference = SurfaceState(copy, state.contracted, state.base)
                    expected = _blowdown_verdict(oracles.lowest_passing(reference, is_log_blowdown))
                    assert _blowdown_verdict(lowest_blowdown(state)) == expected
                    found.add(expected is not None)
        # Both a pass and no pass occur.
        assert found == {True, False}


def _outcome(predicate, state, cid):
    """The check's verdict, or the raised exception's class and message."""
    try:
        return predicate(state, cid)
    except LogSurfaceError as exc:
        return type(exc).__name__, str(exc)


class TestGoldenChecks:
    """Every move check on seeded tower sub-states, pinned by digest."""

    def test_move_checks(self):
        digest = hashlib.sha256()
        rng = random.Random(5)
        for template in (helpers.corner, helpers.boundary_chain):
            for depth in range(6, 16):
                for seed in range(4):
                    spec = generate_crepant_pair(template(), depth, seed)
                    target = sorted(spec.target_contracted)
                    for _ in range(3):
                        contracted = rng.sample(target, rng.randint(0, len(target)))
                        for base in (PointBase(), TargetBase(target)):
                            state = SurfaceState(spec.config, contracted, base)
                            lines = [state.classification.name]
                            for cid in state.uncontracted:
                                flop = _outcome(is_log_flopping, state, cid)
                                if isinstance(flop, FlopCheck):
                                    lines.append((bool(flop), flop.reason, flop.detail))
                                    if flop:
                                        eps = epsilon_bound(flop)
                                        lines.append(
                                            sorted(
                                                (j, v) for j, v in flop.multiplicities.items() if v
                                            )
                                        )
                                        lines.append((eps.supremum, eps.chosen))
                                else:
                                    lines.append(flop)
                                down = _outcome(is_log_blowdown, state, cid)
                                lines.append((bool(down), down.reason, down.detail, down.order))
                            digest.update(repr(lines).encode())
        assert digest.hexdigest() == (
            "64fcadf2583f68320a8bcc5b66e5016d10515b54901e637066447fda235d2168"
        )
