"""Acceptance gate: ten checks, one printed PASS/FAIL line each.

Every numeric comparison in this file is exact — the library computes over
rationals, so the equality tolerance is zero throughout.  Checks with a
wall-clock budget state it in their printed line; a budget overrun fails
the check.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import helpers
import oracles
from logsurf import (
    Classification,
    DivisorialCenter,
    MorphismSpec,
    NodeCenter,
    MoveKind,
    NotNefError,
    StuckInPhase2Error,
    SurfaceState,
    SymMatrix,
    TargetBase,
    TheoremViolationError,
    crepant_pullback,
    decompose_morphism,
    is_flop_minimal,
    is_negative_definite,
    lc_centers,
    minimize,
    relative_picard_rank,
    verify_trace,
)



def _meets(config, cid: int, center) -> bool:
    """Whether curve `cid` is, passes through or meets the non-klt centre."""
    if isinstance(center, DivisorialCenter):
        return center.curve == cid
    if isinstance(center, NodeCenter):
        return cid in center.curves
    counts = oracles.crossing_counts(config)
    return any(oracles.raw_pairing(config, counts, cid, j) for j in center.component)


def _report(
    number: int,
    ok: bool,
    detail: str,
    elapsed: float | None = None,
    budget: float | None = None,
) -> None:
    if budget is not None:
        ok = ok and elapsed is not None and elapsed < budget
        detail += f" [{elapsed:.2f}s, budget {budget:g}s]"
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {verdict}: {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


def test_criterion_01_worked_fixture(corpus):
    start = time.perf_counter()
    spec = MorphismSpec(helpers.corner_twice(), set(), {3, 4})
    trace = decompose_morphism(spec)
    moves = [(s.kind, s.curve) for s in trace.steps]
    end_state = SurfaceState(spec.config, trace.end, TargetBase(trace.end))
    ok = (
        moves == [(MoveKind.FLOP, 4), (MoveKind.BLOWDOWN, 3)]
        and trace.flop_minimal_index == 1
        and end_state.crepant.discrepancies == {3: Fraction(-1), 4: Fraction(0)}
    )
    elapsed = time.perf_counter() - start
    _report(
        1,
        ok,
        "two-curve tower decomposes as flop(4); blow-down(3), "
        "discrepancies exactly (-1, 0)",
        elapsed,
        1.0,
    )


def test_criterion_02_residual_identity(corpus):
    start = time.perf_counter()
    rng = random.Random(93)
    states = []
    for spec in corpus.pairs():
        states.append((spec.config, spec.target_contracted))
        ids = sorted(spec.target_contracted)
        picked = rng.sample(ids, rng.randint(0, len(ids)))
        states.append((spec.config, frozenset(picked)))
    bad = 0
    for config, contracted in states:
        data = crepant_pullback(config, contracted)
        if oracles.residual_identity_gaps(config, contracted, data.residual):
            bad += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        len(states) == 1000 and bad == 0,
        f"log-degree residual exactly zero on every contracted curve in "
        f"{len(states)} states ({bad} violations)",
        elapsed,
        30.0,
    )


def test_criterion_03_decomposition_suite(corpus):
    start = time.perf_counter()
    pairs = corpus.pairs()
    errors = 0
    length_mismatches = 0
    rejected = 0
    traces = []
    for spec in pairs:
        try:
            trace = decompose_morphism(spec)
        except (TheoremViolationError, StuckInPhase2Error):
            errors += 1
            continue
        traces.append(trace)
        if len(trace.steps) != len(spec.target_contracted - spec.source_contracted):
            length_mismatches += 1
        if not verify_trace(spec.config, spec.source_contracted, trace):
            rejected += 1
    ok = (
        len(pairs) >= 500
        and errors == 0
        and length_mismatches == 0
        and rejected == 0
        and len(traces) == len(pairs)
    )
    if ok:
        corpus.adopt_traces(traces)
    elapsed = time.perf_counter() - start
    _report(
        3,
        ok,
        f"{len(pairs)} generated pairs (depth <= 12) decompose cleanly: "
        f"{errors} theorem violations / stuck runs, {length_mismatches} bad "
        f"trace lengths, {rejected} replay rejections",
        elapsed,
        60.0,
    )


def test_criterion_04_picard_descent(corpus):
    fixture_spec = MorphismSpec(helpers.corner_twice(), set(), {3, 4})
    jobs = [(fixture_spec, decompose_morphism(fixture_spec))]
    jobs += list(zip(corpus.pairs(), corpus.traces()))
    steps_checked = 0
    exceptions = 0
    for spec, trace in jobs:
        base = TargetBase(spec.target_contracted)
        contracted = spec.source_contracted
        for step in trace.steps:
            before = relative_picard_rank(SurfaceState(spec.config, contracted, base))
            contracted = contracted | {step.curve}
            after = relative_picard_rank(SurfaceState(spec.config, contracted, base))
            steps_checked += 1
            if before.value - after.value != 1:
                exceptions += 1
    _report(
        4,
        steps_checked > 0 and exceptions == 0,
        f"relative Picard rank drops by exactly 1 on each of {steps_checked} "
        f"steps ({exceptions} exceptions)",
    )


def test_criterion_05_blow_up_sequences():
    from logsurf import at_point, blow_up, free_point_on, generic_point, validate_config

    start = time.perf_counter()
    sequences = 1000
    bad_prefixes = 0
    exceptions = 0
    for seed in range(sequences):
        rng = random.Random(10_000 + seed)
        config = helpers.corner() if seed % 2 == 0 else helpers.chain()
        try:
            for _ in range(1 + seed % 12):
                kind = rng.randrange(3)
                if kind == 0 and config.points:
                    target = at_point(rng.choice(sorted(p.id for p in config.points)))
                elif kind == 1:
                    target = free_point_on(rng.choice(sorted(c.id for c in config.curves)))
                else:
                    target = generic_point()
                config = blow_up(config, target, Fraction(rng.randrange(5), 4))
                if validate_config(config):
                    bad_prefixes += 1
        except Exception:
            exceptions += 1
    elapsed = time.perf_counter() - start
    _report(
        5,
        bad_prefixes == 0 and exceptions == 0,
        f"{sequences} random blow-up sequences (length <= 12) stay valid at "
        f"every prefix ({bad_prefixes} invalid prefixes, {exceptions} exceptions)",
        elapsed,
        30.0,
    )


def test_criterion_06_center_avoidance(corpus):
    checked = 0
    failures = 0
    for spec, trace in zip(corpus.pairs(), corpus.traces()):
        base = TargetBase(spec.target_contracted)
        boundary = {c.id: c.boundary_coeff for c in spec.config.curves}
        contracted = spec.source_contracted
        for index in range(trace.flop_minimal_index + 1):
            centers = lc_centers(SurfaceState(spec.config, contracted, base))
            for cid in sorted(spec.target_contracted - contracted):
                if boundary[cid] < 1:
                    checked += 1
                    failures += any(_meets(spec.config, cid, c) for c in centers)
            if index < trace.flop_minimal_index:
                contracted = contracted | {trace.steps[index].curve}
    _report(
        6,
        checked > 0 and failures == 0,
        f"every sub-1-coefficient exceptional curve avoids all non-klt "
        f"centres at every pre-split state ({checked} checks, {failures} "
        f"failures)",
    )


def test_criterion_07_negative_definiteness_oracle():
    start = time.perf_counter()
    rng = random.Random(2024)
    matrices = 500
    disagreements = 0
    form_violations = 0
    for _ in range(matrices):
        n = rng.randint(1, 8)
        rows = oracles.random_symmetric_matrix(rng, n, -5, 5)
        fast = is_negative_definite(SymMatrix(rows))
        slow = oracles.brute_negative_definite(rows)
        if fast != slow:
            disagreements += 1
        if fast:
            for _ in range(20):
                vec = [rng.randint(-3, 3) for _ in range(n)]
                if any(vec) and oracles.quadratic_form(rows, vec) >= 0:
                    form_violations += 1
    elapsed = time.perf_counter() - start
    _report(
        7,
        disagreements == 0 and form_violations == 0,
        f"minor-sign test agrees with the principal-submatrix brute force on "
        f"{matrices} random symmetric matrices, n <= 8, entries in [-5, 5] "
        f"({disagreements} disagreements, {form_violations} positive forms)",
        elapsed,
        30.0,
    )


def test_criterion_08_depth3_valuation_probe(corpus):
    start = time.perf_counter()
    rng = random.Random(417)
    tested = 0
    log_terminal = 0
    violations = 0
    for spec in corpus.pairs()[:200]:
        ids = sorted(spec.target_contracted)
        contracted = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
        state = SurfaceState(spec.config, contracted, TargetBase(spec.target_contracted))
        tested += 1
        if state.classification >= Classification.LOG_TERMINAL:
            log_terminal += 1
            if oracles.depth3_probe(spec.config, contracted, state.crepant.residual):
                violations += 1
    elapsed = time.perf_counter() - start
    _report(
        8,
        tested == 200 and log_terminal > 0 and violations == 0,
        f"no state classified log terminal ({log_terminal} of {tested}) admits "
        f"a depth-<=3 blow-up valuation of discrepancy <= -1 outside a corner "
        f"({violations} violations)",
        elapsed,
        60.0,
    )


def test_criterion_09_order_confluence(corpus):
    small = [
        spec
        for spec in corpus.pairs()
        if len(spec.target_contracted - spec.source_contracted) <= 4
    ]
    stranded = 0
    outcome_splits = 0
    for spec in small:
        try:
            outcomes = oracles.explore_decomposition_orders(
                spec.config, spec.source_contracted, spec.target_contracted
            )
        except AssertionError:
            stranded += 1
            continue
        if len(outcomes) != 1:
            outcome_splits += 1
    _report(
        9,
        len(small) > 0 and stranded == 0 and outcome_splits == 0,
        f"all move orders terminate at the target set with one step-kind "
        f"multiset on all {len(small)} pairs with at most 4 curves "
        f"({stranded} stranded, {outcome_splits} divergent)",
    )


def test_criterion_10_minimization_fixtures():
    a1 = minimize(SurfaceState(helpers.du_val_a1(), set()))
    a1_ok = (
        [(s.kind, s.curve) for s in a1.steps] == [(MoveKind.FLOP, 1)]
        and a1.end == frozenset({1})
        and is_flop_minimal(SurfaceState(helpers.du_val_a1(), {1}))
    )
    ell = minimize(SurfaceState(helpers.elliptic(), set()))
    ell_ok = ell.steps == () and ell.end == frozenset()
    try:
        minimize(SurfaceState(helpers.corner(), set()))
        corner_ok = False
    except NotNefError:
        corner_ok = True
    _report(
        10,
        a1_ok and ell_ok and corner_ok,
        "minimization: lone (-2)-curve flops once to minimal, elliptic "
        "configuration is already minimal, boundary corner raises the "
        "nef-failure error",
    )
