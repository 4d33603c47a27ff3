"""Exact linear algebra: pinned cases, oracle agreement, algebraic round trips."""

from fractions import Fraction
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
import oracles
from logsurf import (
    SymMatrix,
    determinant,
    generate_crepant_pair,
    gram,
    is_negative_definite,
    solve_symmetric,
)
from logsurf.ratlin import _bareiss, forest_post_order, tree_factor


@st.composite
def symmetric_rows(draw, min_n=1, max_n=5, low=-5, high=5):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            value = draw(st.integers(min_value=low, max_value=high))
            rows[i][j] = value
            rows[j][i] = value
    return rows


def _negated_gram(b: list[list[int]]) -> list[list[int]]:
    """−(BᵀB) − I for a square integer B: negative definite."""
    n = len(b)
    return [
        [-sum(b[k][i] * b[k][j] for k in range(n)) - (i == j) for j in range(n)]
        for i in range(n)
    ]


@st.composite
def definite_rows(draw, max_n=6):
    """−(BᵀB) − I for a random integer B."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    b = [[draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)] for _ in range(n)]
    return _negated_gram(b)


class TestSolve:
    def test_two_by_two(self):
        m = SymMatrix([[-2, 1], [1, -1]])
        assert solve_symmetric(m, (2, -1)) == (Fraction(-1), Fraction(0))

    def test_one_by_one(self):
        assert solve_symmetric(SymMatrix([[-1]]), (1,)) == (Fraction(-1),)

    def test_zero_rhs(self):
        m = SymMatrix([[-2, 1], [1, -2]])
        assert solve_symmetric(m, (0, 0)) == (Fraction(0), Fraction(0))

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 1], [1, 1]],  # singular
            [[0]],  # singular
            [[0, 1], [1, 0]],  # indefinite
            [[2]],  # positive definite
            [[-1, 0, 0], [0, -1, 0], [0, 0, 1]],  # indefinite, its leading block definite
        ],
    )
    def test_not_negative_definite_raises(self, rows):
        m = SymMatrix(rows)
        with pytest.raises(ValueError, match="not negative definite"):
            solve_symmetric(m, [1] * m.n)
        assert m.factor is None

    def test_rhs_length_mismatch(self):
        with pytest.raises(ValueError):
            solve_symmetric(SymMatrix([[-1]]), (1, 2))

    @given(st.one_of(symmetric_rows(max_n=4), definite_rows(max_n=4)), st.data())
    def test_substitution_and_oracle_agreement(self, rows, data):
        # A matrix no solve has factored yet: the solve factors it.
        m = SymMatrix(rows)
        n = m.n
        rhs = data.draw(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n), label="rhs"
        )
        if not oracles.brute_negative_definite(rows):
            with pytest.raises(ValueError):
                solve_symmetric(m, rhs)
            return
        x = solve_symmetric(m, rhs)
        assert m.factor is not None
        for i in range(n):
            assert sum(rows[i][j] * x[j] for j in range(n)) == rhs[i]
        assert x == oracles.solve_linear(rows, rhs)
        assert solve_symmetric(m.factor, rhs) == x


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _symmetric_ints(rng: random.Random, n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-9, 9)
    return rows


def _definite_ints(rng: random.Random, n: int) -> list[list[int]]:
    """−(BᵀB) − I for a seeded integer B."""
    return _negated_gram([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])


class TestIntegerSolveDifferential:
    """The fraction-free integer solve against the oracle's Fraction elimination,
    on integer matrices with rational right-hand sides."""

    def test_random_fraction_systems(self):
        # Every other system is negative definite; the others rarely are.
        solved = 0
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 7)
            rows = _definite_ints(rng, n) if seed % 2 else _symmetric_ints(rng, n)
            rhs = [_fraction(rng) for _ in range(n)]
            if not oracles.brute_negative_definite(rows):
                with pytest.raises(ValueError, match="not negative definite"):
                    solve_symmetric(SymMatrix(rows), rhs)
                continue
            x = solve_symmetric(SymMatrix(rows), rhs)
            assert x == oracles.solve_linear(rows, rhs), seed
            assert all(type(v) is Fraction for v in x)
            solved += 1
        assert solved >= 150

    def test_singular_fraction_matrices_raise(self):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(1, 6)
            # c·PᵀDP with a zero on the diagonal of D: symmetric, rank below n
            p = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            d = [rng.randint(-3, 3) for _ in range(n)]
            d[rng.randrange(n)] = 0
            c = rng.choice((-2, -1, 1, 3))
            rows = [
                [c * sum(p[k][i] * d[k] * p[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert oracles.laplace_det(rows) == 0
            assert determinant(SymMatrix(rows)) == 0
            with pytest.raises(ValueError, match="not negative definite"):
                solve_symmetric(SymMatrix(rows), [_fraction(rng) for _ in range(n)])

    @pytest.mark.parametrize("seed", range(6))
    def test_gram_rows_match_raw_pairing(self, seed):
        template = helpers.corner() if seed % 2 == 0 else helpers.boundary_chain()
        config = generate_crepant_pair(template, 4 + seed, seed).config
        ids = [c.id for c in config.curves]
        random.Random(seed).shuffle(ids)
        counts = oracles.crossing_counts(config)
        expected = tuple(
            tuple(oracles.raw_pairing(config, counts, i, j) for j in ids) for i in ids
        )
        rows = gram(config, ids).rows()
        assert rows == expected
        assert all(type(x) is int for row in rows for x in row)


class TestNegativeDefinite:
    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[-2, 1], [1, -2]], True),
            ([[-1, 1], [1, -1]], False),
            ([[2]], False),
            ([[-1]], True),
            ([[0]], False),
        ],
    )
    def test_pinned(self, rows, expected):
        assert is_negative_definite(SymMatrix(rows)) is expected

    def test_empty_is_vacuously_definite(self):
        assert is_negative_definite(SymMatrix([])) is True

    @given(symmetric_rows(max_n=5))
    def test_agrees_with_principal_submatrix_bruteforce(self, rows):
        assert is_negative_definite(SymMatrix(rows)) == oracles.brute_negative_definite(
            rows
        )

    @given(symmetric_rows(max_n=4))
    def test_definite_means_negative_form_on_lattice(self, rows):
        if not is_negative_definite(SymMatrix(rows)):
            return
        n = len(rows)
        for vec in itertools.product((-2, -1, 0, 1, 2), repeat=n):
            if any(vec):
                assert oracles.quadratic_form(rows, vec) < 0

    @given(symmetric_rows(max_n=5), st.data())
    def test_invariant_under_simultaneous_permutation(self, rows, data):
        n = len(rows)
        perm = data.draw(st.permutations(range(n)), label="perm")
        permuted = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert is_negative_definite(SymMatrix(rows)) == is_negative_definite(
            SymMatrix(permuted)
        )


def _leading(rows, k):
    return [row[:k] for row in rows[:k]]


class TestDefiniteFactor:
    def test_kept_only_on_a_yes(self):
        yes = SymMatrix([[-2, 1], [1, -2]])
        no = SymMatrix([[-1, 1], [1, -1]])
        assert yes.factor is None and no.factor is None
        assert is_negative_definite(yes) and not is_negative_definite(no)
        assert yes.factor.rows == ((-2,), (1, 3))
        assert no.factor is None
        empty = SymMatrix([])
        assert is_negative_definite(empty) and empty.factor.rows == ()

    @given(definite_rows(max_n=5), st.data())
    def test_solve_and_determinant_read_the_factor(self, rows, data):
        m = SymMatrix(rows)
        assert is_negative_definite(m)
        n = len(rows)
        rhs = [
            data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
            for _ in range(n)
        ]
        assert solve_symmetric(m, rhs) == oracles.solve_linear(rows, rhs)
        assert solve_symmetric(m.factor, rhs) == oracles.solve_linear(rows, rhs)
        assert determinant(m) == m.factor.determinant() == oracles.laplace_det(rows)
        assert type(determinant(m)) is int

    @given(definite_rows())
    def test_factor_entries_are_minors(self, rows):
        # Lead (i, j) is the minor on rows 0..j−1, i and columns 0..j; pivot i
        # is the (i+1)-th leading minor.
        m = SymMatrix(rows)
        assert is_negative_definite(m)
        for i, row in enumerate(m.factor.rows):
            assert len(row) == i + 1
            for j, entry in enumerate(row):
                picked = list(range(j)) + [i]
                minor = [[rows[r][c] for c in range(j + 1)] for r in picked]
                assert entry == oracles.laplace_det(minor)

    @given(symmetric_rows(min_n=2, max_n=5))
    def test_bordering_refuses_exactly_the_indefinite(self, rows):
        n = len(rows)
        head = SymMatrix(_leading(rows, n - 1))
        if not is_negative_definite(head):
            return
        bordered = head.factor.border(rows[n - 1][: n - 1], rows[n - 1][n - 1])
        assert (bordered is not None) == oracles.brute_negative_definite(rows)


def _block_diagonal(m, n):
    size = len(m) + len(n)
    rows = [[0] * size for _ in range(size)]
    for i, row in enumerate(m):
        rows[i][: len(m)] = row
    for i, row in enumerate(n):
        rows[len(m) + i][len(m):] = row
    return rows


class TestJoin:
    def _factor(self, rows):
        matrix = SymMatrix(rows)
        assert is_negative_definite(matrix)
        return matrix.factor

    @given(definite_rows(max_n=4), definite_rows(max_n=4))
    def test_entries_are_minors_of_the_block_diagonal(self, m, n):
        rows = _block_diagonal(m, n)
        joined = self._factor(m).join(self._factor(n))
        for i, row in enumerate(joined.rows):
            assert len(row) == i + 1
            for j, entry in enumerate(row):
                picked = list(range(j)) + [i]
                minor = [[rows[r][c] for c in range(j + 1)] for r in picked]
                assert entry == oracles.laplace_det(minor)

    @given(definite_rows(max_n=4), definite_rows(max_n=4), st.data())
    def test_determinant_and_solves(self, m, n, data):
        rows = _block_diagonal(m, n)
        left, right = self._factor(m), self._factor(n)
        joined = left.join(right)
        assert joined.determinant() == left.determinant() * right.determinant()
        assert joined.determinant() == oracles.laplace_det(rows)
        rhs = [
            data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
            for _ in rows
        ]
        assert solve_symmetric(joined, rhs) == oracles.solve_linear(rows, rhs)
        # M's rows are shared, not copied.
        assert all(a is b for a, b in zip(joined.rows, left.rows))

    @given(definite_rows(max_n=3), definite_rows(max_n=3), symmetric_rows(max_n=1))
    def test_joined_factor_borders_like_a_cold_one(self, m, n, extra):
        rows = _block_diagonal(m, n)
        column = [1] * len(rows)
        bordered = self._factor(m).join(self._factor(n)).border(column, extra[0][0])
        full = [row + [1] for row in rows] + [column + [extra[0][0]]]
        assert (bordered is not None) == oracles.brute_negative_definite(full)
        if bordered is not None:
            assert bordered.determinant() == oracles.laplace_det(full)

    def test_empty_sides(self):
        single = self._factor([[-2]])
        empty = SymMatrix([])
        assert is_negative_definite(empty)
        assert empty.factor.join(single).rows == single.rows
        assert single.join(empty.factor).rows == single.rows


class TestDeterminant:
    def test_empty(self):
        assert determinant(SymMatrix([])) == 1

    def test_pinned(self):
        assert determinant(SymMatrix([[-2, 1], [1, -2]])) == 3
        assert determinant(SymMatrix([[-2, 1], [1, -1]])) == 1
        assert determinant(SymMatrix([[0, 1], [1, 0]])) == -1

    @given(symmetric_rows(max_n=5))
    def test_agrees_with_laplace_expansion(self, rows):
        det = determinant(SymMatrix(rows))
        assert det == oracles.laplace_det(rows)
        assert type(det) is int

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1], [1, 0]],
            # the second pivot vanishes after the first step: swap mid-elimination
            [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
            [[1, 1, 0], [1, 1, 6], [0, 6, 0]],
            # the same two swaps where a cycle keeps the forest recurrence out
            [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            [[1, 1, 1], [1, 1, 2], [1, 2, 1]],
        ],
    )
    def test_pinned_row_swaps(self, rows):
        expected = oracles.laplace_det(rows)
        assert _bareiss([list(row) for row in rows]) == expected
        assert determinant(SymMatrix(rows)) == expected

    def test_random_row_swaps(self):
        swapped = 0
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 7)
            rows = _symmetric_ints(rng, n)
            if seed % 3 == 0:
                rows[0][0] = 0  # the first pivot needs a row swap
            expected = oracles.laplace_det(rows)
            assert _bareiss([list(row) for row in rows]) == expected, seed
            assert determinant(SymMatrix(rows)) == expected, seed
            swapped += rows[0][0] == 0
        assert swapped >= 50


class TestSymMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix([[1, 2]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix([[1, 2], [3, 4]])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            SymMatrix([[1.5]])

    def test_rejects_non_int_entries(self):
        # Gram matrices are integer matrices; a rational enters a solve only
        # through its right-hand side.
        for bad in (Fraction(-1, 2), Fraction(1), 1.5, True):
            with pytest.raises(TypeError, match=f"got {type(bad).__name__}"):
                SymMatrix([[-2, 0], [0, bad]])

    def test_equality_and_hash(self):
        a = SymMatrix([[1, 0], [0, 1]])
        b = SymMatrix(iter([(1, 0), [0, 1]]))
        assert a == b
        assert hash(a) == hash(b)
        assert a != SymMatrix([[1, 0], [0, 2]])


@st.composite
def forest_rows(draw, max_n=8, diagonal=(-4, -3, -2, -2, -1, 0, 0, 1, 2)):
    """A symmetric integer matrix whose off-diagonal pattern is a random
    forest on shuffled vertices: edges of weight 1, 2 (a double contact) or
    −1, diagonal entries drawn from `diagonal`, so zero subtree
    determinants (a leaf of entry 0, say) come up often."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = draw(st.permutations(range(n)), label="labels")
    rows = [[0] * n for _ in range(n)]
    for k in range(n):
        rows[labels[k]][labels[k]] = draw(st.sampled_from(diagonal))
        if k:
            up = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=k - 1)))
            if up is not None:
                w = draw(st.sampled_from((1, 1, 2, -1)))
                rows[labels[k]][labels[up]] = rows[labels[up]][labels[k]] = w
    return rows


def _post_order(rows):
    """(order, children) of a forest-patterned matrix, through the kernel's own search."""
    adjacency = {
        i: {j: x for j, x in enumerate(row) if x and j != i} for i, row in enumerate(rows)
    }
    return forest_post_order(range(len(rows)), adjacency, adjacency)


def _permuted(rows, order):
    return [[rows[i][j] for j in order] for i in order]


class TestTreeFactor:
    """`tree_factor` against dense elimination and the oracles."""

    @settings(max_examples=300)
    @given(forest_rows())
    def test_rows_and_verdict_are_the_dense_ones(self, rows):
        order, children = _post_order(rows)
        # Post-order: every child precedes its parent.
        assert all(j < k for k, kids in enumerate(children) for j, _ in kids)
        factor = tree_factor([rows[v][v] for v in order], children)
        dense = SymMatrix(_permuted(rows, order))
        assert (factor is not None) == is_negative_definite(dense)
        assert (factor is not None) == oracles.brute_negative_definite(rows)
        if factor is not None:
            assert factor.rows == dense.factor.rows
            assert factor.determinant() == dense.factor.determinant()

    @settings(max_examples=150)
    @given(forest_rows(diagonal=(-5, -4, -3, -2)), st.data())
    def test_solves_and_determinants_match_the_oracles(self, rows, data):
        # The sparse factor against the dense one of the same matrix: its
        # O(n) solve, its determinant, then its dense rows, written on
        # first read, and a bordering by a random column.
        order, children = _post_order(rows)
        factor = tree_factor([rows[v][v] for v in order], children)
        if factor is None:
            return
        ordered = _permuted(rows, order)
        dense = SymMatrix(ordered)
        assert is_negative_definite(dense)
        rhs = [
            data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
            for _ in order
        ]
        assert solve_symmetric(factor, rhs) == oracles.solve_linear(ordered, rhs)
        n = len(order)
        c = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n), label="c")
        e = data.draw(st.integers(1, 6), label="e")
        solved = factor.solve_scaled(list(c), e)
        assert solved == dense.factor.solve_scaled(list(c), e)
        assert solved == oracles.solve_linear(ordered, [Fraction(v, e) for v in c])
        assert factor.determinant() == oracles.laplace_det(rows)
        assert factor._dense is None
        assert factor.rows == dense.factor.rows
        column = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n), label="column")
        diagonal = data.draw(st.integers(-6, -1), label="diagonal")
        bordered = factor.border(column, diagonal)
        expected = dense.factor.border(column, diagonal)
        assert (bordered is None) == (expected is None)
        if bordered is not None:
            assert bordered.rows == expected.rows

    def test_double_contacts(self):
        # Two (−3)-curves meeting twice, and a third meeting one of them twice.
        rows = [[-3, 2, 0], [2, -3, 2], [0, 2, -3]]
        order, children = _post_order(rows)
        assert sorted(w for kids in children for _, w in kids) == [2, 2]
        factor = tree_factor([rows[v][v] for v in order], children)
        dense = SymMatrix(_permuted(rows, order))
        assert is_negative_definite(dense) and factor.rows == dense.factor.rows
        assert factor.determinant() == oracles.laplace_det(rows) == -3
        # Two (−2)-curves meeting twice span a semi-definite lattice.
        assert tree_factor([-2, -2], [[], [(0, 2)]]) is None

    @pytest.mark.parametrize("bs", [[2], [2, 2], [3, 2, 5], [2, 3, 2, 2, 4, 2, 2, 6, 2]])
    def test_chain_determinants_are_continuants(self, bs):
        r = len(bs)
        diagonal = [-b for b in bs]
        children = [[]] + [[(k - 1, 1)] for k in range(1, r)]
        factor = tree_factor(diagonal, children)
        assert factor.determinant() == (-1) ** r * oracles.continuant(bs)
        rows = [[-bs[i] if i == j else int(abs(i - j) == 1) for j in range(r)] for i in range(r)]
        assert determinant(SymMatrix(rows)) == (-1) ** r * oracles.continuant(bs)

    def test_cycles_are_not_forests(self):
        triangle = [[-3, 1, 1], [1, -3, 1], [1, 1, -3]]
        order, children = _post_order(triangle)
        assert sorted(order) == [0, 1, 2] and children is None
        assert determinant(SymMatrix(triangle)) == oracles.laplace_det(triangle)


@st.composite
def contact_graphs(draw, max_n=12):
    """(adjacency, within, roots): a symmetric mapping of each vertex of a
    random graph on at most `max_n` shuffled vertices to its neighbours and
    contact counts, built edge by edge in a drawn order as the crossing
    table is; a subset to search within, often all of it; and roots drawn
    from that subset.  The graph is a random forest or a graph with at
    least as many edges as vertices, and each edge is a single or a double
    contact."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    vertices = draw(st.permutations(range(n)), label="vertices")
    if draw(st.booleans(), label="forest"):
        edges = []
        for k in range(1, n):
            up = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=k - 1)))
            if up is not None:
                edges.append((vertices[k], vertices[up]))
    else:
        pairs = list(itertools.combinations(range(n), 2))
        edges = []
        if pairs:
            # As many edges as vertices: a cycle whenever n > 2.
            many = st.lists(st.sampled_from(pairs), min_size=min(n, len(pairs)), unique=True)
            edges = draw(many, label="edges")
    adjacency = {v: {} for v in vertices}
    for a, b in draw(st.permutations(edges), label="edge order"):
        adjacency[a][b] = adjacency[b][a] = draw(st.sampled_from((1, 2)))
    within = draw(
        st.one_of(st.just(frozenset(vertices)), st.frozensets(st.sampled_from(vertices))),
        label="within",
    )
    roots = []
    if within:
        roots = draw(st.lists(st.sampled_from(sorted(within)), min_size=1), label="roots")
    return adjacency, within, roots


class TestForestSearch:
    """The callback-free search against the callback search it replaced,
    and `tree_factor` on what it finds against dense elimination."""

    @settings(max_examples=400)
    @given(contact_graphs(), st.data())
    def test_order_children_and_pivots_are_the_dense_ones(self, graph, data):
        adjacency, within, roots = graph
        order, children = forest_post_order(roots, adjacency, within)
        assert (order, children) == oracles.callback_post_order(
            roots,
            lambda v: [u for u in adjacency[v] if u in within],
            lambda v, u: adjacency[v][u],
        )
        if children is None:
            return
        diagonal = {
            v: data.draw(st.sampled_from((-4, -3, -2, -2, -1, 0, 1)), label=f"a_{v}")
            for v in order
        }
        rows = [[diagonal[v] if u == v else adjacency[v].get(u, 0) for u in order] for v in order]
        factor = tree_factor([diagonal[v] for v in order], children)
        dense = SymMatrix(rows)
        assert (factor is not None) == is_negative_definite(dense)
        if factor is not None:
            assert factor.pivots == [row[k] for k, row in enumerate(dense.factor.rows)]


class TestForestDeterminant:
    """The division-free subtree recurrence of `determinant`."""

    # Vertex 0 is the root, so each pinned forest below has a zero subtree
    # determinant under a root, where a recurrence dividing by it would fail.
    @settings(max_examples=300)
    @example(rows=[[-2, 1], [1, 0]])  # a leaf of entry 0
    @example(rows=[[-2, 1, 0], [1, -1, 1], [0, 1, -1]])  # a zero subtree in the middle
    @example(rows=[[-1, 2, 0], [2, 0, 0], [0, 0, -3]])  # a double contact to a zero leaf
    @example(rows=[[-3, 1, 1, 1], [1, 0, 0, 0], [1, 0, -1, 0], [1, 0, 0, 0]])  # two zero leaves
    @example(rows=[[0, 0], [0, 0]])
    @given(forest_rows())
    def test_agrees_with_laplace_expansion(self, rows):
        assert determinant(SymMatrix(rows)) == oracles.laplace_det(rows)
