"""Exact linear algebra for small symmetric integer matrices.

Everything here is exact: matrix entries are Python `int` values,
right-hand sides are `int` or `fractions.Fraction` values, and no operation
ever rounds.  The matrices that arise are Gram matrices of curve sets, so
symmetry is enforced structurally and sizes stay small (a few dozen rows at
most).  Elimination runs fraction-free on integers (Bareiss, *Math. Comp.*
22, 1968); `Fraction` objects are built only for solutions.

A matrix found negative definite keeps its elimination as a
`DefiniteFactor`: solves read the factor in O(n²), the factor's own
`determinant` is its last pivot, `DefiniteFactor.border` extends it by one row and
column in O(n²) instead of eliminating the larger matrix again, and
`DefiniteFactor.join` puts two factors side by side as the factor of their
block-diagonal sum.  `solve_symmetric` solves through such a factor only,
so a solve needs negative-definite input; elimination with row swaps
(`_bareiss`) serves `determinant` alone.

A matrix whose off-diagonal pattern is a forest, as the Gram matrix of
every tree of curves is, needs no elimination.  Taken in post-order, each
vertex after its descendants, it eliminates with zero fill-in (Parter,
*SIAM Review* 3, 1961), and every minor the elimination stores is a product
of subtree determinants (Neumann, *Trans. AMS* 268, 1981), which follow
from the leaves up by a division-free recurrence.  One search with no
callbacks, `forest_post_order`, finds that order, and `tree_factor` keeps
the recurrence as a `TreeFactor`, which stays sparse: a solve is one pass
up the tree and one down, and the determinant is its last pivot, all with
O(n) big-integer work; the dense rows of a `DefiniteFactor` are written
only for a caller that reads them, such as `border`.  The function
`determinant` takes a bare matrix: it uses the same search and recurrence
for every forest-patterned matrix instead of O(n³) elimination.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Container, Hashable, Iterable, Mapping, Sequence, TypeVar

Node = TypeVar("Node", bound=Hashable)


def exact(value: Fraction | int) -> Fraction | int:
    """`value` as a `Fraction` or plain `int`; a float or bool raises ``TypeError``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class SymMatrix:
    """Immutable symmetric matrix with `int` entries.

    `is_negative_definite` attaches the matrix's `DefiniteFactor` when the
    answer is yes; `solve_symmetric` then reads it.
    """

    __slots__ = ("_rows", "_factor")

    def __init__(self, rows: Iterable[Iterable[int]]):
        mat = tuple(tuple(row) for row in rows)
        for row in mat:
            if len(row) != len(mat):
                raise ValueError("matrix must be square")
            for x in row:
                if type(x) is not int:
                    raise TypeError(f"matrix entries must be int, got {type(x).__name__}")
        for i in range(len(mat)):
            for j in range(i):
                if mat[i][j] != mat[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
        self._rows = mat
        self._factor: DefiniteFactor | None = None

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "SymMatrix":
        """Wrap rows already known to be square, symmetric and `int`, unchecked."""
        matrix = cls.__new__(cls)
        matrix._rows = rows
        matrix._factor = None
        return matrix

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def factor(self) -> "DefiniteFactor | None":
        """The elimination `is_negative_definite` kept, or None before a yes."""
        return self._factor

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self._rows)
        return f"SymMatrix([{body}])"


class DefiniteFactor:
    """The fraction-free elimination of a negative-definite matrix A, kept for reuse.

    Row i holds the leads of row i, its entries in columns 0..i−1 at the
    moments those columns were cleared, and then pivot i, the (i+1)-th
    leading minor of A.  Symmetric elimination keeps every trailing block
    symmetric, so the upper triangle is this one transposed and is not
    stored.  `is_negative_definite` builds one and `border` grows one; rows
    are tuples that a bordered factor shares with its parent.  `tree_factor`
    builds the sparse subclass `TreeFactor`.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self.rows = rows

    def determinant(self) -> int:
        """det A: the last pivot (1 for the empty matrix)."""
        return self.rows[-1][-1] if self.rows else 1

    def _replay(self, column: list[int]) -> None:
        """Run an extra integer column through the stored elimination, in place.

        Afterwards entry i is what elimination of [A | column] would leave in
        row i: the column's value once columns 0..i−1 are cleared.
        """
        rows = self.rows
        prev = 1
        for k, row_k in enumerate(rows):
            pivot = row_k[k]
            lead = column[k]
            for i in range(k + 1, len(rows)):
                column[i] = (pivot * column[i] - rows[i][k] * lead) // prev
            prev = pivot

    def solve_scaled(self, c: list[int], e: int) -> tuple[Fraction, ...]:
        """Solve A·x = c/e for an integer column c and an integer e > 0, in
        O(n²).

        Replays c through the stored elimination (consuming the list), then
        back-substitutes over the stored leads, read as the upper triangle:
        that gives z = D·A⁻¹c, integral by Cramer's rule with D = det A the
        last pivot, and x = z / (e·D) is the only step that builds
        `Fraction` objects, one per entry.
        """
        rows = self.rows
        n = len(rows)
        if len(c) != n:
            raise ValueError(f"rhs has length {len(c)}, matrix has {n} rows")
        if n == 0:
            return ()
        self._replay(c)
        det = rows[-1][-1]
        z = [0] * n
        for i in range(n - 1, -1, -1):
            acc = det * c[i]
            for j in range(i + 1, n):
                acc -= rows[j][i] * z[j]
            z[i] = acc // rows[i][i]
        scale = e * det
        return tuple([Fraction(zi, scale) for zi in z])

    def border(self, column: Sequence[int], diagonal: int) -> "DefiniteFactor | None":
        """The factor of A bordered by one integer row and column, in O(n²).

        `column` holds the new row's entries against the factored rows, in
        their order, and `diagonal` its diagonal entry.  Replaying `column`
        gives the new row's leads; the new pivot follows from
        δ ← (p_k·δ − lead_k²) / p_{k−1}, each division exact.  Returns None
        when that pivot has the wrong sign (or is zero), that is when the
        bordered matrix is not negative definite.
        """
        rows = self.rows
        n = len(rows)
        if len(column) != n:
            raise ValueError(f"column has length {len(column)}, matrix has {n} rows")
        leads = list(column)
        self._replay(leads)
        delta = diagonal
        prev = 1
        for k, lead in enumerate(leads):
            pivot = rows[k][k]
            delta = (pivot * delta - lead * lead) // prev
            prev = pivot
        if delta == 0 or (delta < 0) != (n % 2 == 0):
            return None
        leads.append(delta)
        return DefiniteFactor(rows + (tuple(leads),))

    def join(self, other: "DefiniteFactor") -> "DefiniteFactor":
        """The factor of the block-diagonal matrix diag(A, B), in O(|B|·(|A| + |B|)).

        Every minor that the factor stores for diag(A, B) splits: a lead or
        pivot of a row of B is det A times B's own, and its leads in A's
        columns vanish.  So A's rows are shared and B's rows follow, each
        entry multiplied by A's last pivot, after one zero per row of A.
        """
        det = self.determinant()
        zeros = (0,) * len(self.rows)
        return DefiniteFactor(
            self.rows + tuple([zeros + tuple([det * x for x in row]) for row in other.rows])
        )


def forest_post_order(
    roots: Iterable[Node],
    adjacency: Mapping[Node, Mapping[Node, int]],
    within: Container[Node],
) -> tuple[list[Node], list[list[tuple[int, int]]] | None]:
    """The vertices reachable from `roots` within `within`, each once, and
    their children: in post-order, each vertex after all its descendants,
    with each vertex's children when they form a forest, else with None.

    `adjacency` maps each vertex to its neighbours and their edge weights,
    and must be symmetric; a neighbour not in `within` is skipped, and the
    rest are taken in the mapping's order.  The search starts a tree at
    each root not yet reached; the reverse of its pre-order is a post-order.
    A neighbour reached a second time, other than the parent, closes a
    cycle; the search still reaches every vertex, so the order is the vertex
    set of the roots' components either way.  Entry k of the children lists
    (j, w) for each child at position j < k joined to it by weight w: the
    form `tree_factor` takes.
    """
    parent: dict[Node, Node | None] = {}
    order: list[Node] = []
    forest = True
    for root in roots:
        if root in parent:
            continue
        parent[root] = None
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            up = parent[v]
            for u in adjacency[v]:
                if u == up or u not in within:
                    continue
                if u in parent:
                    forest = False
                    continue
                parent[u] = v
                stack.append(u)
    order.reverse()
    if not forest:
        return order, None
    position = {v: k for k, v in enumerate(order)}
    children: list[list[tuple[int, int]]] = [[] for _ in order]
    for k, v in enumerate(order):
        up = parent[v]
        if up is not None:
            children[position[up]].append((k, adjacency[v][up]))
    return order, children


def _subtree_determinants(
    diagonal: Sequence[int], children: Sequence[Sequence[tuple[int, int]]]
) -> tuple[list[int], list[int]]:
    """(dets, below) of a forest-patterned matrix in post-order: for each
    vertex k, `dets[k]` = D_k, the determinant of the subtree rooted at k,
    and `below[k]` = P_k, the product of its children's.

    `diagonal[k]` is the entry a_k and `children[k]` lists (j, w), j < k,
    for each child j of k joined by the off-diagonal entry w.  Expanding
    along k's row, D_k = a_k·P − S, where S sums w_j²·P_j times the other
    children's D; both are accumulated child by child with no division, so
    zero subtree determinants, hence singular and indefinite forests, stay
    exact.
    """
    dets: list[int] = []
    below: list[int] = []
    for a, kids in zip(diagonal, children):
        p, s = 1, 0
        for j, w in kids:
            d = dets[j]
            s = s * d + p * w * w * below[j]
            p *= d
        dets.append(a * p - s)
        below.append(p)
    return dets, below


class TreeFactor(DefiniteFactor):
    """The `DefiniteFactor` of a forest-patterned integer matrix in
    post-order, kept sparse.

    For each vertex k it holds `children[k]`, the pairs (j, w) of a child j
    and its edge weight w, the subtree determinant `dets[k]` = D_k, the
    children's product `below[k]` = P_k and `pivots[k]`, pivot k of the
    elimination.  Solves and the determinant read these in O(n); the dense
    `rows` are written on first read and are exactly those
    `is_negative_definite` stores for the same matrix.
    """

    __slots__ = ("children", "dets", "below", "pivots", "_dense")

    def __init__(
        self,
        children: Sequence[Sequence[tuple[int, int]]],
        dets: list[int],
        below: list[int],
        pivots: list[int],
    ):
        self.children = children
        self.dets = dets
        self.below = below
        self.pivots = pivots
        self._dense: tuple[tuple[int, ...], ...] | None = None

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows: in row k, w·pivot_{j−1} at each child j (w itself
        at j = 0), pivot k on the diagonal and 0 elsewhere.  Every other
        lead pairs different subtrees, so it vanishes."""
        if self._dense is None:
            pivots = self.pivots
            rows = []
            for k, kids in enumerate(self.children):
                row = [0] * (k + 1)
                for j, w in kids:
                    row[j] = w * pivots[j - 1] if j else w
                row[k] = pivots[k]
                rows.append(tuple(row))
            self._dense = tuple(rows)
        return self._dense

    def determinant(self) -> int:
        """det A: the last pivot, the product of the roots' D."""
        return self.pivots[-1] if self.pivots else 1

    def solve_scaled(self, c: list[int], e: int) -> tuple[Fraction, ...]:
        """Solve A·x = c/e for an integer column c and an integer e > 0 in
        two O(n) integer passes.

        Up the tree, eliminating k's children leaves P_k·(row k) as
        D_k·x_k + P_k·w·x_parent = β_k with
        β_k = c_k·P_k − Σ_j w_j·β_j·∏_{j′≠j} D_{j′}, accumulated child by
        child with no division.  Down the tree, with Δ the last pivot,
        N = Δ·x is integral by Cramer's rule: N_r = β_r·(Δ/D_r) at a root
        and N_j = (β_j·Δ − w·P_j·N_k)/D_j at a child j of k, each division
        exact.  Then x = N / (e·Δ), one `Fraction` per entry.
        """
        pivots = self.pivots
        n = len(pivots)
        if len(c) != n:
            raise ValueError(f"rhs has length {len(c)}, matrix has {n} rows")
        if n == 0:
            return ()
        dets, below, children = self.dets, self.below, self.children
        beta: list[int] = []
        for ck, kids in zip(c, children):
            p, s = 1, 0
            for j, w in kids:
                d = dets[j]
                s = s * d + p * w * beta[j]
                p *= d
            beta.append(ck * p - s)
        delta = pivots[-1]
        z: list[int | None] = [None] * n
        for k in range(n - 1, -1, -1):
            zk = z[k]
            if zk is None:
                zk = z[k] = beta[k] * (delta // dets[k])
            for j, w in children[k]:
                z[j] = (beta[j] * delta - w * below[j] * zk) // dets[j]
        scale = e * delta
        return tuple([Fraction(zi, scale) for zi in z])


def tree_factor(
    diagonal: Sequence[int], children: Sequence[Sequence[tuple[int, int]]]
) -> TreeFactor | None:
    """The `TreeFactor` of a forest-patterned integer matrix in post-order,
    or None when the matrix is not negative definite.

    The arguments are those of `_subtree_determinants`, whose lists the
    factor keeps.  The leading block of rows 0..k is a union of whole
    subtrees, so pivot k is the product of the determinants D_r of its
    roots r: pivot k−1 with k's children's D replaced by D_k.  The first
    pivot of the wrong sign (or zero) settles a no; before it every pivot,
    and with it every current root's D, is non-zero, so the division by the
    children's product is exact.
    """
    dets, below = _subtree_determinants(diagonal, children)
    pivots: list[int] = []
    pivot = 1
    for k, det in enumerate(dets):
        pivot = pivot // below[k] * det
        if pivot == 0 or (pivot < 0) != (k % 2 == 0):
            return None
        pivots.append(pivot)
    return TreeFactor(children, dets, below, pivots)


def _forest_determinant(a: Sequence[Sequence[int]]) -> int | None:
    """det of integer rows whose off-diagonal pattern is a forest: the
    product of its trees' determinants, the D of the vertices that are no
    vertex's child; None for any other pattern.  The rows are only read,
    and each is scanned for its non-zero entries at C level."""
    columns = range(len(a))
    adjacency = {
        i: {j: a[i][j] for j in itertools.compress(columns, a[i]) if j != i} for i in columns
    }
    order, children = forest_post_order(columns, adjacency, columns)
    if children is None:
        return None
    dets, _ = _subtree_determinants([a[v][v] for v in order], children)
    below = {j for kids in children for j, _ in kids}
    det = 1
    for k, d in enumerate(dets):
        if k not in below:
            det *= d
    return det


def _bareiss(a: list[list[int]]) -> int:
    """The determinant of the n×n integer rows `a`, by fraction-free
    elimination with row swaps, in place.

    Step k clears column k below the pivot row k: every entry x right of
    column k in a lower row becomes (p·x − l·y) / prev, with p the pivot,
    l the row's entry in column k, y the pivot row's entry above x and prev
    the previous pivot (1 at the start); Sylvester's identity makes each
    division exact (Bareiss, *Math. Comp.* 22, 1968).  A zero pivot is
    swapped for the first lower row with a non-zero entry in its column;
    when there is none the determinant is 0.  The last pivot is the
    determinant times the sign of the row permutation.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        row_k = a[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - lead * row_k[j]) // prev
        prev = pivot
    return sign * prev


def solve_symmetric(
    matrix: SymMatrix | DefiniteFactor, rhs: Sequence[Fraction | int]
) -> tuple[Fraction, ...]:
    """Solve A·x = b exactly for a negative-definite A, given as its
    `DefiniteFactor` or as a matrix, which is factored by
    `is_negative_definite` unless it already has been.

    b is scaled to the integer column c = e·b, e > 0 its least common
    denominator, and the factor solves A·x = c/e from its stored
    elimination in O(n²), or O(n) for a `TreeFactor`
    (`DefiniteFactor.solve_scaled`).  The returned vector satisfies
    A·x − b = 0 identically.  Raises ``ValueError`` for a matrix that is not
    negative definite, singular or not, and for a right-hand side of the
    wrong length.
    """
    b = [exact(v) for v in rhs]
    e = 1
    for v in b:
        e = math.lcm(e, v.denominator)
    c = [v.numerator * (e // v.denominator) for v in b]
    if isinstance(matrix, DefiniteFactor):
        factor = matrix
    elif matrix._factor is not None or is_negative_definite(matrix):
        factor = matrix._factor
    else:
        raise ValueError("matrix is not negative definite")
    return factor.solve_scaled(c, e)


def is_negative_definite(matrix: SymMatrix) -> bool:
    """Sylvester test: the k-th leading principal minor must carry sign (−1)^k.

    Implemented as fraction-free elimination without row swaps, grown one
    row at a time by `DefiniteFactor.border`: its pivots are exactly the
    leading minors, so a pivot of the wrong sign (or zero) settles the
    answer as soon as its row joins.  On a yes the elimination is kept on
    the matrix as its `DefiniteFactor` (`SymMatrix.factor`).  The empty
    matrix is vacuously negative definite.
    """
    factor = DefiniteFactor(())
    for k, row in enumerate(matrix.rows()):
        factor = factor.border(row[:k], row[k])
        if factor is None:
            return False
    matrix._factor = factor
    return True


def determinant(matrix: SymMatrix) -> int:
    """Exact determinant: the subtree recurrence when the off-diagonal
    pattern is a forest (the empty matrix's is 1), else elimination with row
    swaps (`_bareiss`).  A stored factor is not read: its last pivot is the
    same `int` (`DefiniteFactor.determinant`)."""
    rows = matrix.rows()
    det = _forest_determinant(rows)
    if det is None:
        det = _bareiss([list(row) for row in rows])
    return det
