"""Exact linear algebra over the rationals for small symmetric matrices.

Everything here is exact: entries are Python `int` or `fractions.Fraction`
values, and no operation ever rounds.  The matrices that arise in practice
are integer Gram matrices of curve sets, so symmetry is enforced structurally
and sizes stay small (a few dozen rows at most).  Elimination runs
fraction-free on integers (Bareiss, *Math. Comp.* 22, 1968); `Fraction`
objects are built only for results.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import SingularMatrixError

Rat = Fraction


def _exact(value: Rat | int) -> Fraction | int:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class SymMatrix:
    """Immutable symmetric matrix with exact rational entries."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[Rat | int]]):
        mat = tuple(tuple(_exact(x) for x in row) for row in rows)
        for row in mat:
            if len(row) != len(mat):
                raise ValueError("matrix must be square")
        for i in range(len(mat)):
            for j in range(i):
                if mat[i][j] != mat[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
        self._rows = mat

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "SymMatrix":
        """Wrap rows already known to be square, symmetric and exact, unchecked."""
        matrix = cls.__new__(cls)
        matrix._rows = rows
        return matrix

    @property
    def n(self) -> int:
        return len(self._rows)

    def entry(self, i: int, j: int) -> Fraction | int:
        return self._rows[i][j]

    def rows(self) -> tuple[tuple[Fraction | int, ...], ...]:
        return self._rows

    def submatrix(self, indices: Sequence[int]) -> "SymMatrix":
        return SymMatrix(
            tuple(tuple(self._rows[i][j] for j in indices) for i in indices)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self._rows)
        return f"SymMatrix([{body}])"


def _integer_rows(matrix: SymMatrix) -> tuple[list[list[int]], int]:
    """The rows of d·M as integers, d > 0 being the least common denominator.

    Scaling by a positive d keeps the sign of every leading minor, and the
    k-th minor of d·M is d**k times that of M, so fraction-free elimination
    can run on Python integers, where each of its divisions is exact.  An
    all-integer matrix, such as every Gram matrix, is copied with d = 1.
    """
    rows = matrix.rows()
    if all(type(x) is int for row in rows for x in row):
        return [list(row) for row in rows], 1
    d = 1
    for row in rows:
        for x in row:
            d = math.lcm(d, x.denominator)
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _eliminate_below(a: list[list[int]], k: int, prev: int) -> None:
    """One Bareiss step in place: clear column k below the pivot row k.

    Every entry x right of column k in a lower row becomes
    (p·x − l·y) / prev, with p = a[k][k], l the row's entry in column k, y the
    pivot row's entry above x and prev the previous pivot (1 at the start);
    Sylvester's identity makes each division exact.  Entries in columns up
    to k are left as they were and are never read again.
    """
    row_k = a[k]
    pivot = row_k[k]
    width = len(row_k)
    for i in range(k + 1, len(a)):
        row_i = a[i]
        lead = row_i[k]
        for j in range(k + 1, width):
            row_i[j] = (pivot * row_i[j] - lead * row_k[j]) // prev


def solve_symmetric(matrix: SymMatrix, rhs: Sequence[Rat | int]) -> tuple[Fraction, ...]:
    """Solve M·x = b exactly by fraction-free elimination over the integers.

    M is scaled to the integer matrix A = d·M and b to the integer vector
    c = e·b, d and e > 0 being least common denominators.  Bareiss
    elimination with row swaps runs on the augmented rows [A | c], each
    division exact, and leaves D = ±det A as its last pivot.  Integer
    back-substitution then gives z = D·A⁻¹c, which Cramer's rule makes
    integral, and x = d·z / (e·D) is the only step that builds `Fraction`
    objects.  The returned vector satisfies M·x − b = 0 identically.  Raises
    SingularMatrixError when M has determinant zero.
    """
    n = matrix.n
    if len(rhs) != n:
        raise ValueError(f"rhs has length {len(rhs)}, matrix has {n} rows")
    b = [_exact(v) for v in rhs]
    a, d = _integer_rows(matrix)
    e = 1
    for v in b:
        e = math.lcm(e, v.denominator)
    for row, v in zip(a, b):
        row.append(v.numerator * (e // v.denominator))
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                raise SingularMatrixError("matrix is singular")
            a[k], a[piv] = a[piv], a[k]
        _eliminate_below(a, k, prev)
        prev = a[k][k]
    z = [0] * n
    for i in range(n - 1, -1, -1):
        row_i = a[i]
        acc = prev * row_i[n]
        for j in range(i + 1, n):
            acc -= row_i[j] * z[j]
        z[i] = acc // row_i[i]
    scale = e * prev
    return tuple([Fraction(d * zi, scale) for zi in z])


def is_negative_definite(matrix: SymMatrix) -> bool:
    """Sylvester test: the k-th leading principal minor must carry sign (−1)^k.

    Implemented as fraction-free elimination, whose pivots are exactly the
    leading minors; a pivot of the wrong sign (or zero) settles the answer
    immediately.  The empty matrix is vacuously negative definite.
    """
    n = matrix.n
    a, _ = _integer_rows(matrix)
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot == 0:
            return False
        if (pivot < 0) != (k % 2 == 0):
            return False
        _eliminate_below(a, k, prev)
        prev = pivot
    return True


def determinant(matrix: SymMatrix) -> Fraction:
    """Exact determinant by fraction-free elimination with row pivoting."""
    n = matrix.n
    if n == 0:
        return Fraction(1)
    a, d = _integer_rows(matrix)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return Fraction(0)
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        _eliminate_below(a, k, prev)
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], d**n)
