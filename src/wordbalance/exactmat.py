"""Exact matrices as lists of rows of int or Fraction: products,
determinants, inverses, kernels, eigenpairs, reachability.

No floating point enters any result: every division goes through
fractions.Fraction, so integer matrices keep integer products and every
quotient stays exact.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import List, Sequence, Set, Tuple

Vector = Tuple[Fraction, ...]


class NotInvertibleError(ValueError):
    """Square matrix with determinant zero passed where an inverse is needed."""


def _square(a: Sequence[Sequence], what: str) -> int:
    if any(len(row) != len(a) for row in a):
        raise ValueError(f"{what} of a non-square matrix")
    return len(a)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> List[list]:
    """The product a*b of two matrices given as rows; ValueError when the
    shapes do not match, where zip alone would silently truncate."""
    cols = list(zip(*b, strict=True))
    widths = set(map(len, a))
    if widths - {len(b)}:
        raise ValueError(f"shape mismatch: rows of lengths {sorted(widths)} x {len(b)} rows")
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> Tuple:
    """The product a*v of a matrix given as rows and a vector."""
    if set(map(len, a)) - {len(v)}:
        raise ValueError(f"shape mismatch: matrix x vector of length {len(v)}")
    return tuple(sum(map(operator.mul, row, v)) for row in a)


def shifted(a: Sequence[Sequence], t) -> List[list]:
    """t*I - a for the square matrix a."""
    return [[(t if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(a)]


def reach(rows: Sequence[Sequence]) -> List[Set[int]]:
    """For each column j of a square matrix, the indices reached from j in
    one or more steps, a step going from column j to each row i with
    [i][j] nonzero (Warshall's closure, on sets). For an incidence matrix:
    the letters of the iterated images of letter j."""
    out = [{i for i, row in enumerate(rows) if row[j]} for j in range(len(rows))]
    for k, via in enumerate(out):
        for s in out:
            if k in s:
                s |= via
    return out


def binary_power(base, k: int, mul):
    """base^k for k >= 1 in about 2*log2(k) products, where mul is associative."""
    result = None
    while True:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if not k:
            return result
        base = mul(base, base)


def det(a: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = _square(a, "determinant")
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in r] for r in a]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _reduce(rows: List[list], width: int) -> List[int]:
    """Gauss-Jordan elimination of rows, in place, over their first width
    columns; returns the pivot columns. A column's pivot is the first row,
    from the next pivot row down, with a nonzero entry there; a column
    with none is skipped."""
    pivots: List[int] = []
    for c in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv_p = Fraction(1) / rows[r][c]
        rows[r] = [x * inv_p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return pivots


def invert(a: Sequence[Sequence]) -> List[List[Fraction]]:
    """Exact inverse via Gauss-Jordan on [a | I]; raises NotInvertibleError
    when singular."""
    if any(len(row) != len(a) for row in a):
        raise NotInvertibleError("non-square matrix")
    n = len(a)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    if len(_reduce(aug, n)) < n:
        raise NotInvertibleError("singular matrix")
    return [r[n:] for r in aug]


def eigencheck(a: Sequence[Sequence], vector: Sequence, eigenvalue) -> bool:
    """True iff a * v == lambda * v holds exactly for the nonzero vector v."""
    if all(x == 0 for x in vector):
        raise ValueError("eigenvector claim with zero vector")
    return mat_vec(a, vector) == tuple(eigenvalue * x for x in vector)


def kernel_basis(a: Sequence[Sequence]) -> Tuple[Vector, ...]:
    """A basis of the rational solutions of a*x = 0, one vector per free column."""
    m = len(a[0]) if a else 0
    rows = [list(r) for r in a]
    pivots = _reduce(rows, m)
    basis = []
    for c0 in (c for c in range(m) if c not in pivots):
        x = [Fraction(0)] * m
        x[c0] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = -rows[i][c0]
        basis.append(tuple(x))
    return tuple(basis)


def integer_eigenvalues(a: Sequence[Sequence]) -> Tuple[int, ...]:
    """All integer eigenvalues t of a (det(t*I - a) == 0), ascending.

    The spectral radius, which bounds every eigenvalue's absolute value, is
    at most the maximal absolute row sum and at most the maximal absolute
    column sum (the infinity and 1 norms); every integer t with |t| at most
    the smaller one is tried. For nonnegative matrices these are the plain
    row and column sums.
    """
    _square(a, "eigenvalues")
    row_max = max((sum(map(abs, r)) for r in a), default=0)
    col_max = max((sum(map(abs, c)) for c in zip(*a)), default=0)
    bound = math.floor(min(row_max, col_max))
    return tuple(t for t in range(-bound, bound + 1) if det(shifted(a, t)) == 0)
