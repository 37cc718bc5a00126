"""Exact matrices as lists of rows of int or Fraction: products, inverses,
kernels, the spectral radius test, eigenpairs, reachability.

One elimination loop, the Gauss-Jordan _reduce, serves the singularity
test of integer eigenvalues, inverses, kernels and the radius test.

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


def _reduce(rows: List[list], width: int) -> Tuple[List[Tuple[int, Fraction]], int]:
    """Gauss-Jordan elimination of rows, in place, over their first width
    columns. A column's pivot is the first row, from the next pivot row
    down, with a nonzero entry there; a column with none is skipped.
    Returns each pivot's column and its value before its row is scaled,
    and the number of row swaps."""
    pivots: List[Tuple[int, Fraction]] = []
    swaps = 0
    for c in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            swaps += 1
        p = rows[r][c]
        inv_p = Fraction(1) / p
        rows[r] = [x * inv_p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append((c, p))
    return pivots, swaps


def radius_below(a: Sequence[Sequence], t) -> bool:
    """Is every leading principal minor of t*I - a positive? For a
    nonnegative square a, that is exactly rho(a) < t (a nonsingular
    M-matrix).

    With no row swap, the k-th leading minor is the product of _reduce's
    first k pivots; a swap at step k means that minor is 0.
    """
    n = _square(a, "radius test")
    pivots, swaps = _reduce(shifted(a, t), n)
    return swaps == 0 and len(pivots) == n and all(p > 0 for _, p in pivots)


def invert(a: Sequence[Sequence]) -> List[List[Fraction]]:
    """Exact inverse via Gauss-Jordan on [a | I]; raises NotInvertibleError
    when singular."""
    if any(len(row) != len(a) for row in a):
        raise NotInvertibleError("non-square matrix")
    n = len(a)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    if len(_reduce(aug, n)[0]) < n:
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
    pivots = [c for c, _ in _reduce(rows, m)[0]]
    basis = []
    for c0 in (c for c in range(m) if c not in pivots):
        x = [Fraction(0)] * m
        x[c0] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = -rows[i][c0]
        basis.append(tuple(x))
    return tuple(basis)


def integer_eigenvalues(a: Sequence[Sequence]) -> Tuple[int, ...]:
    """All integer eigenvalues t of a (a column of t*I - a has no pivot), ascending.

    The spectral radius, which bounds every eigenvalue's absolute value, is
    at most the maximal absolute row sum and at most the maximal absolute
    column sum (the infinity and 1 norms); every integer t with |t| at most
    the smaller one is tried. For nonnegative matrices these are the plain
    row and column sums.
    """
    n = _square(a, "eigenvalues")
    row_max = max((sum(map(abs, r)) for r in a), default=0)
    col_max = max((sum(map(abs, c)) for c in zip(*a)), default=0)
    bound = math.floor(min(row_max, col_max))
    return tuple(t for t in range(-bound, bound + 1) if len(_reduce(shifted(a, t), n)[0]) < n)
