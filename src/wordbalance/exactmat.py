"""Exact rational matrices: determinants, inverses, and eigenpair checks.

Everything runs on fractions.Fraction; no floating point enters any result.
Matrices carry optional row/column labels and label mismatches are errors,
never silent reorders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

Rational = Fraction
Vector = Tuple[Fraction, ...]


class NotInvertibleError(ValueError):
    """Square matrix with determinant zero passed where an inverse is needed."""


class LabelMismatchError(ValueError):
    """Operands carry labels that do not line up."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact arithmetic only: got {type(x).__name__}")


def vec(values: Sequence) -> Vector:
    return tuple(_frac(v) for v in values)


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    c = _frac(c)
    return tuple(c * a for a in v)


@dataclass(frozen=True)
class RationalMatrix:
    """Dense exact matrix with optional row/column labels."""

    rows: Tuple[Tuple[Fraction, ...], ...]
    row_labels: Optional[Tuple] = None
    col_labels: Optional[Tuple] = None

    def __post_init__(self) -> None:
        rows = tuple(tuple(_frac(x) for x in r) for r in self.rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", rows)
        if self.row_labels is not None and len(self.row_labels) != len(rows):
            raise ValueError("row label count mismatch")
        if self.col_labels is not None and rows and len(self.col_labels) != len(rows[0]):
            raise ValueError("column label count mismatch")

    @classmethod
    def from_rows(cls, rows, row_labels=None, col_labels=None) -> "RationalMatrix":
        return cls(
            tuple(tuple(r) for r in rows),
            tuple(row_labels) if row_labels is not None else None,
            tuple(col_labels) if col_labels is not None else None,
        )

    @classmethod
    def identity(cls, n: int, labels=None) -> "RationalMatrix":
        rows = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
        )
        labels = tuple(labels) if labels is not None else None
        return cls(rows, labels, labels)

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def is_square(self) -> bool:
        n, m = self.shape
        return n == m

    def transpose(self) -> "RationalMatrix":
        n, m = self.shape
        return RationalMatrix(
            tuple(tuple(self.rows[i][j] for i in range(n)) for j in range(m)),
            self.col_labels,
            self.row_labels,
        )


def _check_inner_labels(a: RationalMatrix, b_labels) -> None:
    if a.col_labels is not None and b_labels is not None and a.col_labels != tuple(b_labels):
        raise LabelMismatchError(
            f"inner labels differ: {a.col_labels!r} vs {tuple(b_labels)!r}"
        )


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    n, k = a.shape
    k2, m = b.shape
    if k != k2:
        raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
    _check_inner_labels(a, b.row_labels)
    rows = tuple(
        tuple(sum((a.rows[i][t] * b.rows[t][j] for t in range(k)), Fraction(0)) for j in range(m))
        for i in range(n)
    )
    return RationalMatrix(rows, a.row_labels, b.col_labels)


def mat_vec(a: RationalMatrix, v: Sequence, labels=None) -> Vector:
    n, k = a.shape
    v = vec(v)
    if k != len(v):
        raise ValueError(f"shape mismatch: {a.shape} x vector of length {len(v)}")
    _check_inner_labels(a, labels)
    return tuple(sum((a.rows[i][t] * v[t] for t in range(k)), Fraction(0)) for i in range(n))


def mat_pow(a: RationalMatrix, e: int) -> RationalMatrix:
    if not a.is_square():
        raise ValueError("power of a non-square matrix")
    if e < 0:
        raise ValueError("negative power")
    result = RationalMatrix.identity(a.shape[0], a.row_labels)
    for _ in range(e):
        result = mat_mul(result, a)
    return result


def det(a: RationalMatrix) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not a.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = a.shape[0]
    if n == 0:
        return Fraction(1)
    m = [list(r) for r in a.rows]
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


def invert(a: RationalMatrix) -> RationalMatrix:
    """Exact inverse via Gauss-Jordan; raises NotInvertibleError when singular.

    Labels swap sides: rows of the inverse are labelled by a's columns.
    """
    if not a.is_square():
        raise NotInvertibleError("non-square matrix")
    n = a.shape[0]
    aug = [list(r) + [Fraction(1 if i == j else 0) for j in range(n)] for i, r in enumerate(a.rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise NotInvertibleError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    rows = tuple(tuple(r[n:]) for r in aug)
    return RationalMatrix(rows, a.col_labels, a.row_labels)


@dataclass(frozen=True)
class EigenpairClaim:
    """A claimed eigenvector/eigenvalue pair to be checked exactly."""

    vector: Vector
    eigenvalue: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector", vec(self.vector))
        object.__setattr__(self, "eigenvalue", _frac(self.eigenvalue))
        if all(x == 0 for x in self.vector):
            raise ValueError("eigenvector claim with zero vector")


def eigencheck(a: RationalMatrix, claim: EigenpairClaim) -> bool:
    """True iff a * v == lambda * v holds exactly."""
    return mat_vec(a, claim.vector) == vec_scale(claim.eigenvalue, claim.vector)


def kernel_basis(a: RationalMatrix) -> Tuple[Vector, ...]:
    """A basis of the rational solutions of a*x = 0, one vector per free column."""
    n, m = a.shape
    rows = [list(r) for r in a.rows]
    pivots = []
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv_p = Fraction(1) / rows[r][c]
        rows[r] = [x * inv_p for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    basis = []
    for c0 in (c for c in range(m) if c not in pivots):
        x = [Fraction(0)] * m
        x[c0] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = -rows[i][c0]
        basis.append(tuple(x))
    return tuple(basis)


def integer_eigenvalues(a: RationalMatrix, upper_bound: Optional[int] = None) -> Tuple[int, ...]:
    """All integers t with |t| <= bound and det(a - t*I) == 0, ascending.

    The spectral radius, which bounds every eigenvalue's absolute value, is
    at most the maximal absolute row sum and at most the maximal absolute
    column sum (the infinity and 1 norms); the smaller one, rounded down,
    is the default bound. For nonnegative matrices these are the plain row
    and column sums.
    """
    if not a.is_square():
        raise ValueError("eigenvalues of a non-square matrix")
    n = a.shape[0]
    if upper_bound is None:
        row_max = max((sum(map(abs, r)) for r in a.rows), default=Fraction(0))
        col_max = max((sum(map(abs, a.col(j))) for j in range(n)), default=Fraction(0))
        upper_bound = math.floor(min(row_max, col_max))
    found = []
    for t in range(-upper_bound, upper_bound + 1):
        shifted = RationalMatrix(
            tuple(
                tuple(a.rows[i][j] - (t if i == j else 0) for j in range(n))
                for i in range(n)
            )
        )
        if det(shifted) == 0:
            found.append(t)
    return tuple(found)
