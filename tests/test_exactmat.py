"""Exact linear algebra on lists of int/Fraction rows: products, inverses,
the spectral radius test, eigenpairs, and the reachability closure."""

from collections import deque
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from wordbalance.exactmat import (
    NotInvertibleError,
    binary_power,
    eigencheck,
    integer_eigenvalues,
    invert,
    kernel_basis,
    mat_mul,
    mat_vec,
    radius_below,
    reach,
    shifted,
)

entries = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
)


def matrices(n, m, elements=entries):
    return st.lists(st.lists(elements, min_size=m, max_size=m), min_size=n, max_size=n)


square_matrices = st.integers(0, 4).flatmap(lambda n: matrices(n, n))


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def leibniz_det(rows):
    """The determinant as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def holds_float(value):
    if isinstance(value, (list, tuple)):
        return any(map(holds_float, value))
    return isinstance(value, float)


class TestMatrixBasics:
    def test_shape_entry_col(self):
        # Products work on non-square rows: a unit vector reads a column.
        a = [[1, 2, 3], [4, 5, 6]]
        assert mat_vec(a, (0, 1, 0)) == (2, 5)
        assert mat_mul(a, identity(3)) == a
        assert mat_mul(identity(2), a) == a

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            mat_mul([[1, 0], [0, 1]], [[1, 2], [3]])
        with pytest.raises(ValueError):
            integer_eigenvalues([[1, 2], [3]])

    def test_identity(self):
        # shifted(a, t) is t*I - a; the zero matrix shifted by 1 is I.
        assert shifted([[0] * 3] * 3, 1) == identity(3)
        assert shifted([[1, 2], [3, 4]], 2) == [[1, -2], [-3, -2]]


class TestProducts:
    def test_mat_mul_known_value(self):
        assert mat_mul([[1, 2], [3, 4]], [[5, 6], [7, 8]]) == [[19, 22], [43, 50]]

    def test_mat_mul_shape_and_label_guards(self):
        with pytest.raises(ValueError):
            mat_mul([[1, 2]], [[1, 2]])

    def test_mat_vec(self):
        a = [[1, 2], [3, 4]]
        assert mat_vec(a, [1, 1]) == (3, 7)
        with pytest.raises(ValueError):
            mat_vec(a, [1, 1, 1])

    def test_mat_pow(self):
        a = [[1, 1], [0, 1]]
        assert binary_power(a, 1, mat_mul) == a
        assert binary_power(a, 5, mat_mul) == [[1, 5], [0, 1]]
        with pytest.raises(ValueError):
            binary_power([[1, 2, 3]], 2, mat_mul)

    def test_mat_pow_matches_repeated_products(self):
        # Binary powering against one product per power.
        a = [[1, Fraction(1, 2), 0], [2, 0, 1], [0, 3, Fraction(-1, 3)]]
        want = a
        for e in range(1, 13):
            assert binary_power(a, e, mat_mul) == want
            want = mat_mul(want, a)

    @given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3), st.data())
    def test_shape_mismatches_raise(self, n, k, m, data):
        # a has k columns, b and v another length; zip would silently
        # truncate to the shorter one.
        other = data.draw(st.integers(0, 4).filter(lambda j: j != k))
        a = data.draw(matrices(n, k))
        with pytest.raises(ValueError):
            mat_mul(a, data.draw(matrices(other, m)))
        with pytest.raises(ValueError):
            mat_vec(a, data.draw(matrices(1, other))[0])


def leading_minors_positive(rows, t):
    gap = shifted(rows, t)
    return all(leibniz_det([row[:k] for row in gap[:k]]) > 0 for k in range(1, len(rows) + 1))


@st.composite
def radius_cases(draw):
    """A nonnegative matrix of size 1..5 and t from 0 to its largest column
    sum + 1, which bounds rho."""
    n = draw(st.integers(1, 5))
    rows = draw(matrices(n, n, st.integers(0, 3)))
    return rows, draw(st.integers(0, max(map(sum, zip(*rows))) + 1))


class TestRadiusBelow:
    @given(radius_cases())
    # A zero (0, 0) entry of t*I - A: the first pivot comes from row 1.
    @example(([[2, 1], [1, 0]], 2))
    # t*I - A singular: rho = t, and the second column has no pivot.
    @example(([[1, 1], [1, 1]], 2))
    @example(([[1]], 1))
    def test_matches_leading_minors(self, case):
        rows, t = case
        assert radius_below(rows, t) == leading_minors_positive(rows, t)

    @given(square_matrices, st.integers(-4, 4))
    # t*I - A = [[0, 1], [1, 0]]: positive pivots after a row swap, but the
    # first leading minor is 0.
    @example([[0, -1], [-1, 0]], 0)
    def test_signed_matrices_match_leading_minors(self, rows, t):
        assert radius_below(rows, t) == leading_minors_positive(rows, t)

    def test_known_radii(self):
        # rho of the doubling matrix is 2; of [[1, 1], [1, 0]] the golden ratio.
        assert radius_below([[1, 1], [1, 1]], 3)
        assert not radius_below([[1, 1], [1, 1]], 2)
        assert radius_below([[1, 1], [1, 0]], 2)
        assert not radius_below([[1, 1], [1, 0]], 1)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            radius_below([[1, 2]], 3)


class TestInverse:
    def test_known_inverse(self):
        assert invert([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]

    def test_product_with_inverse_is_identity(self):
        a = [[2, 1, 0], [1, 1, 1], [0, 1, 3]]  # det 1
        assert mat_mul(a, invert(a)) == identity(3)

    def test_singular_and_non_square_rejected(self):
        with pytest.raises(NotInvertibleError):
            invert([[1, 2], [2, 4]])
        with pytest.raises(NotInvertibleError):
            invert([[1, 2]])

    @given(square_matrices)
    @example([[0, 1], [1, 0]])
    def test_inverse_times_matrix_is_identity(self, rows):
        assume(leibniz_det(rows) != 0)
        assert mat_mul(invert(rows), rows) == identity(len(rows))


class TestNoFloats:
    @given(square_matrices, st.data())
    def test_results_hold_no_float(self, rows, data):
        vector = data.draw(matrices(1, len(rows)))[0]
        results = [mat_mul(rows, rows), mat_vec(rows, vector), kernel_basis(rows)]
        results.append(integer_eigenvalues(rows))
        if leibniz_det(rows) != 0:
            results.append(invert(rows))
        assert not holds_float(results)


class TestEigen:
    def test_eigencheck_true_and_false(self):
        doubling = [[1, 1], [1, 1]]
        assert eigencheck(doubling, (1, 1), 2)
        assert eigencheck(doubling, (1, -1), 0)
        assert not eigencheck(doubling, (1, 1), 3)

    def test_zero_vector_claim_rejected(self):
        with pytest.raises(ValueError):
            eigencheck([[1, 0], [0, 1]], (0, 0), 1)

    def test_kernel_basis(self):
        assert kernel_basis([[1, 0], [0, 1]]) == ()
        assert kernel_basis([[0, 0], [0, 0]]) == ((1, 0), (0, 1))
        (k,) = kernel_basis([[1, 2], [2, 4]])
        assert any(x != 0 for x in k)
        assert mat_vec([[1, 2], [2, 4]], k) == (0, 0)
        a = [[1, 2, 3], [2, 4, 6]]
        basis = kernel_basis(a)
        assert len(basis) == 2
        assert all(mat_vec(a, v) == (0, 0) for v in basis)

    def test_integer_eigenvalues_include_negatives(self):
        # det(A - tI) = t^2 - 1 for the exchange matrix: eigenvalues -1 and 1.
        assert integer_eigenvalues([[0, 1], [1, 0]]) == (-1, 1)
        assert integer_eigenvalues([[1, 1], [1, 1]]) == (0, 2)
        assert integer_eigenvalues([[1, 1], [0, 1]]) == (1,)

    def test_integer_eigenvalues_negative_entries(self):
        # Row sums are -3 and 1, so a signed-sum bound of 1 would miss -3.
        assert integer_eigenvalues([[-3, 0], [0, 1]]) == (-3, 1)
        assert integer_eigenvalues([[0, -2], [-2, 0]]) == (-2, 2)

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    def test_integer_eigenvalues_match_brute_force(self, rows):
        def char_poly_at(t):
            # Leibniz expansion of det(A - tI).
            return leibniz_det(
                [[x - (t if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(rows)]
            )

        # |eigenvalue| <= the sum of all absolute entries, a norm of A.
        bound = sum(abs(x) for r in rows for x in r)
        want = tuple(t for t in range(-bound, bound + 1) if char_poly_at(t) == 0)
        assert integer_eigenvalues(rows) == want

    def test_integer_eigenvalues_non_square_rejected(self):
        with pytest.raises(ValueError):
            integer_eigenvalues([[1, 2]])


def searched_reach(rows, j):
    """The indices reached from column j in one or more steps, by a
    breadth-first search over the nonzero entries."""
    seen, todo = set(), deque([j])
    while todo:
        b = todo.popleft()
        for i, row in enumerate(rows):
            if row[b] and i not in seen:
                seen.add(i)
                todo.append(i)
    return seen


class TestReach:
    def test_pinned(self):
        # A 2-cycle, and a step 0 -> 1 with nothing after it.
        assert reach([[0, 1], [1, 0]]) == [{0, 1}, {0, 1}]
        assert reach([[0, 0], [1, 0]]) == [{1}, set()]
        # A self-loop puts a letter in its own reach; a zero row is reached
        # from nowhere.
        assert reach([[2, 0], [0, 0]]) == [{0}, set()]
        assert reach([]) == []

    @given(
        st.integers(0, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    @example([[1, 0, 0], [0, 0, 0], [1, 2, 0]])
    @example([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 2]])
    def test_matches_breadth_first_search(self, rows):
        assert reach(rows) == [searched_reach(rows, j) for j in range(len(rows))]
