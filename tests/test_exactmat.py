"""Exact rational linear algebra: determinants, inverses, eigenpairs, and
the reachability closure."""

from collections import deque
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wordbalance.exactmat import (
    EigenpairClaim,
    LabelMismatchError,
    NotInvertibleError,
    RationalMatrix,
    det,
    eigencheck,
    integer_eigenvalues,
    invert,
    kernel_basis,
    mat_mul,
    mat_pow,
    mat_vec,
    reach,
    vec,
    vec_scale,
)


def M(rows, rl=None, cl=None):
    return RationalMatrix.from_rows(rows, rl, cl)


class TestVectors:
    def test_vec_coerces_to_fractions(self):
        assert vec([1, 2]) == (Fraction(1), Fraction(2))
        assert vec_scale(Fraction(1, 2), vec([2, 4])) == (Fraction(1), Fraction(2))


class TestMatrixBasics:
    def test_shape_entry_col(self):
        a = M([[1, 2, 3], [4, 5, 6]], rl=("x", "y"), cl=("p", "q", "r"))
        assert a.shape == (2, 3)
        assert a.entry(1, 2) == 6
        assert a.col(1) == (Fraction(2), Fraction(5))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            M([[1, 2], [3]])

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            M([[1, 2]], rl=("x", "y"))
        with pytest.raises(ValueError):
            M([[1, 2]], cl=("p",))

    def test_identity(self):
        i = RationalMatrix.identity(3, labels=("a", "b", "c"))
        assert i.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert i.row_labels == i.col_labels == ("a", "b", "c")
        assert i.is_square()


class TestProducts:
    def test_mat_mul_known_value(self):
        a = M([[1, 2], [3, 4]])
        b = M([[5, 6], [7, 8]])
        assert mat_mul(a, b).rows == ((19, 22), (43, 50))

    def test_mat_mul_shape_and_label_guards(self):
        with pytest.raises(ValueError):
            mat_mul(M([[1, 2]]), M([[1, 2]]))
        a = M([[1, 0], [0, 1]], cl=("p", "q"))
        b = M([[1, 0], [0, 1]], rl=("p", "r"))
        with pytest.raises(LabelMismatchError):
            mat_mul(a, b)

    def test_mat_mul_labels_propagate(self):
        a = M([[1]], rl=("x",), cl=("m",))
        b = M([[1]], rl=("m",), cl=("y",))
        c = mat_mul(a, b)
        assert c.row_labels == ("x",) and c.col_labels == ("y",)

    def test_mat_vec(self):
        a = M([[1, 2], [3, 4]])
        assert mat_vec(a, [1, 1]) == (Fraction(3), Fraction(7))
        with pytest.raises(ValueError):
            mat_vec(a, [1, 1, 1])
        labelled = M([[1, 2]], cl=("p", "q"))
        with pytest.raises(LabelMismatchError):
            mat_vec(labelled, [1, 2], labels=("p", "r"))

    def test_mat_pow(self):
        a = M([[1, 1], [0, 1]])
        assert mat_pow(a, 0).rows == ((1, 0), (0, 1))
        assert mat_pow(a, 5).rows == ((1, 5), (0, 1))
        with pytest.raises(ValueError):
            mat_pow(M([[1, 2, 3]]), 2)
        with pytest.raises(ValueError):
            mat_pow(a, -1)

    def test_mat_pow_matches_repeated_products(self):
        # Binary powering against one product per power, with labels kept.
        a = M([[1, Fraction(1, 2), 0], [2, 0, 1], [0, 3, Fraction(-1, 3)]], "xyz", "xyz")
        want = RationalMatrix.identity(3, "xyz")
        for e in range(13):
            assert mat_pow(a, e) == want
            want = mat_mul(want, a)


class TestDeterminant:
    def test_known_values(self):
        assert det(M([[1, 2], [3, 4]])) == -2
        assert det(M([[2, 0, 1], [1, 3, -1], [0, 5, 2]])) == 27
        assert det(M([[1, 2], [2, 4]])) == 0
        assert det(M([])) == 1

    def test_exact_fractions(self):
        a = M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]])
        assert det(a) == Fraction(1, 60)

    def test_zero_pivot_needs_row_swap(self):
        assert det(M([[0, 1], [1, 0]])) == -1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det(M([[1, 2]]))


class TestInverse:
    def test_known_inverse(self):
        a = M([[2, 1], [1, 1]])
        assert invert(a).rows == ((1, -1), (-1, 2))

    def test_product_with_inverse_is_identity(self):
        a = M([[2, 1, 0], [1, 1, 1], [0, 1, 3]])  # det 1
        prod = mat_mul(a, invert(a))
        assert prod.rows == RationalMatrix.identity(3).rows

    def test_labels_swap_sides(self):
        a = M([[2]], rl=("r",), cl=("c",))
        inv = invert(a)
        assert inv.row_labels == ("c",) and inv.col_labels == ("r",)

    def test_singular_and_non_square_rejected(self):
        with pytest.raises(NotInvertibleError):
            invert(M([[1, 2], [2, 4]]))
        with pytest.raises(NotInvertibleError):
            invert(M([[1, 2]]))


class TestEigen:
    def test_eigencheck_true_and_false(self):
        doubling = M([[1, 1], [1, 1]])
        assert eigencheck(doubling, EigenpairClaim(vector=(1, 1), eigenvalue=2))
        assert eigencheck(doubling, EigenpairClaim(vector=(1, -1), eigenvalue=0))
        assert not eigencheck(doubling, EigenpairClaim(vector=(1, 1), eigenvalue=3))

    def test_zero_vector_claim_rejected(self):
        with pytest.raises(ValueError):
            EigenpairClaim(vector=(0, 0), eigenvalue=1)

    def test_kernel_basis(self):
        assert kernel_basis(M([[1, 0], [0, 1]])) == ()
        assert kernel_basis(M([[0, 0], [0, 0]])) == ((1, 0), (0, 1))
        (k,) = kernel_basis(M([[1, 2], [2, 4]]))
        assert any(x != 0 for x in k)
        assert mat_vec(M([[1, 2], [2, 4]]), k) == (Fraction(0), Fraction(0))
        a = M([[1, 2, 3], [2, 4, 6]])
        basis = kernel_basis(a)
        assert len(basis) == 2
        assert all(mat_vec(a, v) == (0, 0) for v in basis)

    def test_integer_eigenvalues_include_negatives(self):
        # det(A - tI) = t^2 - 1 for the exchange matrix: eigenvalues -1 and 1.
        assert integer_eigenvalues(M([[0, 1], [1, 0]])) == (-1, 1)
        assert integer_eigenvalues(M([[1, 1], [1, 1]])) == (0, 2)
        assert integer_eigenvalues(M([[1, 1], [0, 1]])) == (1,)

    def test_integer_eigenvalues_negative_entries(self):
        # Row sums are -3 and 1, so a signed-sum bound of 1 would miss -3.
        assert integer_eigenvalues(M([[-3, 0], [0, 1]])) == (-3, 1)
        assert integer_eigenvalues(M([[0, -2], [-2, 0]])) == (-2, 2)

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    def test_integer_eigenvalues_match_brute_force(self, rows):
        n = len(rows)

        def char_poly_at(t):
            # Leibniz expansion of det(A - tI).
            total = 0
            for perm in permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = sign
                for i in range(n):
                    term *= rows[i][perm[i]] - (t if i == perm[i] else 0)
                total += term
            return total

        # |eigenvalue| <= the sum of all absolute entries, a norm of A.
        bound = sum(abs(x) for r in rows for x in r)
        want = tuple(t for t in range(-bound, bound + 1) if char_poly_at(t) == 0)
        assert integer_eigenvalues(M(rows)) == want

    def test_integer_eigenvalues_non_square_rejected(self):
        with pytest.raises(ValueError):
            integer_eigenvalues(M([[1, 2]]))


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
