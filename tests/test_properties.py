"""Property-based invariants across the library, via hypothesis."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from wordbalance.balance import coarsening_bound, imbalance
from wordbalance.exactmat import (
    NotInvertibleError,
    RationalMatrix,
    det,
    invert,
    mat_mul,
    mat_vec,
)
from wordbalance.language import factorial_closure
from wordbalance.report import (
    from_csv,
    from_json,
    parse_rational,
    rational_str,
    to_csv,
    to_json,
)
from wordbalance.substitution import (
    Substitution,
    coding_identity_sides,
    compose,
    incidence_matrix,
)
from wordbalance.tms import block_substitution
from wordbalance.words import (
    Alphabet,
    Word,
    count_occurrences,
    n_coding,
)

BIN = Alphabet.from_text("01")

binary_text = st.text(alphabet="01", max_size=40)
nonempty_binary = st.text(alphabet="01", min_size=1, max_size=40)
patterns = st.text(alphabet="01", min_size=1, max_size=4)


def brute_count(text: str, pat: str) -> int:
    return sum(
        1
        for i in range(len(text) - len(pat) + 1)
        if text[i : i + len(pat)] == pat
    )


@st.composite
def endomorphisms(draw):
    im0 = draw(st.text(alphabet="01", min_size=1, max_size=4))
    im1 = draw(st.text(alphabet="01", min_size=1, max_size=4))
    return Substitution.from_text(f"0->{im0};1->{im1}")


@st.composite
def matrices(draw, size=None):
    n = size if size is not None else draw(st.integers(1, 3))
    entries = st.fractions(
        min_value=-5, max_value=5, max_denominator=6
    )
    rows = draw(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    return RationalMatrix.from_rows(rows)


class TestCountingProperties:
    @given(binary_text, patterns)
    def test_count_matches_oracle(self, text, pat):
        w = Word.from_text(text, BIN)
        v = Word.from_text(pat, BIN)
        assert count_occurrences(w, v) == brute_count(text, pat)

    @given(binary_text, st.integers(1, 4), patterns)
    def test_coding_transfers_counts(self, text, n, pat):
        if len(pat) != n:
            pat = (pat * n)[:n]
        w = Word.from_text(text, BIN)
        v = Word.from_text(pat, BIN)
        coded = n_coding(w, n)
        symbol = tuple(pat)
        block_count = sum(1 for s in coded.symbols if s == symbol)
        assert block_count == count_occurrences(w, v)

    @given(binary_text, binary_text, patterns)
    def test_concat_superadditive(self, a, b, pat):
        wa, wb = Word.from_text(a, BIN), Word.from_text(b, BIN)
        v = Word.from_text(pat, BIN)
        joined = count_occurrences(wa.concat(wb), v)
        assert joined >= count_occurrences(wa, v) + count_occurrences(wb, v)
        if len(pat) == 1:
            assert joined == count_occurrences(wa, v) + count_occurrences(wb, v)


class TestSubstitutionProperties:
    @given(endomorphisms(), endomorphisms())
    def test_incidence_multiplicative(self, outer, inner):
        lhs = incidence_matrix(compose(outer, inner))
        rhs = mat_mul(incidence_matrix(outer), incidence_matrix(inner))
        assert lhs.rows == rhs.rows

    @given(endomorphisms(), binary_text)
    def test_image_counts_follow_incidence(self, sigma, text):
        w = Word.from_text(text, BIN)
        counts = [
            count_occurrences(w, Word.from_text(a, BIN)) if text else 0
            for a in "01"
        ]
        image = sigma.apply(w)
        image_counts = [
            count_occurrences(image, Word.from_text(a, BIN)) if len(image) else 0
            for a in "01"
        ]
        m = incidence_matrix(sigma)
        assert [Fraction(c) for c in image_counts] == list(mat_vec(m, counts))

    @given(nonempty_binary)
    def test_block_coding_identity(self, text):
        bs = block_substitution()
        w = Word.from_text(text, BIN)
        lhs, rhs = coding_identity_sides(bs, w)
        assert lhs == rhs


class TestMatrixProperties:
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(matrices(n), matrices(n))))
    def test_det_multiplicative(self, pair):
        a, b = pair
        assert det(mat_mul(a, b)) == det(a) * det(b)

    @given(matrices())
    def test_inverse_or_singular(self, m):
        if det(m) == 0:
            try:
                invert(m)
            except NotInvertibleError:
                pass
            else:
                raise AssertionError("singular matrix inverted")
        else:
            inv = invert(m)
            prod = mat_mul(m, inv)
            n = m.shape[0]
            identity = RationalMatrix.identity(n)
            assert prod.rows == identity.rows


json_keys = st.from_regex(r"[a-z0-9_]{1,8}", fullmatch=True)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-10**6, 10**6)
    | st.text(alphabet="abc01_/- ", max_size=8)
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(json_keys, children, max_size=4),
    max_leaves=20,
)
json_reports = st.dictionaries(json_keys, json_trees, max_size=5)


class TestReportProperties:
    @given(json_reports)
    def test_csv_round_trip(self, tree):
        assert from_csv(to_csv(tree)) == tree

    @given(json_reports)
    def test_json_round_trip(self, tree):
        assert from_json(to_json(tree)) == tree

    @given(st.fractions(max_denominator=10**6))
    def test_rational_round_trip(self, f):
        assert parse_rational(rational_str(f)) == f


class TestBalanceProperties:
    @given(st.lists(nonempty_binary, min_size=1, max_size=3))
    def test_coarsening_inequality_on_factorial_samples(self, texts):
        cap = min(max(len(t) for t in texts), 16)
        sample = factorial_closure(
            [Word.from_text(t, BIN) for t in texts], cap
        )
        entries = {n: imbalance(sample, n) for n in range(1, 4)}
        for n in (2, 3):
            for k in range(1, n):
                bound = coarsening_bound(entries[n].empirical_c, n, k, 2)
                assert entries[k].empirical_c <= bound

    @given(st.lists(nonempty_binary, min_size=1, max_size=3), st.integers(1, 3))
    def test_witness_recounts(self, texts, n):
        cap = min(max(len(t) for t in texts), 16)
        sample = factorial_closure([Word.from_text(t, BIN) for t in texts], cap)
        entry = imbalance(sample, n)
        if entry.witness is None:
            assert entry.empirical_c == 0
            return
        w = entry.witness
        assert len(w.high) == len(w.low)
        assert count_occurrences(w.high, w.factor) == w.count_high
        assert count_occurrences(w.low, w.factor) == w.count_low
        assert w.imbalance == entry.empirical_c
