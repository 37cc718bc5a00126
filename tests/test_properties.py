"""Property-based invariants across the library, via hypothesis."""

from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from wordbalance.balance import coarsening_bound, imbalance
from wordbalance.exactmat import NotInvertibleError, det, invert, mat_mul, mat_vec
from wordbalance.language import factorial_closure
from wordbalance.report import (
    from_csv,
    from_json,
    rational_str,
    to_csv,
    to_json,
)
from wordbalance.substitution import (
    Substitution,
    coding_identity_sides,
    compose,
    incidence_counts,
)
from wordbalance.verification import block_substitution
from wordbalance.words import (
    Alphabet,
    Word,
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
    return rows


class TestCountingProperties:
    @given(binary_text, st.integers(1, 4), patterns)
    def test_coding_transfers_counts(self, text, n, pat):
        if len(pat) != n:
            pat = (pat * n)[:n]
        coded = n_coding(Word.from_text(text, BIN), n)
        symbol = tuple(pat)
        block_count = sum(1 for s in coded.symbols if s == symbol)
        assert block_count == brute_count(text, pat)

    @given(binary_text, binary_text, patterns)
    def test_concat_superadditive(self, a, b, pat):
        wa, wb = Word.from_text(a, BIN), Word.from_text(b, BIN)
        v = tuple(pat)
        joined = brute_count(wa.concat(wb).symbols, v)
        assert joined >= brute_count(wa.symbols, v) + brute_count(wb.symbols, v)
        if len(pat) == 1:
            assert joined == brute_count(wa.symbols, v) + brute_count(wb.symbols, v)


class TestSubstitutionProperties:
    @given(endomorphisms(), endomorphisms())
    def test_incidence_multiplicative(self, outer, inner):
        lhs = incidence_counts(compose(outer, inner))
        rhs = mat_mul(incidence_counts(outer), incidence_counts(inner))
        assert lhs == rhs

    @given(endomorphisms(), binary_text)
    def test_image_counts_follow_incidence(self, sigma, text):
        counts = [brute_count(text, a) for a in "01"]
        image = sigma.apply(Word.from_text(text, BIN)).render()
        image_counts = [brute_count(image, a) for a in "01"]
        m = incidence_counts(sigma)
        assert image_counts == list(mat_vec(m, counts))

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
            n = len(m)
            assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


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
        assert Fraction(rational_str(f)) == f


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
        assert brute_count(w.high.symbols, w.factor.symbols) == w.count_high
        assert brute_count(w.low.symbols, w.factor.symbols) == w.count_low
        assert w.imbalance == entry.empirical_c
