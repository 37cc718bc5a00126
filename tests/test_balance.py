"""Balance measurement, frequency vectors, and image decompositions."""

import bisect
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordbalance.balance import (
    FrequencyVector,
    NotRepresentable,
    balance_report,
    coarsening_bound,
    decompose_in_image,
    decompose_pair_in_image,
    frequency_deviation,
    frequency_vector,
    image_letter_bound,
    image_window_bound_constant,
    imbalance,
    lift_frequency,
    pair_tail_bound,
    perron_frequency,
)
from wordbalance import language
from wordbalance.exactmat import NotInvertibleError, eigencheck
from wordbalance.language import (
    LanguageSample,
    SampleMeta,
    _decode,
    _image_table,
    _letter_codes,
    factorial_closure,
    parse_directive,
    sample_level_language,
)
from wordbalance.substitution import Substitution, incidence_counts
from wordbalance.words import Alphabet, Word, block_alphabet, sort_words

BIN = Alphabet.from_text("01")
L = Substitution.from_text("0->0;1->10")
M = Substitution.from_text("0->01;1->10")
R = Substitution.from_text("0->01;1->1")


@pytest.fixture(scope="module")
def small_sample():
    return factorial_closure([Word.from_text("0011", BIN)], 4)


class TestImbalance:
    def test_letter_entry(self, small_sample):
        entry = imbalance(small_sample, 1)
        assert entry.factor_length == 1
        assert entry.empirical_c == 2
        assert entry.curve == ((1, 1), (2, 2), (3, 1), (4, 0))
        w = entry.witness
        assert w.high.render() == "00"
        assert w.low.render() == "11"
        assert w.factor.render() == "0"
        assert (w.count_high, w.count_low) == (2, 0)
        assert w.imbalance == 2

    def test_report_sorts_the_sample_once(self, monkeypatch):
        # A fresh sample: the session fixture's classes may be cached already.
        sample = sample_level_language(parse_directive("|M"), 0, 8)
        calls = []
        monkeypatch.setattr(
            language, "sorted", lambda *a, **k: calls.append(1) or sorted(*a, **k), raising=False
        )
        balance_report(sample, 6)
        f_emp = frequency_vector(sample)
        frequency_deviation(sample, f_emp)
        frequency_deviation(sample, perron_frequency(incidence_counts(M), BIN.symbols))
        assert len(calls) == 1

    def test_length_two_entry(self, small_sample):
        entry = imbalance(small_sample, 2)
        assert entry.empirical_c == 1
        assert entry.curve == ((1, 0), (2, 1), (3, 1), (4, 0))
        w = entry.witness
        assert w.high.render() == "00"
        assert w.low.render() == "01"
        assert w.factor.render() == "00"

    def test_factor_length_guard(self, small_sample):
        with pytest.raises(ValueError):
            imbalance(small_sample, 0)

    def test_brute_force_agreement(self, tm_sample):
        # Independent recomputation of the n=2 curve on the exact sample.
        entry = imbalance(tm_sample, 2)
        factors = [w for w in tm_sample.words if len(w) == 2]
        for length, value in entry.curve:
            cls = [w for w in tm_sample.words if len(w) == length]
            best = 0
            for v in factors:
                counts = [overlapping_count(w.symbols, v.symbols) for w in cls]
                best = max(best, max(counts) - min(counts))
            assert value == best

    def test_thue_morse_letter_imbalance(self, tm_sample):
        assert imbalance(tm_sample, 1).empirical_c == 2

    def test_report_shape(self, small_sample):
        entries = balance_report(small_sample, 2)
        assert [e.factor_length for e in entries] == [1, 2]


def overlapping_count(text, pattern):
    return sum(
        1 for i in range(len(text) - len(pattern) + 1) if text[i : i + len(pattern)] == pattern
    )


def pairwise_imbalance(words, n, cap):
    """Reference on Words: every ordered pair (x, y) of a length class, x == y
    included, in (factor, x, y) order, classes in sort_words order; the first
    strictly larger count difference wins, within a class and across classes.
    Returns (value, curve, witness as a (high, low, factor, count_high,
    count_low) tuple of Words and counts, or None)."""
    ordered = sort_words(words)
    factors = [w for w in ordered if len(w) == n]
    best = None
    curve = []
    for length in sorted({len(w) for w in words if 0 < len(w) <= cap}):
        cls = [w for w in ordered if len(w) == length]
        class_best = None
        if len(cls) >= 2:
            for v in factors:
                for x in cls:
                    for y in cls:
                        cx = overlapping_count(x.symbols, v.symbols)
                        cy = overlapping_count(y.symbols, v.symbols)
                        if class_best is None or cx - cy > class_best[0]:
                            class_best = (cx - cy, x, y, v, cx, cy)
        curve.append((length, class_best[0] if class_best else 0))
        if class_best and (best is None or class_best[0] > best[0]):
            best = class_best
    return (best[0] if best else 0), tuple(curve), (best[1:] if best else None)


def assert_matches_pairwise_reference(entry, sample, n, cap):
    value, curve, witness = pairwise_imbalance(sample.words, n, cap)
    assert entry.empirical_c == value
    assert entry.curve == curve
    got = entry.witness
    assert (
        None if got is None else (got.high, got.low, got.factor, got.count_high, got.count_low)
    ) == witness


@st.composite
def small_factorial_samples(draw):
    letters = draw(st.sampled_from(["01", "012"]))
    texts = draw(st.lists(st.text(alphabet=letters, min_size=1, max_size=12), min_size=1, max_size=3))
    alphabet = Alphabet.from_text(letters)
    cap = draw(st.integers(1, 8))
    return factorial_closure([Word.from_text(t, alphabet) for t in texts], cap)


# Alphabets whose order is not the natural order of their symbols.
REORDERED = (
    Alphabet(("1", "0")),
    Alphabet((2, 0, 1)),
    block_alphabet(Alphabet(("1", "0")), 2),
)


@st.composite
def reordered_samples(draw):
    alphabet = draw(st.sampled_from(REORDERED))
    letters = st.lists(st.sampled_from(alphabet.symbols), min_size=1, max_size=10)
    texts = draw(st.lists(letters, min_size=1, max_size=3))
    cap = draw(st.integers(1, 8))
    return factorial_closure([Word(tuple(t), alphabet) for t in texts], cap)


def coded_sample(alphabet, codes):
    """A sample of exactly these letter-code strings, factorial or not."""
    cap = max(map(len, codes), default=0)
    return LanguageSample(alphabet, 0, cap, frozenset(codes), SampleMeta(0, 0, False, False))


@st.composite
def arbitrary_samples(draw):
    """Samples built from any set of codes: words whose prefix is missing,
    classes shorter than the factor length, and letters in no factor."""
    alphabet = draw(st.sampled_from([BIN, Alphabet.from_text("012")]))
    letters = "".join(map(chr, range(len(alphabet))))
    codes = draw(st.frozensets(st.text(alphabet=letters, max_size=7), max_size=16))
    return coded_sample(alphabet, codes)


class TestCodeOrder:
    """Sample codes sort like sort_words sorts the Words they spell."""

    @given(reordered_samples())
    def test_length_classes_follow_sort_words(self, sample):
        symbols = sample.alphabet.symbols
        got = {
            length: [Word(tuple(symbols[ord(c)] for c in s), sample.alphabet) for s in cls]
            for length, cls in sample.classes.items()
        }
        want = {}
        for w in sort_words(sample.words):
            if len(w):
                want.setdefault(len(w), []).append(w)
        assert list(got.items()) == list(want.items())

    @given(reordered_samples(), st.integers(1, 3))
    def test_imbalance_matches_pairwise_reference(self, sample, n):
        entry = imbalance(sample, n)
        assert_matches_pairwise_reference(entry, sample, n, sample.max_length)


class TestWordsStayAtTheBoundary:
    def test_balance_and_frequencies_decode_only_witnesses(self, monkeypatch):
        sample = sample_level_language(parse_directive("|M"), 0, 40)
        built = []
        real = Word.__init__
        monkeypatch.setattr(Word, "__init__", lambda w, *args: built.append(w) or real(w, *args))
        # Words built from checked parts skip __init__; count them too.
        real_checked = Word._from_checked
        monkeypatch.setattr(
            Word,
            "_from_checked",
            classmethod(lambda cls, symbols, a: built.append(symbols) or real_checked(symbols, a)),
        )
        balance_report(sample, 2)
        assert len(built) <= 6
        built.clear()
        for f in (frequency_vector(sample), perron_frequency(incidence_counts(M), BIN.symbols)):
            frequency_deviation(sample, f)
        assert built == []
        assert "words" not in vars(sample)


class TestBalanceAgainstBruteForce:
    @given(small_factorial_samples(), st.integers(1, 3))
    def test_imbalance_matches_pairwise_reference(self, sample, n):
        entry = imbalance(sample, n)
        assert_matches_pairwise_reference(entry, sample, n, sample.max_length)

    @given(arbitrary_samples(), st.integers(1, 4))
    # The length-3 words lack their prefixes, and "\2" is no length-1 word.
    @example(coded_sample(Alphabet.from_text("012"), {"\0", "\1", "\1\0\2", "\1\2\1"}), 1)
    # Length-2 factors, but a shorter class and words without their prefix.
    @example(coded_sample(BIN, {"\0", "\1", "\0\1", "\1\1\0", "\0\0\0", "\0\0\0\1"}), 2)
    def test_non_factorial_imbalance_matches_pairwise_reference(self, sample, n):
        entry = imbalance(sample, n)
        assert_matches_pairwise_reference(entry, sample, n, sample.max_length)

    @given(st.one_of(small_factorial_samples(), reordered_samples()))
    def test_letter_imbalance_matches_pairwise_reference(self, sample):
        # n = 1 tallies whole strings rather than their slices.
        entry = imbalance(sample, 1)
        assert_matches_pairwise_reference(entry, sample, 1, sample.max_length)

    @given(small_factorial_samples(), st.integers(1, 4))
    def test_report_entries_are_imbalances(self, sample, n_max):
        entries = balance_report(sample, n_max)
        assert entries == tuple(imbalance(sample, n) for n in range(1, n_max + 1))

    @given(small_factorial_samples(), st.lists(st.integers(0, 5), min_size=3, max_size=3))
    def test_frequency_deviation_matches_every_word(self, sample, weights):
        letters = sample.alphabet.symbols
        weights = weights[: len(letters)]
        if sum(weights) == 0:
            weights[0] = 1
        given_f = FrequencyVector(
            sample.alphabet, tuple(Fraction(x, sum(weights)) for x in weights)
        )
        for f in (given_f, frequency_vector(sample)):
            worst = Fraction(0)
            for w in sample.words:
                text = w.render()
                for a in letters:
                    worst = max(worst, abs(text.count(a) - f[a] * len(text)))
            assert frequency_deviation(sample, f) == worst

    @given(small_factorial_samples())
    def test_empirical_frequency_matches_longest_words(self, sample):
        top = max(len(w) for w in sample.words)
        longest = [w.render() for w in sample.words if len(w) == top]
        f = frequency_vector(sample)
        for a in sample.alphabet.symbols:
            assert f[a] == Fraction(sum(t.count(a) for t in longest), top * len(longest))


class TestFrequency:
    def test_empirical_thue_morse(self, tm_sample):
        f = frequency_vector(tm_sample)
        assert f.values == (Fraction(1, 2), Fraction(1, 2))
        f = perron_frequency(incidence_counts(M), BIN.symbols)
        assert f.values == (Fraction(1, 2), Fraction(1, 2))

    def test_empirical_skewed(self, small_sample):
        f = frequency_vector(small_sample)  # single longest word "0011"
        assert f.values == (Fraction(1, 2), Fraction(1, 2))
        assert f["0"] == Fraction(1, 2)

    def test_empirical_requires_nonempty(self):
        empty = factorial_closure([], 3, alphabet=BIN)
        with pytest.raises(ValueError):
            frequency_vector(empty)

    @pytest.mark.parametrize(
        "sub,want",
        [
            (L, (Fraction(1), Fraction(0))),
            (M, (Fraction(1, 2), Fraction(1, 2))),
            (R, (Fraction(0), Fraction(1))),
        ],
    )
    def test_perron_values(self, sub, want):
        assert perron_frequency(incidence_counts(sub), BIN.symbols).values == want

    def test_perron_refuses_a_plane_of_eigenvectors(self):
        with pytest.raises(ValueError, match="eigenspace has dimension 2"):
            perron_frequency(incidence_counts(Substitution.from_text("0->00;1->11")), "01")
        with pytest.raises(ValueError, match="eigenspace has dimension 2"):
            perron_frequency(incidence_counts(Substitution.from_text("0->00;1->11;2->2")), "012")

    def test_perron_accepts_a_jordan_block(self):
        # L's incidence [[1,1],[0,1]] has the double eigenvalue 1 but a
        # one-dimensional eigenspace, so its frequencies are unique.
        assert incidence_counts(L) == [[1, 1], [0, 1]]
        assert perron_frequency(incidence_counts(L), BIN.symbols).values == (Fraction(1), Fraction(0))

    def test_perron_refuses_an_irrational_spectral_radius(self):
        # 1 is the largest integer eigenvalue, but the golden ratio of the
        # class {a, b} is the spectral radius.
        sub = Substitution.from_text("a->abc;b->a;c->c")
        with pytest.raises(ValueError, match="spectral radius is not an integer"):
            perron_frequency(incidence_counts(sub), "abc")

    def test_perron_refuses_a_nilpotent_matrix(self):
        # rho = 0: [[0]] once gave frequency 1 to a letter that never occurs.
        for rows, letters in (([[0]], "0"), ([[0, 1], [0, 0]], "01")):
            with pytest.raises(ValueError, match="^spectral radius is 0: "):
                perron_frequency(rows, letters)

    @settings(max_examples=200)
    @given(
        st.integers(2, 4).flatmap(
            lambda k: st.lists(
                st.text(alphabet="abcd"[:k], min_size=1, max_size=3), min_size=k, max_size=k
            )
        )
    )
    @example(["b", "aa"])
    def test_perron_served_iff_the_spectral_radius_is_its_eigenvalue(self, images):
        # numpy's eigenvalues, an oracle that shares no code with the exact
        # check, give the spectral radius rho. A served vector must be an
        # exact eigenvector of the nearest integer to rho; a spectral-radius
        # refusal needs rho off every integer (0->1;1->00 has rho = sqrt 2
        # and no integer eigenvalue at all).
        import numpy as np

        sub = Substitution.from_text(";".join(f"{a}->{w}" for a, w in zip("abcd", images)))
        m = incidence_counts(sub)
        rho = max(abs(np.linalg.eigvals(np.array(m, dtype=float))))
        k = round(rho)
        try:
            f = perron_frequency(m, sub.codomain.symbols)
        except ValueError as exc:
            if "spectral radius is not an integer" in str(exc):
                assert abs(rho - k) > 1e-3
            return
        assert abs(rho - k) < 1e-6
        assert eigencheck(m, f.values, k)
        assert all(v >= 0 for v in f.values)

    def test_perron_refuses_a_negative_entry(self):
        # The eigenvalues are 1 and 3; the eigenvector of 3 is (1, -1), so
        # no frequency vector belongs to the spectral radius.
        with pytest.raises(ValueError, match="nonnegative matrix"):
            perron_frequency([[2, -1], [-1, 2]], "ab")

    def test_perron_needs_endomorphism(self):
        widening = Substitution.from_text("0->012;1->01")
        with pytest.raises(ValueError):
            perron_frequency(incidence_counts(widening), "012")

    def test_perron_needs_integer_eigenvalue(self):
        irrational = Substitution.from_text("0->1;1->00")
        with pytest.raises(ValueError):
            perron_frequency(incidence_counts(irrational), "01")

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyVector(BIN, (Fraction(1, 2),))
        with pytest.raises(ValueError):
            FrequencyVector(BIN, (Fraction(3, 2), Fraction(-1, 2)))
        with pytest.raises(ValueError):
            FrequencyVector(BIN, (Fraction(1, 2), Fraction(1, 3)))

    def test_deviation_brute_force(self, tm_sample):
        f = frequency_vector(tm_sample)
        dev = frequency_deviation(tm_sample, f)
        worst = Fraction(0)
        for w in tm_sample.words:
            for a in "01":
                got = overlapping_count(w.render(), a)
                worst = max(worst, abs(Fraction(got) - f[a] * len(w)))
        assert dev == worst
        assert dev >= Fraction(1, 2)  # single letters already deviate by 1/2

    def test_deviation_alphabet_mismatch(self, tm_sample):
        other = Alphabet.from_text("ab")
        f = FrequencyVector(other, (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(ValueError):
            frequency_deviation(tm_sample, f)


class TestLift:
    def test_uniform_through_left_substitution(self):
        f = FrequencyVector(BIN, (Fraction(1, 2), Fraction(1, 2)))
        lifted = lift_frequency(f, L)
        assert lifted.values == (Fraction(0), Fraction(1, 2))
        assert lifted.total == Fraction(1, 2)
        assert not lifted.normalized
        assert lifted.nonnegative
        assert lifted.alphabet == BIN

    def test_fixed_vector_of_left_incidence(self):
        f = perron_frequency(incidence_counts(L), BIN.symbols)
        lifted = lift_frequency(f, L)
        assert lifted.values == tuple(f.values)
        assert lifted.normalized and lifted.nonnegative

    def test_exact_identity_on_image_frequencies(self, tm_sample):
        # Push the sample through a letter swap: empirical frequencies of the
        # image lift back exactly to the source frequencies.
        swap = Substitution.from_text("0->1;1->0")
        image = factorial_closure(
            [swap.apply(w) for w in sort_words(w for w in tm_sample.words if w)], 8
        )
        lifted = lift_frequency(frequency_vector(image), swap)
        assert lifted.values == tuple(frequency_vector(tm_sample).values)
        assert lifted.normalized

    def test_singular_incidence_rejected(self):
        f = FrequencyVector(BIN, (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(NotInvertibleError):
            lift_frequency(f, M)

    def test_alphabet_guard(self):
        other = Alphabet.from_text("ab")
        f = FrequencyVector(other, (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(ValueError):
            lift_frequency(f, L)


class TestDecomposition:
    def test_exact_image(self, tm_sample):
        d = decompose_in_image(Word.from_text("0110", BIN), M, tm_sample)
        assert (d.head.render(), d.core.render(), d.tail.render()) == ("", "01", "")
        assert d.reassemble(M).render() == "0110"

    def test_offset_alignment(self, tm_sample):
        d = decompose_in_image(Word.from_text("110", BIN), M, tm_sample)
        assert (d.head.render(), d.core.render(), d.tail.render()) == ("1", "1", "")
        assert d.reassemble(M).render() == "110"

    def test_not_representable(self, tm_sample):
        cube = Word.from_text("111", BIN)
        with pytest.raises(NotRepresentable) as exc:
            decompose_in_image(cube, M, tm_sample)
        assert exc.value.word == cube

    def test_alphabet_guards(self, tm_sample):
        other = Alphabet.from_text("ab")
        with pytest.raises(ValueError):
            decompose_in_image(Word.from_text("ab", other), M, tm_sample)
        swap_domains = Substitution.from_text("a->ab;b->ba")
        with pytest.raises(ValueError):
            decompose_in_image(Word.from_text("ab", other), swap_domains, tm_sample)

    def test_pair_core_equalization(self, tm_sample):
        d1, d2 = decompose_pair_in_image(
            Word.from_text("0110", BIN), Word.from_text("1101", BIN), M, tm_sample
        )
        assert (d1.head.render(), d1.core.render(), d1.tail.render()) == ("", "0", "10")
        assert (d2.head.render(), d2.core.render(), d2.tail.render()) == ("1", "1", "1")
        assert len(d1.core) == len(d2.core)
        assert d1.reassemble(M).render() == "0110"
        assert d2.reassemble(M).render() == "1101"

    def test_pair_needs_equal_lengths(self, tm_sample):
        with pytest.raises(ValueError):
            decompose_pair_in_image(
                Word.from_text("01", BIN), Word.from_text("011", BIN), M, tm_sample
            )

    @pytest.mark.parametrize(
        "sigma",
        [L, M, R, Substitution.from_text("0->1;1->0"), Substitution.from_text("0->0;1->")],
        ids=["L", "M", "R", "swap", "erasing"],
    )
    def test_matches_brute_force_over_image_factors(self, left_sample, sigma):
        # Every factor of an image of a sample word, decomposed by trying
        # every occurrence in every image on symbol tuples.
        def brute_force(w):
            found = []
            for v in left_sample.words:
                image = sigma.apply(v).symbols
                ends = [0]
                for a in v.symbols:
                    ends.append(ends[-1] + len(sigma.image(a)))
                for p in range(len(image) - len(w) + 1):
                    if image[p : p + len(w)] != w.symbols:
                        continue
                    e = p + len(w)
                    i0 = min(i for i, c in enumerate(ends) if c >= p)
                    j0 = max(j for j, c in enumerate(ends) if c <= e)
                    if j0 >= i0:
                        head, core, tail = image[p : ends[i0]], v.symbols[i0:j0], image[ends[j0] : e]
                        found.append((len(head), -len(core), head, core, tail))
            return min(found)[2:] if found else None

        factors = {
            sigma.apply(v).sub(i, j)
            for v in left_sample.words
            for i in range(len(sigma.apply(v)))
            for j in range(i + 1, len(sigma.apply(v)) + 1)
        }
        assert len(factors) >= 10
        for w in sort_words(factors):
            d = decompose_in_image(w, sigma, left_sample)
            assert (d.head.symbols, d.core.symbols, d.tail.symbols) == brute_force(w)

    def test_reassembly_over_sample(self, tm_sample):
        # Every image of a length-3 sample word decomposes and reassembles.
        for w in (w for w in tm_sample.words if len(w) == 3):
            image = M.apply(w)
            d = decompose_in_image(image, M, tm_sample)
            assert d.reassemble(M) == image
            assert d.head.render() == "" and d.tail.render() == ""
            assert len(d.core) == 3


def per_word_decomposition(w, sigma, sample):
    """The former decompose_in_image search, one translate and one offset
    list per sample word; the reference for the search over one joined
    image. Returns (head, core, tail) as Words, or None."""
    code = _letter_codes(sigma.codomain)
    target = "".join(map(code.__getitem__, w.symbols))
    table = _image_table(sigma)
    best = None
    for v in sample.codes:
        image = v.translate(table)
        p = image.find(target)
        if p < 0:
            continue
        cum = list(itertools.accumulate((len(table[ord(c)]) for c in v), initial=0))
        while p >= 0:
            e = p + len(target)
            i0 = bisect.bisect_left(cum, p)
            j0 = bisect.bisect_right(cum, e) - 1
            if j0 >= i0:
                key = (cum[i0] - p, i0 - j0, image[p : cum[i0]], v[i0:j0], image[cum[j0] : e])
                if best is None or key < best:
                    best = key
            p = image.find(target, p + 1)
    if best is None:
        return None
    head, core, tail = best[2:]
    return (
        _decode(head, sigma.codomain), _decode(core, sigma.domain), _decode(tail, sigma.codomain)
    )


@st.composite
def decomposition_cases(draw):
    """(w, sigma, sample): any sample, a substitution on its alphabet with
    erasing images and a codomain narrower or wider than its domain, and w
    often a factor of an image of a sample word, the empty word included."""
    sample = draw(arbitrary_samples())
    codomain = Alphabet.from_text(draw(st.sampled_from(["0", "01", "0123"])))
    letters = st.text(alphabet="".join(codomain.symbols), max_size=3)
    sigma = Substitution(
        sample.alphabet,
        codomain,
        {a: Word(tuple(draw(letters)), codomain) for a in sample.alphabet.symbols},
    )
    if sample.codes and draw(st.booleans()):
        image = sigma.apply(_decode(draw(st.sampled_from(sorted(sample.codes))), sample.alphabet))
        i = draw(st.integers(0, len(image)))
        w = image.sub(i, draw(st.integers(i, len(image))))
    else:
        w = Word(tuple(draw(st.text(alphabet="".join(codomain.symbols), max_size=4))), codomain)
    return w, sigma, sample


# Images 01 and 10 under M: 0110 spans the junction of two words' images,
# so it has no decomposition; 10 is a whole image, and 1 ends one image and
# starts the other.
LETTER_SAMPLE = coded_sample(BIN, {"\0", "\1"})


class TestDecompositionAgainstPerWordSearch:
    @given(decomposition_cases())
    # An erasing 1 lets the empty word take a core of several letters.
    @example(
        (
            Word.empty(BIN),
            Substitution.from_text("0->01;1->"),
            coded_sample(BIN, {"", "\0", "\0\1\1", "\1\1"}),
        )
    )
    # The only word, 011, has none of its prefixes or suffixes in the sample.
    @example((Word.from_text("1101", BIN), M, coded_sample(BIN, {"\0\1\1"})))
    @example((Word.from_text("0110", BIN), M, LETTER_SAMPLE))
    @example((Word.from_text("10", BIN), M, LETTER_SAMPLE))
    @example((Word.from_text("1", BIN), M, LETTER_SAMPLE))
    @settings(max_examples=300)
    def test_matches_per_word_search(self, case):
        w, sigma, sample = case
        want = per_word_decomposition(w, sigma, sample)
        try:
            d = decompose_in_image(w, sigma, sample)
        except NotRepresentable:
            assert want is None
        else:
            assert (d.head, d.core, d.tail) == want


class TestBounds:
    def test_coarsening_literal(self):
        assert coarsening_bound(3, 4, 2, 2) == 15
        assert coarsening_bound(1, 2, 1, 2) == 3
        with pytest.raises(ValueError):
            coarsening_bound(1, 3, 0, 2)
        with pytest.raises(ValueError):
            coarsening_bound(1, 3, 3, 2)

    def test_pair_tail_literal(self):
        assert pair_tail_bound(2, 2, 2) == 10
        assert pair_tail_bound(1, 2, 1) == 2

    def test_image_letter_literal(self):
        assert image_letter_bound(2, 2, 2) == 18
        assert image_letter_bound(1, 2, 2) == 10

    def test_image_window_literal(self):
        assert image_window_bound_constant(2, 2, 1, 2, 2) == 14
        assert image_window_bound_constant(1, 1, 2, 2, 3) == 19
        with pytest.raises(ValueError):
            image_window_bound_constant(1, 1, 0, 2, 2)
