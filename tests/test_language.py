"""Directive sequences, language sampling, and growth decisions."""

import collections
import itertools
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wordbalance import cli, language, verification
from wordbalance.balance import FrequencyVector, perron_frequency
from wordbalance.exactmat import mat_vec
from wordbalance.language import (
    DirectiveSequence,
    GrowthReport,
    LanguageSample,
    ResourceLimitError,
    SampleMeta,
    factorial_closure,
    is_everywhere_growing,
    is_factorial,
    parse_directive,
    sample_level_language,
)
from wordbalance.substitution import Substitution, SubstitutionError, compose, incidence_counts
from wordbalance.words import Alphabet, Word, block_alphabet, n_coding

BIN = Alphabet.from_text("01")


class TestDirectiveSequence:
    def test_prefix_and_period_structure(self):
        d = parse_directive("LM|R")
        assert d.prefix_length == 2 and d.period_length == 1
        assert d.period is not None
        assert d.max_defined_level() is None
        assert d.describe() == "LM|R"

    def test_describe_without_names(self):
        swap = Substitution.from_text("0->1;1->0")
        assert DirectiveSequence(period=(swap,)).describe() == "[]|[0->1;1->0]"

    def test_finite_directive(self):
        d = parse_directive("LM|")
        assert d.period is None
        assert d.max_defined_level() == 2
        with pytest.raises(SubstitutionError):
            d.substitution_at(2)

    def test_periodic_wraparound(self):
        d = parse_directive("L|MR")
        names = [d.substitution_at(j).to_text() for j in range(5)]
        assert names == [
            "0->0;1->10",   # L
            "0->01;1->10",  # M
            "0->01;1->1",   # R
            "0->01;1->10",  # M
            "0->01;1->1",   # R
        ]
        with pytest.raises(IndexError):
            d.substitution_at(-1)

    def test_needs_at_least_one_substitution(self):
        with pytest.raises(SubstitutionError):
            DirectiveSequence(prefix=(), period=None)
        with pytest.raises(SubstitutionError):
            DirectiveSequence(prefix=(), period=())

    def test_chain_mismatch_rejected(self):
        t = Substitution.from_text("a->ab;b->a")
        l = Substitution.from_text("0->0;1->10")
        with pytest.raises(SubstitutionError):
            DirectiveSequence(prefix=(l, t), period=(t,))


class TestTowerCounts:
    def test_identity_at_zero_height(self):
        d = parse_directive("|M")
        assert language._tower_counts(d, 0, 0) == [[1, 0], [0, 1]]
        assert language._tower_counts(d, 1, 1) == [[1, 0], [0, 1]]

    def test_directive_order_is_outermost_first(self):
        # L(M(0)) = 010 and L(M(1)) = 100; M(L(.)) would give 01 and 1001.
        d = parse_directive("LM|R")
        assert language._tower_counts(d, 0, 2) == [[2, 2], [1, 1]]

    def test_alphabet_changing_levels(self):
        registry = {
            "A": Substitution.from_text("a->001;b->;c->1", Alphabet.from_text("01")),
            "B": Substitution.from_text("0->ab;1->cca", Alphabet.from_text("abc")),
        }
        d = parse_directive("|AB", registry)
        # A(B(0)) = A(ab) = 001 and A(B(1)) = A(cca) = 11001.
        assert language._tower_counts(d, 0, 2) == [[2, 2], [1, 3]]
        # B(A(a)) = B(001), B(A(b)) = B() and B(A(c)) = B(1).
        assert language._tower_counts(d, 1, 3) == [[3, 0, 1], [2, 0, 0], [2, 0, 2]]


class TestFactorialClosure:
    def test_contains_all_factors(self):
        sample = factorial_closure([Word.from_text("0011", BIN)], 4)
        got = {w.render() for w in sample.words}
        want = {"", "0", "1", "00", "01", "11", "001", "011", "0011"}
        assert got == want
        assert is_factorial(sample)
        assert sample.meta.exact

    def test_cap_truncates(self):
        sample = factorial_closure([Word.from_text("0011", BIN)], 2)
        assert max(len(w) for w in sample.words) == 2

    def test_alphabet_handling(self):
        with pytest.raises(ValueError):
            factorial_closure([], 3)
        empty = factorial_closure([], 3, alphabet=BIN)
        assert {w.render() for w in empty.words} == {""}
        other = Alphabet.from_text("ab")
        with pytest.raises(ValueError):
            factorial_closure(
                [Word.from_text("0", BIN), Word.from_text("a", other)], 3
            )

    def test_block_letters(self):
        blocks = block_alphabet(BIN, 2)
        coded = [n_coding(Word.from_text(t, BIN), 2) for t in ("0110100110", "00111")]
        for cap in (0, 1, 3, 9, 20):
            sample = factorial_closure(coded, cap)
            want = {()} | {
                w.symbols[i:j]
                for w in coded
                for i in range(len(w))
                for j in range(i + 1, min(i + cap, len(w)) + 1)
            }
            assert {w.symbols for w in sample.words} == want
            assert sample.alphabet == blocks and sample.max_length == cap

    def test_is_factorial_detects_gaps(self):
        meta = SampleMeta(depth=0, window=0, exact=False, saturated=False)
        for codes in (["", "\x00\x00"], ["\x00"]):  # missing "0", missing ""
            sample = LanguageSample(
                alphabet=BIN, level=0, max_length=2, codes=frozenset(codes), meta=meta
            )
            assert not is_factorial(sample)


class TestSampleAccessors:
    def test_nonempty_words_sorted(self, tm_sample):
        assert Word.from_text("01", BIN) in tm_sample
        assert len([w for w in tm_sample.words if w]) == len(tm_sample) - 1

    def test_codes_spell_the_words(self):
        alphabet = Alphabet(("1", "0"))  # letter "1" is code chr(0)
        sample = factorial_closure([Word.from_text("110", alphabet)], 2)
        assert sample.codes == {"", "\x00", "\x01", "\x00\x00", "\x00\x01"}
        assert {w.render() for w in sample.words} == {"", "1", "0", "11", "10"}
        assert all(w.alphabet == alphabet for w in sample.words)


class TestExactSampling:
    def test_doubling_language_truncation(self, tm_sample):
        assert tm_sample.meta.exact
        assert is_factorial(tm_sample)
        assert len(tm_sample) == 93
        assert Word.from_text("110011", BIN) in tm_sample
        assert Word.from_text("000", BIN) not in tm_sample
        assert Word.from_text("111", BIN) not in tm_sample

    def test_left_fixed_point_language(self):
        sample = sample_level_language(parse_directive("|L"), 0, 3)
        got = {w.render() for w in sample.words}
        assert got == {"", "0", "1", "00", "10", "000", "100"}
        assert sample.meta.exact

    def test_right_fixed_point_language(self):
        sample = sample_level_language(parse_directive("|R"), 0, 3)
        got = {w.render() for w in sample.words}
        assert got == {"", "0", "1", "01", "11", "011", "111"}
        assert sample.meta.exact

    def test_max_length_zero(self):
        sample = sample_level_language(parse_directive("|M"), 0, 0)
        assert {w.render() for w in sample.words} == {""}

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            sample_level_language(parse_directive("|M"), 0, -1)


def naive_fixed_point(tau, seed, cap):
    """Reference: S_0 = {seed}, S_i = all factors of length 1..cap of tau(S_{i-1}),
    every word re-imaged every round, until a round repeats. Returns the final
    set (with the empty word) and the number of rounds."""
    current = {(seed,)} if cap >= 1 else set()
    rounds = 0
    while True:
        rounds += 1
        nxt = set()
        for w in current:
            image = tuple(s for b in w for s in tau.image(b).symbols)
            for i in range(len(image)):
                for j in range(i + 1, min(i + cap, len(image)) + 1):
                    nxt.add(image[i:j])
        if nxt == current:
            break
        current = nxt
    return current | {()}, rounds


def first_admissible_seed(tau):
    """First letter a (alphabet order) with a in tau(a) from which every letter
    is reachable in the occurrence graph; None when there is none."""
    letters = tau.domain.symbols
    for a in letters:
        if a not in tau.image(a).symbols:
            continue
        seen, todo = {a}, [a]
        while todo:
            for c in tau.image(todo.pop()).symbols:
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
        if len(seen) == len(letters):
            return a
    return None


@st.composite
def admissible_substitutions(draw):
    letters = "012"[: draw(st.integers(2, 3))]
    images = [draw(st.text(alphabet=letters, min_size=1, max_size=3)) for _ in letters]
    tau = Substitution.from_text(";".join(f"{a}->{w}" for a, w in zip(letters, images)))
    assume(first_admissible_seed(tau) is not None)
    return tau


def thue_morse_complexity(n):
    """Factor complexity of the Thue-Morse word in closed form (Brlek 1989):
    for n = 2^r + q + 1 with 0 < q <= 2^r, p(n) = 6*2^(r-1) + 4q when
    q <= 2^(r-1), and 8*2^(r-1) + 2q otherwise."""
    if n <= 2:
        return (1, 2, 4)[n]
    r = (n - 2).bit_length() - 1
    q = n - 1 - 2**r
    if 2 * q <= 2**r:
        return 3 * 2**r + 4 * q
    return 4 * 2**r + 2 * q


class TestExactSeed:
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.text(alphabet="abcd"[:k], max_size=3), min_size=k, max_size=k
            )
        )
    )
    # b occurs in tau(a) and a in tau(b), so a occurs in tau^2(a) but not
    # in tau(a): no seed.
    @example(["b", "a"])
    # Seeds a, and b after a letter that is not one.
    @example(["ab", "a"])
    @example(["b", "bc", "a"])
    def test_matches_the_searched_seed(self, images):
        # The sample is None exactly when no letter seeds it, and otherwise
        # runs the rounds of the first seed.
        tau = Substitution.from_text(";".join(f"{a}->{w}" for a, w in zip("abcd", images)))
        want = first_admissible_seed(tau) if tau.is_non_erasing() else None
        sample = language._exact_sample(DirectiveSequence(period=(tau,)), 0, 6)
        if want is None:
            assert sample is None
        else:
            words, rounds = naive_fixed_point(tau, want, 6)
            assert ({w.symbols for w in sample.words}, sample.meta.depth) == (words, rounds)


class TestExactSamplerAgainstReference:
    @given(admissible_substitutions(), st.integers(0, 12))
    def test_matches_naive_fixed_point(self, tau, cap):
        d = DirectiveSequence(period=(tau,))
        sample = sample_level_language(d, 0, cap)
        words, rounds = naive_fixed_point(tau, first_admissible_seed(tau), cap)
        assert sample.meta.exact
        assert {w.symbols for w in sample.words} == words
        assert sample.meta.depth == rounds

    @pytest.mark.parametrize("directive,cap", [("|M", 8), ("|M", 16), ("|L", 40), ("|R", 40)])
    def test_pinned_directives_match_naive(self, directive, cap):
        d = parse_directive(directive)
        tau = d.period[0]
        words, rounds = naive_fixed_point(tau, first_admissible_seed(tau), cap)
        sample = sample_level_language(d, 0, cap)
        assert {w.symbols for w in sample.words} == words
        assert sample.meta.depth == rounds

    def test_non_character_symbols(self):
        ints = Alphabet((10, 20, 30))
        tau = Substitution(
            ints,
            ints,
            {
                10: Word((10, 20), ints),
                20: Word((30,), ints),
                30: Word((20, 10, 10), ints),
            },
        )
        sample = sample_level_language(DirectiveSequence(period=(tau,)), 0, 9)
        words, rounds = naive_fixed_point(tau, 10, 9)
        assert {w.symbols for w in sample.words} == words
        assert sample.meta.depth == rounds

    def test_a_long_letter_chain_needs_more_rounds_than_letters(self):
        # a_0 -> a_0 a_1, a_i -> a_{i+1}, a_70 -> a_70: the seed a_0 reaches
        # a_70 only after 70 rounds, whatever the cap.
        letters = [chr(0xC0 + i) for i in range(71)]
        rules = [f"{letters[0]}->{letters[0]}{letters[1]}", f"{letters[-1]}->{letters[-1]}"]
        rules += [f"{a}->{b}" for a, b in zip(letters[1:-1], letters[2:])]
        tau = Substitution.from_text(";".join(rules))
        sample = sample_level_language(parse_directive("|S", {"S": tau}), 0, 2)
        words, rounds = naive_fixed_point(tau, letters[0], 2)
        assert sample.meta.exact
        assert {w.symbols for w in sample.words} == words
        assert len(words) == 143 and sample.meta.depth == rounds == 72

    @pytest.mark.parametrize("cap,rounds", [(8, 6), (40, 9), (48, 9)])
    def test_thue_morse_rounds_pinned(self, cap, rounds):
        # Round counts of the naive every-word iteration at these caps.
        assert sample_level_language(parse_directive("|M"), 0, cap).meta.depth == rounds

    def test_thue_morse_complexity_closed_form(self):
        d = parse_directive("|M")
        for cap in range(1, 65):
            sample = sample_level_language(d, 0, cap)
            assert len(sample) == 1 + sum(thue_morse_complexity(n) for n in range(1, cap + 1)), cap
        per_length = {}
        for w in sample.words:
            per_length[len(w)] = per_length.get(len(w), 0) + 1
        assert per_length == {n: thue_morse_complexity(n) for n in range(65)}
        # Every word occurs in the Thue-Morse word (binary digit-sum parity),
        # so with the counts above the sample is exactly its factor set.
        text = "".join(str(bin(i).count("1") % 2) for i in range(4096))
        assert all(w.render() in text for w in sample.words)


class TestWindowedSampling:
    def test_multi_substitution_period(self):
        sample = sample_level_language(parse_directive("RL|LR"), 0, 6)
        assert not sample.meta.exact
        assert sample.meta.saturated
        assert is_factorial(sample)
        assert sample.alphabet == BIN

    def test_windowed_doubling_matches_exact(self, tm_sample):
        windowed = sample_level_language(
            parse_directive("|M"), 0, 6, depth=8, window=2
        )
        exact = {w.render() for w in tm_sample.words if len(w) <= 6}
        assert {w.render() for w in windowed.words} == exact
        assert not windowed.meta.exact  # explicit depth forces the window path
        assert windowed.meta.saturated

    def test_a_tower_that_does_not_grow_is_sampled_twelve_levels_down(self):
        # The swap has no letter in its own image, so no exact seed, and its
        # letter images stay one letter long.
        d = parse_directive("|S", {"S": Substitution.from_text("0->1;1->0")})
        sample = sample_level_language(d, 0, 8)
        assert sample.meta == SampleMeta(depth=12, window=3, exact=False, saturated=True)
        assert sample.codes == {"", "\x00", "\x01"}

    def test_level_one_sample(self):
        sample = sample_level_language(parse_directive("RL|LR"), 1, 5)
        assert is_factorial(sample)
        assert sample.level == 1

    def test_depth_above_level_required(self):
        with pytest.raises(ValueError):
            sample_level_language(parse_directive("RL|LR"), 2, 4, depth=1)

    def test_finite_directive_too_short(self):
        with pytest.raises(ValueError):
            sample_level_language(parse_directive("ML|"), 0, 4, depth=1, window=5)


def tuple_windowed_sample(d, k, max_length, depth, window, limit):
    """Reference windowed sampler on symbol tuples: every factor of length
    1..max_length of every letter image, level by level, with the image
    lengths of the whole window charged to one budget. Returns the word
    tuples, the meta fields and the charge, or raises like the sampler."""
    step = max(1, d.period_length)
    deepest = depth + window + step
    images = {a: (a,) for a in d.level_alphabet(k).symbols}
    factor_sets = []
    budget = 0
    for n in range(k, deepest + 1):
        if n >= depth:
            pool = set()
            for syms in images.values():
                budget += len(syms)
                for length in range(1, min(len(syms), max_length) + 1):
                    for i in range(len(syms) - length + 1):
                        pool.add(syms[i : i + length])
            factor_sets.append(pool)
        if n < deepest:
            sig = d.substitution_at(n)
            images = {
                a: tuple(s for b in sig.image(a).symbols for s in images[b])
                for a in sig.domain.symbols
            }
    if budget > limit:
        raise ResourceLimitError(f"sample window needs {budget} characters, limit {limit}")
    core = set.intersection(*factor_sets[: window + 1]) | {()}
    shifted = set.intersection(*factor_sets[step : step + window + 1]) | {()}
    return core, SampleMeta(depth=depth, window=window, exact=False, saturated=core == shifted), budget


TUPLES = Alphabet(((0,), (1,), (2,)))


@st.composite
def windowed_requests(draw):
    """A directive E·prefix|period with E mapping the binary letters to tuple
    symbols (images may be empty), a prefix over {L, M, R, Z} where Z is a
    drawn binary substitution with an erasing image, and a period over
    {L, M, R}; plus a cap, a depth and a window."""
    e_images = {
        a: Word(tuple(draw(st.lists(st.sampled_from(TUPLES.symbols), max_size=3))), TUPLES)
        for a in "01"
    }
    erasing = draw(st.sampled_from("01"))
    z_images = {a: "" if a == erasing else draw(st.text(alphabet="01", max_size=3)) for a in "01"}
    registry = {
        "E": Substitution(BIN, TUPLES, e_images),
        "Z": Substitution.from_text(f"0->{z_images['0']};1->{z_images['1']}", BIN),
    }
    prefix = "E" + draw(st.text(alphabet="LMRZ", max_size=3))
    period = draw(st.text(alphabet="LMR", min_size=1, max_size=3))
    d = parse_directive(f"{prefix}|{period}", registry)
    depth = draw(st.integers(1, len(prefix) + 5))
    return d, draw(st.integers(0, 9)), depth, draw(st.integers(1, 3))


class TestWindowedSamplerAgainstReference:
    @given(windowed_requests(), st.integers(0, 3))
    def test_matches_tuple_reference(self, drawn, slack):
        d, cap, depth, window = drawn
        used = tuple_windowed_sample(d, 0, cap, depth, window, float("inf"))[2]
        # Served exactly at the budget the reference used, refused one below.
        for limit in (used + slack, used - 1):
            with mock.patch.object(language, "MAX_SAMPLE_CHARS", limit):
                try:
                    want = tuple_windowed_sample(d, 0, cap, depth, window, limit)[:2]
                except ResourceLimitError as exc:
                    with pytest.raises(ResourceLimitError, match=f"^{exc}$"):
                        sample_level_language(d, 0, cap, depth=depth, window=window)
                    continue
                sample = sample_level_language(d, 0, cap, depth=depth, window=window)
                assert ({w.symbols for w in sample.words}, sample.meta) == want
                assert sample.alphabet == TUPLES
                assert all(w.alphabet == TUPLES for w in sample.words)

    def test_pinned_directives_match_reference(self):
        for name, cap in [("LMR|ML", 12), ("|RLR", 10), ("RL|LR", 8)]:
            d = parse_directive(name)
            sample = sample_level_language(d, 0, cap, depth=6, window=3)
            words, meta, _ = tuple_windowed_sample(d, 0, cap, 6, 3, float("inf"))
            assert ({w.symbols for w in sample.words}, sample.meta) == (words, meta)


class TestWindowRefusal:
    # |MM at depth 26 charges levels 26..31: two letter texts of 2^n each.
    REFUSAL = f"^sample window needs {2 * 63 * 2**26} characters, limit 60000000$"

    def test_refused_before_any_text_is_built(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a text was built")

        monkeypatch.setattr(language, "_tower_texts", boom)
        with pytest.raises(ResourceLimitError, match=self.REFUSAL):
            sample_level_language(parse_directive("|MM"), 0, 8, depth=26)

    def test_refusal_allocates_almost_nothing(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=self.REFUSAL):
                sample_level_language(parse_directive("|MM"), 0, 8, depth=26)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Building level 26 alone would take 2 * 2^26 bytes.
        assert peak < 16 * 2**20

    def test_a_depth_past_the_level_limit_is_refused_before_the_walk(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the tower was walked")

        monkeypatch.setattr(language, "_tower_lengths", boom)
        with pytest.raises(
            ResourceLimitError, match="^sample depth needs 1000000 levels, limit 4096$"
        ) as exc:
            sample_level_language(parse_directive("|MM"), 0, 8, depth=10**6)
        assert (exc.value.resource, exc.value.requested, exc.value.limit) == (
            "sample depth",
            10**6,
            4096,
        )

    def test_a_depth_at_the_level_limit_is_walked(self):
        # The identity keeps both letter images one letter long, so the
        # window at depth 4096 is tiny and is sampled.
        identity = {"I": Substitution.from_text("0->0;1->1")}
        sample = sample_level_language(parse_directive("|I", identity), 0, 3, depth=4096)
        assert sample.codes == {"", "\x00", "\x01"}
        assert sample.meta == SampleMeta(depth=4096, window=3, exact=False, saturated=True)
        # A doubling tower at that depth still reaches the window refusal.
        with pytest.raises(ResourceLimitError, match="^sample window needs ") as exc:
            sample_level_language(parse_directive("|MM"), 0, 8, depth=4096)
        assert exc.value.requested == 2 * sum(2**n for n in range(4096, 4102))

    def test_default_depth_level_limit(self, monkeypatch):
        # Under 4094 L's the letter 0 keeps length 1; the M below them makes
        # every image at least 2 long at level 4095, the last level walked.
        assert language._default_depth(parse_directive("L" * 4094 + "|M"), 0, 2) == 4095
        # |LL is not growing (0 -> 0 keeps length 1), and its period of two
        # substitutions takes the windowed sampler; claimed growing, the
        # default depth walks its whole level budget and gives up.
        claimed = GrowthReport(growing=True, exact=False)
        monkeypatch.setattr(language, "is_everywhere_growing", lambda d: claimed)
        with pytest.raises(
            ResourceLimitError,
            match="^growth too slow: sample depth needs more than 4096 levels, limit 4096$",
        ):
            sample_level_language(parse_directive("|LL"), 0, 8)


class TestTowerWalk:
    def test_doubling_texts(self):
        M = Substitution.from_text("0->01;1->10")
        *_, texts = language._tower_texts([M] * 3, BIN)
        assert texts == {0: "\0\1\1\0\1\0\0\1", 1: "\1\0\0\1\0\1\1\0"}

    @given(windowed_requests(), st.integers(1, 12))
    def test_lengths_and_clipped_texts_follow_the_full_texts(self, drawn, clip):
        d, _, depth, window = drawn
        subs = [d.substitution_at(j) for j in range(depth + window)]
        alphabet = d.level_alphabet(0)
        chars = language._letter_codes(alphabet)
        full = list(language._tower_texts(subs, alphabet))
        assert len(full) == len(subs) + 1
        tower = Substitution.identity(alphabet)
        for texts, sig in zip(full, subs + [None]):
            # Oracle: the tower composed one substitution at a time, keyed
            # by the codes of its domain letters.
            assert texts == {
                i: "".join(chars[s] for s in tower.image(a).symbols)
                for i, a in enumerate(tower.domain.symbols)
            }
            if sig is not None:
                tower = compose(tower, sig)
        lengths = list(language._tower_lengths(subs, alphabet))
        assert [list(ls.values()) for ls in lengths] == [
            list(map(len, texts.values())) for texts in full
        ]
        clipped = list(language._tower_texts(subs, alphabet, clip))
        assert clipped == [{c: t[:clip] for c, t in texts.items()} for texts in full]

    def test_a_one_letter_image_keeps_its_text_uncopied(self):
        # L maps 0 to 0, so level j+1's text of 0 is level j's, not a copy.
        M, L = Substitution.from_text("0->01;1->10"), Substitution.from_text("0->0;1->10")
        *_, deep, top = language._tower_texts([M] * 5 + [L], BIN, 20)
        assert top[0] is deep[0]


class TestGrowthDecision:
    def test_long_period_costs_about_three_products_per_level(self, monkeypatch):
        # Each residue's period is a tail times a head, both grown one level
        # at a time, so no residue composes its period from scratch.
        products = []

        def counting(x, y):
            products.append(1)
            return multiply(x, y)

        multiply = language.mat_mul
        monkeypatch.setattr(language, "mat_mul", counting)
        q = 512
        report = is_everywhere_growing(parse_directive("|" + "ML" * (q // 2)))
        assert report.growing and report.exact
        assert len(products) <= 3 * q

    def test_a_long_image_on_no_cycle_does_not_grow(self):
        # 0 -> 1 -> 23, and 2 and 3 map to themselves: 1 has a two-letter
        # image but lies on no cycle, so no letter grows.
        d = parse_directive("|S", {"S": Substitution.from_text("0->1;1->23;2->2;3->3")})
        assert is_everywhere_growing(d) == tower_growth(d) == (False, True)

    @pytest.mark.parametrize(
        "text,registered,want",
        [
            # B swaps the all-0 and all-1 blocks, and A erases every 1.
            ("A|B", {"A": "0->0;1->", "B": "0->11;1->00"}, (False, True)),
            ("A|B", {"A": "0->0;1->1", "B": "0->11;1->00"}, (True, True)),
            # M's images hold both letters at every level, so A's erasure
            # leaves the 0s, which grow.
            ("A|M", {"A": "0->0;1->"}, (True, True)),
            # A one-letter permutation never grows.
            ("A|B", {"A": "0->0;1->", "B": "0->1;1->0"}, (False, True)),
        ],
        ids=["erased-class", "kept-class", "doubling", "permutation"],
    )
    def test_an_erasing_prefix_is_decided_exactly(self, text, registered, want):
        registry = {name: Substitution.from_text(spec) for name, spec in registered.items()}
        d = parse_directive(text, registry)
        assert is_everywhere_growing(d) == tower_growth(d) == want

    @pytest.mark.parametrize(
        "text,want",
        [
            ("|M", True),
            ("|L", False),
            ("|R", False),
            ("|LR", True),
            ("|ML", True),
            ("R|L", False),
            ("LML|M", True),
        ],
    )
    def test_pinned_verdicts(self, text, want):
        rep = is_everywhere_growing(parse_directive(text))
        assert rep.growing == want
        assert rep.exact

    def test_long_period_needs_no_substitution_or_word(self, monkeypatch):
        directives = [parse_directive("LMR|ML"), parse_directive("|" + "M" * 64)]
        built = []

        def counting(original):
            def wrapper(self, *args, **kwargs):
                built.append(type(self).__name__)
                return original(self, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(Substitution, "__init__", counting(Substitution.__init__))
        monkeypatch.setattr(Word, "__init__", counting(Word.__init__))
        reports = [is_everywhere_growing(d) for d in directives]
        assert cli._level0_perron(directives[0]) is not None
        half = Fraction(1, 2)
        assert cli._level0_perron(directives[1]).values == (half, half)
        assert built == []
        assert (reports[1].growing, reports[1].exact) == (True, True)
        # The counters do see a build.
        Substitution.from_text("0->1")
        assert built == ["Word", "Substitution"]


# Level alphabets of the drawn directives: a chain may change alphabets
# between levels, and the period returns to the alphabet it starts from.
LEVEL_ALPHABETS = [Alphabet.from_text(t) for t in ("01", "012", "ab", "x")]


@st.composite
def registered_directives(draw, erasing=True):
    """A registered directive A..|.. with a prefix of 0-2 and a period of
    1-3 substitutions over drawn level alphabets; images have up to three
    letters, and are empty only when erasing is allowed and drawn."""
    p, q = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    alphabets = [draw(st.sampled_from(LEVEL_ALPHABETS)) for _ in range(p + q)]
    alphabets.append(alphabets[p])
    shortest = draw(st.sampled_from([0, 1])) if erasing else 1
    registry = {}
    for j, name in enumerate("ABCDE"[: p + q]):
        domain, codomain = alphabets[j + 1], alphabets[j]
        letters = st.sampled_from(codomain.symbols)
        registry[name] = Substitution(
            domain,
            codomain,
            {
                a: Word(tuple(draw(st.lists(letters, min_size=shortest, max_size=3))), codomain)
                for a in domain.symbols
            },
        )
    names = "".join(registry)
    return parse_directive(f"{names[:p]}|{names[p:]}", registry)


def composed_tower(d, k, n):
    """sigma_k . ... . sigma_{n-1}, composed one substitution at a time."""
    tower = Substitution.identity(d.level_alphabet(k))
    for j in range(k, n):
        tower = compose(tower, d.substitution_at(j))
    return tower


def tower_growth(d):
    """(growing, exact) read from composed towers: per residue r, tau is
    the period read from level p + r and the weights are the image lengths
    of the tower above it."""
    p, q = d.prefix_length, d.period_length
    residues = []
    for r in range(q):
        pi, tau = composed_tower(d, 0, p + r), composed_tower(d, p + r, p + r + q)
        symbols = tau.domain.symbols
        weights = [len(pi.image(b)) for b in symbols]
        if tau.is_non_erasing() and min(weights) >= 1:
            residues.append(tower_monotone_verdict(tau))
        else:
            residues.append(tower_capped_verdict(tau, weights))
    return all(residues), True


def tower_monotone_verdict(tau):
    symbols = tau.domain.symbols
    stable = {a for a in symbols if len(tau.image(a)) == 1}
    while True:
        kept = {a for a in stable if tau.image(a).symbols[0] in stable}
        if kept == stable:
            break
        stable = kept
    for a in symbols:
        letters, seen = frozenset([a]), set()
        while letters not in seen:
            seen.add(letters)
            if letters <= stable:
                return False
            letters = frozenset(c for b in letters for c in tau.image(b).symbols)
    return True


def tower_capped_verdict(tau, weights):
    """Whether every state on the cycle of the length orbit, capped at the
    largest weight plus one, is all capped.

    Capping is exact: the capped length of a letter is min(length, cap) at
    every step, as a below-cap sum has below-cap summands. A tower that does
    not grow has a terminal letter whose length is at most the largest
    weight infinitely often (0 after an empty image or on a cyclic class
    that pi erases, a weight on a cycle of one-letter images), so its cycle
    holds a state below the cap. A growing tower ends all capped.
    """
    symbols = tau.domain.symbols
    entry = [[tau.image(a).symbols.count(b) for b in symbols] for a in symbols]
    cap = max(weights) + 1
    trajectory = [tuple(min(w, cap) for w in weights)]
    while True:
        last = trajectory[-1]
        nxt = tuple(min(sum(c * v for c, v in zip(row, last)), cap) for row in entry)
        if nxt in trajectory:
            cycle = trajectory[trajectory.index(nxt) :]
            return all(min(state) >= cap for state in cycle)
        trajectory.append(nxt)


def tower_perron(d):
    """Level-0 Perron frequencies pushed through the composed prefix tower."""
    p, q = d.prefix_length, d.period_length
    try:
        period = composed_tower(d, p, p + q)
        f = perron_frequency(incidence_counts(period), period.codomain.symbols)
    except ValueError:
        return None
    if p == 0:
        return f
    pushed = mat_vec(incidence_counts(composed_tower(d, 0, p)), f.values)
    total = sum(pushed)
    if total <= 0:
        return None
    return FrequencyVector(d.level_alphabet(0), tuple(v / total for v in pushed))


class TestIncidenceProductsAgainstComposedTowers:
    @settings(max_examples=500)
    @given(registered_directives())
    # One example with positive weights, one with a weight 0.
    @example(parse_directive("LMR|ML"))
    @example(
        parse_directive(
            "A|BC",
            {
                "A": Substitution.from_text("a->0;b->1", Alphabet.from_text("01")),
                "B": Substitution.from_text("0->ab;1->", Alphabet.from_text("ab")),
                "C": Substitution.from_text("a->1;b->0", Alphabet.from_text("01")),
            },
        )
    )
    def test_growth_and_perron_match_the_composed_towers(self, d):
        p, q = d.prefix_length, d.period_length
        for k in range(p + 2 * q):
            for n in range(k, p + 2 * q + 1):
                want = incidence_counts(composed_tower(d, k, n))
                assert language._tower_counts(d, k, n) == want
        assert is_everywhere_growing(d) == tower_growth(d)
        assert cli._level0_perron(d) == tower_perron(d)

    def test_erasing_growers_and_non_growers_are_drawn(self):
        drawn = set()

        @given(registered_directives())
        def collect(d):
            erasing = not all(sig.is_non_erasing() for sig in d.prefix)
            drawn.add((is_everywhere_growing(d).growing, erasing))

        collect()
        assert (True, True) in drawn
        assert any(not growing for growing, _ in drawn)


def letter_orbit(tau, cap):
    """Factors of length 1..cap of tau^n(a) over every letter a, for the
    first n at which they repeat: X_{n+1} = F(tau(X_n)) depends on X_n
    alone once tau erases nothing, so a repeat is the fixed point. With a
    seed letter the orbit reaches one: the seed's factor sets grow and lie
    between X_{n-j} and X_n, j the depth at which its images hold every
    letter."""
    current = {(a,) for a in tau.domain.symbols} if cap >= 1 else set()
    while True:
        nxt = factors_of_images(tau, current, cap)
        if nxt == current:
            return current
        current = nxt


def factors_of_images(sigma, words, cap):
    """All factors of length 1..cap of the images of the words."""
    out = set()
    for w in words:
        image = tuple(s for b in w for s in sigma.image(b).symbols)
        for i in range(len(image)):
            out.update(image[i:j] for j in range(i + 1, min(i + cap, len(image)) + 1))
    return out


def sweep_directives():
    """The classifier sweep's periods and the letter-balance sweep's draws."""
    periods = ["|" + "".join(p) for n in range(1, 4) for p in itertools.product("LMR", repeat=n)]
    rng = random.Random(verification.SEED)
    draws = []
    while len(draws) < 50:
        text = verification._random_directive_text(rng)
        if text not in draws:
            draws.append(text)
    return periods + draws


# The builtin L, M and R on letter codes, written out here so that the
# oracle below shares no code with the package.
CODE_RULES = {
    name: str.maketrans({"\0": zero, "\1": one})
    for name, (zero, one) in {
        "L": ("\0", "\1\0"),
        "M": ("\0\1", "\1\0"),
        "R": ("\0\1", "\1"),
    }.items()
}


class TestExactSampleAroundThePeriod:
    """The branches of _exact_sample beyond one substitution and no prefix:
    the prefix push-down, which sample_level_language routes when the
    period has one substitution, and periods of several substitutions,
    which it does not route yet."""

    def test_powers_of_the_doubling_period_keep_its_language(self):
        want = sample_level_language(parse_directive("|M"), 0, 40).codes
        for k in range(1, 19):
            assert language._exact_sample(parse_directive("|" + "M" * k), 0, 40).codes == want, k

    def test_a_prefixed_doubling_tower_against_brute_force(self):
        # The L-image of a Thue-Morse prefix (binary digit-sum parity) holds
        # every word of L|M; 3,442 words up to 48, the empty one included,
        # were counted the same way on a 2^17-letter prefix. The windowed
        # sampler found 80 and 1,304.
        d = parse_directive("L|M")
        prefix = "".join(str(bin(i).count("1") % 2) for i in range(4096))
        text = prefix.translate({ord("0"): "\x00", ord("1"): "\x01\x00"})
        sample = sample_level_language(d, 0, 12)
        assert sample.meta.exact and len(sample) == 184
        assert sample.codes == {
            text[i : i + n] for n in range(13) for i in range(len(text) - n + 1)
        }
        assert len(sample_level_language(d, 0, 48)) == 3442

    @given(st.text(alphabet="LMR", max_size=3), st.sampled_from("LMR"), st.integers(0, 10))
    @example("L", "M", 10)
    def test_the_sample_is_the_factor_set_of_a_long_expansion(self, prefix, period, cap):
        # Each letter is expanded 64 times by the period, kept to its first
        # 256 letters (a prefix of the expansion), then imaged through the
        # prefix: L and R images grow by a letter per level, and 256
        # Thue-Morse letters hold all its factors up to length 14.
        sample = sample_level_language(parse_directive(f"{prefix}|{period}"), 0, cap)
        assert sample.meta.exact
        texts = []
        for text in "\0\1":
            for _ in range(64):
                text = text.translate(CODE_RULES[period])[:256]
            for name in reversed(prefix):
                text = text.translate(CODE_RULES[name])
            texts.append(text)
        assert sample.codes == {
            t[i : i + n] for t in texts for n in range(cap + 1) for i in range(len(t) - n + 1)
        }

    def test_a_level_inside_the_period_reads_the_rotated_period(self):
        want = language._exact_sample(parse_directive("|LM"), 0, 24).codes
        assert language._exact_sample(parse_directive("LR|ML"), 3, 24).codes == want

    def test_sturmian_periods_have_n_plus_one_factors(self):
        # Every {L, R} period of length 2-5 that uses both letters.
        for period in ("".join(p) for n in range(2, 6) for p in itertools.product("LR", repeat=n)):
            if "L" not in period or "R" not in period:
                continue
            sample = language._exact_sample(parse_directive("|" + period), 0, 30)
            sizes = collections.Counter(map(len, sample.codes))
            assert sizes == {n: n + 1 for n in range(31)}, period

    @pytest.mark.parametrize("cap", [8, 24])
    def test_the_windowed_sample_is_a_subset(self, cap):
        for text in sweep_directives():
            d = parse_directive(text)
            exact = language._exact_sample(d, 0, cap)
            assert exact is not None and exact.meta.exact, text
            assert sample_level_language(d, 0, cap).codes <= exact.codes, text

    @settings(max_examples=300)
    @given(
        st.one_of(registered_directives(), registered_directives(erasing=False)),
        st.integers(0, 2),
        st.integers(0, 9),
    )
    @example(parse_directive("LMR|ML"), 0, 9)
    @example(parse_directive("RL|MLR"), 1, 9)
    def test_matches_the_composed_period(self, d, shift, cap):
        # Against the seed's rounds on the composed tau, pushed down through
        # the composed prefix, and against the letters of every level of
        # the period, each iterated to its fixed point with no seed.
        k = min(shift, d.prefix_length + d.period_length)
        sample = language._exact_sample(d, k, cap)
        s, q = max(k, d.prefix_length), d.period_length
        tau = composed_tower(d, s, s + q)
        if not all(d.substitution_at(j).is_non_erasing() for j in range(k, s + q)):
            assert sample is None
            return
        seed = first_admissible_seed(tau)
        unreached = any(
            set(d.level_alphabet(j).symbols)
            - {b for w in d.substitution_at(j).images.values() for b in w.symbols}
            for j in range(s + 1, s + q)
        )
        if seed is None or unreached:
            assert sample is None
            return
        # The longest level-s word that the cap needs; none when it is 0.
        top = cap
        for j in range(k, s):
            top = -(-(top - 1) // d.substitution_at(j).min_image_len()) + 1 if top else 0
        words, rounds = naive_fixed_point(tau, seed, top)
        want = factors_of_images(composed_tower(d, k, s), words, cap) | {()}
        assert {w.symbols for w in sample.words} == want
        assert sample.meta.depth == rounds
        assert sample.alphabet == d.level_alphabet(k) and sample.level == k
        deep = {()}
        for r in range(q):
            orbit = letter_orbit(composed_tower(d, s + r, s + r + q), cap)
            deep |= factors_of_images(composed_tower(d, k, s + r), orbit, cap)
        assert deep == want
