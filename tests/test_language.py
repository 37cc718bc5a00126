"""Directive sequences, language sampling, and growth decisions."""

import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wordbalance import cli, language
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
        ws = tm_sample.nonempty_words()
        assert [w.render() for w in ws[:6]] == ["0", "1", "00", "01", "10", "11"]
        assert Word.from_text("01", BIN) in tm_sample
        assert len(ws) == len(tm_sample) - 1

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
        tau = Substitution.from_text(";".join(f"{a}->{w}" for a, w in zip("abcd", images)))
        want = first_admissible_seed(tau) if tau.is_non_erasing() else None
        assert language._exact_mode_letter(DirectiveSequence(period=(tau,)), 0) == want


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
        # L|L is not growing (0 -> 0 keeps length 1); claimed growing, the
        # default depth walks its whole level budget and gives up.
        claimed = GrowthReport(growing=True, exact=False)
        monkeypatch.setattr(language, "is_everywhere_growing", lambda d: claimed)
        with pytest.raises(
            ResourceLimitError,
            match="^growth too slow: sample depth needs more than 4096 levels, limit 4096$",
        ):
            sample_level_language(parse_directive("L|L"), 0, 8)


class TestTowerWalk:
    def test_doubling_texts(self):
        M = Substitution.from_text("0->01;1->10")
        *_, texts = language._tower_texts([M] * 3, {"0": "0", "1": "1"})
        assert texts == {"0": "01101001", "1": "10010110"}

    @given(windowed_requests(), st.integers(1, 12))
    def test_lengths_and_clipped_texts_follow_the_full_texts(self, drawn, clip):
        d, _, depth, window = drawn
        subs = [d.substitution_at(j) for j in range(depth + window)]
        alphabet = d.level_alphabet(0)
        chars = language._letter_codes(alphabet)
        full = list(language._tower_texts(subs, chars))
        assert len(full) == len(subs) + 1
        tower = Substitution.identity(alphabet)
        for texts, sig in zip(full, subs + [None]):
            # Oracle: the tower composed one substitution at a time.
            assert texts == {
                a: "".join(chars[s] for s in tower.image(a).symbols) for a in tower.domain.symbols
            }
            if sig is not None:
                tower = compose(tower, sig)
        lengths = list(language._tower_lengths(subs, alphabet))
        assert lengths == [{a: len(t) for a, t in texts.items()} for texts in full]
        clipped = list(language._tower_texts(subs, chars, clip))
        assert clipped == [{a: t[:clip] for a, t in texts.items()} for texts in full]


def spy_tiers(monkeypatch):
    """The list that each growth tier's verdict call appends its name to,
    one entry per residue evaluated."""
    tiers = []
    for name in ("_monotone_growth_verdict", "_capped_growth_verdict"):

        def spy(*args, real=getattr(language, name), name=name):
            tiers.append(name)
            return real(*args)

        monkeypatch.setattr(language, name, spy)
    return tiers


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
        tiers = spy_tiers(monkeypatch)
        q = 512
        report = is_everywhere_growing(parse_directive("|" + "ML" * (q // 2)))
        assert report.growing and report.exact
        assert tiers == ["_monotone_growth_verdict"] * q
        assert len(products) <= 3 * q

    def test_a_long_image_on_no_cycle_does_not_grow(self, monkeypatch):
        # 0 -> 1 -> 23, and 2 and 3 map to themselves: 1 has a two-letter
        # image but lies on no cycle, so no letter grows.
        d = parse_directive("|S", {"S": Substitution.from_text("0->1;1->23;2->2;3->3")})
        tiers = spy_tiers(monkeypatch)
        report = is_everywhere_growing(d)
        assert tiers == ["_monotone_growth_verdict"]
        assert report == tower_growth(d) == (False, True)

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
        tiers = spy_tiers(monkeypatch)
        reports = [is_everywhere_growing(d) for d in directives]
        assert tiers == ["_monotone_growth_verdict"] * (2 + 64)
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
def registered_directives(draw):
    """A registered directive A..|.. with a prefix of 0-2 and a period of
    1-3 substitutions over drawn level alphabets; images have up to three
    letters, and are empty only when the draw allows erasing."""
    p, q = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    alphabets = [draw(st.sampled_from(LEVEL_ALPHABETS)) for _ in range(p + q)]
    alphabets.append(alphabets[p])
    shortest = draw(st.sampled_from([0, 1]))
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
            residues.append((tower_monotone_verdict(tau), True))
        else:
            residues.append(tower_capped_verdict(tau, weights))
    return (
        all(verdict for verdict, _ in residues),
        all(exact for _, exact in residues),
    )


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
    symbols = tau.domain.symbols
    entry = [[tau.image(a).symbols.count(b) for b in symbols] for a in symbols]

    def orbit(cap):
        trajectory = [tuple(min(w, cap) for w in weights)]
        while True:
            last = trajectory[-1]
            nxt = tuple(min(sum(c * v for c, v in zip(row, last)), cap) for row in entry)
            if nxt in trajectory:
                cycle = trajectory[trajectory.index(nxt) :]
                return all(min(state) >= cap for state in cycle)
            trajectory.append(nxt)

    cap = max(64, max(weights) + 1, (len(symbols) * max(map(max, entry)) + 2) ** 2)
    verdict = orbit(cap)
    for _ in range(5):
        bigger = cap * cap + 17
        again = orbit(bigger)
        if again == verdict:
            return verdict, not verdict
        cap, verdict = bigger, again
    raise ResourceLimitError("growth decision did not stabilize under cap escalation")


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
    # One example for each growth tier.
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

    def test_both_tiers_are_drawn(self, monkeypatch):
        tiers = spy_tiers(monkeypatch)

        @given(registered_directives())
        def collect(d):
            is_everywhere_growing(d)

        collect()
        assert set(tiers) == {"_monotone_growth_verdict", "_capped_growth_verdict"}
