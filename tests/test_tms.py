"""The builtin three-substitution family and its certified witness machinery."""

import itertools
import json
import operator
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wordbalance import cli, language, scan, tms
from wordbalance.exactmat import eigencheck
from wordbalance.language import ResourceLimitError, parse_directive
from wordbalance.scan import MAX_TEXT_CHARS, level_scan_texts
from wordbalance.substitution import Substitution, compose, incidence_counts
from wordbalance.tms import (
    BLOCK_EIGENPAIRS,
    block_abelianization,
    builtin,
    builtin_registry,
    classify,
    expand_text,
    factor_spans,
    imbalance_milestones,
    is_lmr_directive,
    witness_growth_curve,
    witness_pair,
    witness_strings,
)
from wordbalance.verification import (
    block_recursion_checks,
    block_substitution,
    count_preservation_violations,
    eleven_count_range,
    image_pattern_counts,
    padded_compositions,
    preservation_violations,
    run_checks,
    shared_image_tail,
    witness_closed_forms,
)
from wordbalance.words import Alphabet, Word

TM32 = "01101001100101101001011001101001"


def brute_count(text: str, pattern: str) -> int:
    """Occurrences of pattern in text, overlaps included, one start at a time."""
    return sum(text.startswith(pattern, i) for i in range(len(text)))


def m_step(s: str) -> str:
    """Independent one-step doubling expansion on plain strings."""
    return s.translate({ord("0"): "01", ord("1"): "10"})


def tm_prefix(depth: int) -> str:
    """M^depth(0), expanded independently of the package."""
    text = "0"
    for _ in range(depth):
        text = m_step(text)
    return text


def spanned(text: str, starts, lengths) -> list:
    """The factors text[p : p + n] that factor_spans lists as spans."""
    return [text[p : p + n] for p, n in zip(starts.tolist(), lengths.tolist())]


def reference_factor_spans(max_len: int, max_depth: int = 26):
    """factor_spans's sorted factors, depth and stability flag, from whole
    factor sets compared between consecutive depths."""

    def factor_set(text):
        windows = {text[i : i + max_len] for i in range(len(text))}
        return {w[:j] for w in windows for j in range(1, len(w) + 1)}

    depth = max(4, (16 * max_len).bit_length())
    pool = factor_set(tm_prefix(depth))
    stable = False
    while depth < max_depth:
        depth += 1
        bigger = factor_set(tm_prefix(depth))
        if bigger == pool:
            stable = True
            break
        pool = bigger
    return sorted(pool), depth, stable


def reference_scan_texts(d, min_chars: int, clip: int, max_depth: int):
    """Depth and texts of level_scan_texts, by full builds, then clipped.

    Walks the same x1.5 depth schedule, but expands every letter text in
    full at each visited depth and only then cuts it to clip.
    """

    def full_texts(depth):
        texts = {a: a for a in d.level_alphabet(0).symbols}
        for j in range(depth):
            sig = d.substitution_at(j)
            texts = {
                a: "".join(texts[b] for b in sig.image(a).symbols)
                for a in sig.domain.symbols
            }
        return texts

    depth = max(8, d.prefix_length + max(1, d.period_length))
    while True:
        texts = full_texts(depth)
        if max(map(len, texts.values())) >= min_chars or depth >= max_depth:
            return depth, [t[:clip] for t in texts.values() if t]
        depth = min(max_depth, depth + max(1, depth // 2))


def spelled(texts, alphabet):
    """Scan texts, which are in letter codes, spelled in the alphabet's symbols."""
    return [t.translate(dict(enumerate(alphabet.symbols))) for t in texts]


def blocks4(s: str) -> tuple:
    """Independent overlapping block counter (00, 01, 10, 11)."""
    return tuple(
        sum(1 for i in range(len(s) - 1) if s[i : i + 2] == p)
        for p in ("00", "01", "10", "11")
    )


class TestRegistry:
    def test_builtins(self):
        reg = builtin_registry()
        assert sorted(reg) == ["L", "M", "R"]
        assert builtin("M").to_text() == "0->01;1->10"
        with pytest.raises(ValueError):
            builtin("Q")

    def test_parse_directive_forms(self):
        d = parse_directive("LM|R")
        assert d.prefix_length == 2 and d.period_length == 1
        assert parse_directive("|M").prefix_length == 0
        assert parse_directive("LM|").max_defined_level() == 2

    def test_parse_directive_errors(self):
        for bad in ("LMR", "L|M|R", "|Q", "Q|M"):
            with pytest.raises(ValueError):
                parse_directive(bad)

    def test_parse_directive_registry(self):
        swap = Substitution.from_text("0->1;1->0")
        d = parse_directive("S|M", registry={"S": swap})
        assert d.substitution_at(0) is swap
        assert not is_lmr_directive(d)
        assert is_lmr_directive(parse_directive("LM|R"))


class TestClassification:
    def test_pinned_verdicts(self):
        assert classify(parse_directive("LMR|ML")).verdict == "FactorBalanced"
        assert classify(parse_directive("R|M")).verdict == "NotFactorBalanced"
        assert classify(parse_directive("|L")).verdict == "FactorBalanced"

    def test_fields(self):
        c = classify(parse_directive("R|M"))
        assert c.tail_all_doubling and c.primitive and c.verdict == "NotFactorBalanced"
        assert "doubling" in c.reason
        c2 = classify(parse_directive("|L"))
        assert not c2.tail_all_doubling and not c2.primitive and c2.verdict == "FactorBalanced"

    def test_primitivity(self):
        assert classify(parse_directive("|M")).primitive
        assert classify(parse_directive("|LR")).primitive
        assert not classify(parse_directive("M|L")).primitive
        assert not classify(parse_directive("|R")).primitive

    def test_guards(self):
        swap = Substitution.from_text("0->1;1->0")
        foreign = parse_directive("S|M", registry={"S": swap})
        with pytest.raises(ValueError):
            classify(foreign)
        with pytest.raises(ValueError):
            classify(parse_directive("LM|"))


class TestSharedImageTail:
    @pytest.mark.parametrize(
        "names,tail",
        [("", ""), ("L", "0"), ("R", "1"), ("LRL", "010010")],
    )
    def test_pinned_tails(self, names, tail):
        assert shared_image_tail(names).render() == tail

    def test_identity_holds_by_construction(self):
        bin_alpha = builtin("L").domain
        for names in ("RR", "LLR", "RLRL"):
            tail = shared_image_tail(names).render()
            sigma = Substitution.identity(bin_alpha)
            for n in names:
                sigma = compose(sigma, builtin(n))
            assert sigma.apply(Word.from_text("01", bin_alpha)).render() == "01" + tail
            assert sigma.apply(Word.from_text("10", bin_alpha)).render() == "10" + tail

    def test_doubling_rejected(self):
        with pytest.raises(ValueError):
            shared_image_tail("LM")


class TestThueMorseText:
    """expand_text, the one M kernel."""

    def test_prefix_values(self):
        assert expand_text("0", 5) == TM32
        assert expand_text("0", 1) == "01"
        assert expand_text("0", 6).startswith(TM32)

    def test_expansion_consistency(self):
        t = expand_text("0", 7)
        assert m_step(t)[: len(t)] == t  # fixed-point prefix property

    @pytest.mark.parametrize("depth", range(1, 17))
    def test_doubling_matches_expansion_and_digit_sums(self, depth):
        text = expand_text("0", depth)
        assert text == tm_prefix(depth)
        # t(i) is the parity of the binary digit sum of i.
        assert text == "".join("01"[bin(i).count("1") & 1] for i in range(1 << depth))

    @given(st.text(alphabet="01", max_size=40), st.integers(0, 5))
    def test_matches_stepwise_m(self, word, depth):
        want = word
        for _ in range(depth):
            want = m_step(want)
        assert expand_text(word, depth) == want
        if len(want) > len(word):
            with pytest.raises(ResourceLimitError):
                expand_text(word, depth, max_chars=len(want) - 1)

    def test_budget_names_the_limit(self):
        # The first step over the limit is named, whatever the depth asked.
        with pytest.raises(ResourceLimitError, match="^expansion needs 2048 characters, limit 2000$"):
            expand_text("0", 40, max_chars=2000)
        with pytest.raises(ResourceLimitError, match="^expansion needs 2200 characters, limit 2000$"):
            expand_text("0" * 1100, 3, max_chars=2000)
        assert len(expand_text("0", 11, max_chars=2048)) == 2048
        assert expand_text("0" * 3000, 0, max_chars=2000) == "0" * 3000

    def test_non_binary_word_refused(self):
        with pytest.raises(ValueError, match="^expand_text needs a word over 0 and 1$"):
            expand_text("0a1", 1)

    def test_one_step_peaks_near_three_times_the_result(self):
        word = expand_text("0", 20)
        tracemalloc.start()
        try:
            result = expand_text(word, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == word + word.translate(str.maketrans("01", "10"))
        assert peak < 3 * len(result)


class TestBlockAbelianization:
    @given(st.text(alphabet="01", max_size=64))
    @example("")
    @example("0")
    @example("1")
    def test_matches_overlapping_counts(self, word):
        assert block_abelianization(word) == tuple(
            brute_count(word, p) for p in ("00", "01", "10", "11")
        )
        assert block_abelianization(word) == blocks4(word)

    def test_non_binary_word_rejected(self):
        with pytest.raises(ValueError):
            block_abelianization("0a1")


class TestWitnessStrings:
    def test_base_pair(self):
        assert witness_strings(1) == ("00", "01")
        assert witness_strings(2) == ("110011", "011010")

    def test_lengths(self):
        for k, length in ((1, 2), (2, 6), (3, 22), (4, 86), (5, 342), (6, 1366)):
            w, wp = witness_strings(k)
            assert len(w) == len(wp) == length == (4**k + 2) // 3

    def test_string_recursion_oracle(self):
        # Independent re-derivation: the squared expansion of each witness
        # reproduces the next one up to fixed borders, by plain string code.
        for k in range(1, 9):
            w, wp = witness_strings(k)
            nxt, nxtp = witness_strings(k + 1)
            border = "0" if k % 2 == 1 else "1"
            suffix = "01" if k % 2 == 1 else "10"
            assert m_step(m_step(w)) == border + nxt + border
            assert m_step(m_step(wp)) == nxtp + suffix

    def test_abelian_recursion_oracle(self):
        # Block-count recursion under the squared 4x4 block incidence.
        a = (
            (0, 0, 1, 0),
            (1, 1, 0, 1),
            (1, 0, 1, 1),
            (0, 1, 0, 0),
        )

        def matvec(m, v):
            return tuple(sum(m[i][j] * v[j] for j in range(4)) for i in range(4))

        def unit(i):
            return tuple(1 if j == i else 0 for j in range(4))

        for k in range(1, 9):
            w, wp = witness_strings(k)
            nxt, nxtp = witness_strings(k + 1)
            add_w = unit(3) if k % 2 == 1 else unit(0)
            add_p = unit(2) if k % 2 == 1 else unit(1)
            step = matvec(a, matvec(a, blocks4(w)))
            assert blocks4(nxt) == tuple(x + y for x, y in zip(step, add_w))
            stepp = matvec(a, matvec(a, blocks4(wp)))
            assert blocks4(nxtp) == tuple(x + y for x, y in zip(stepp, add_p))

    def test_membership_in_fixed_point(self):
        text = expand_text("0", 12)
        for k in (1, 2, 3, 4):
            w, wp = witness_strings(k)
            assert w in text and wp in text

    def test_guards(self):
        with pytest.raises(ValueError):
            witness_strings(0)
        with pytest.raises(ResourceLimitError):
            witness_strings(15)

    def test_witness_command_expands_only_thue_morse_prefixes(self, monkeypatch, capsys):
        # The words are sliced from prefixes of the Thue-Morse word: every
        # expansion starts from a prefix of it, never from an M^2 image of a
        # witness word.
        words = []
        real = tms.expand_text

        def recorded(word, depth, *args):
            words.append(word)
            return real(word, depth, *args)

        monkeypatch.setattr(tms, "expand_text", recorded)
        assert cli.main(["witness", "--n", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [length for length, _ in report["results"]["growth_curve"]] == [6, 86, 1366, 21846]
        assert words and all(tm_prefix(11).startswith(word) for word in words)

    @pytest.mark.parametrize(
        "limit, served, refusal",
        [
            (1_000, 5, "witness pair needs 1366 characters, limit 1000"),
            (100_000, 9, "witness pair needs 349526 characters, limit 100000"),
        ],
    )
    def test_budget_boundary_is_the_word_length(self, monkeypatch, limit, served, refusal):
        # The words are refused by their length alone, though the prefix
        # they are sliced from is about twice as long.
        monkeypatch.setattr(tms, "MAX_WITNESS_CHARS", limit)
        w, wp = witness_strings(served)
        assert len(w) == len(wp) == (4**served + 2) // 3
        with pytest.raises(ResourceLimitError) as exc:
            witness_strings(served + 1)
        assert str(exc.value) == refusal


@pytest.fixture(scope="module")
def digit_sum_text():
    """The first 2^22 letters of the Thue-Morse word, letter i the parity of
    the binary digit sum of i, built with no package code."""
    import numpy as np

    parity = np.bitwise_count(np.arange(1 << 22, dtype=np.uint32)) & 1
    return (parity.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


class TestWitnessPair:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_words_are_thue_morse_slices(self, digit_sum_text, k):
        # w'_k is the prefix of length L_k, and w_k the factor at
        # (4^(k+1) - 1) / 3, read from the digit-sum parities.
        length, start = (4**k + 2) // 3, (4 ** (k + 1) - 1) // 3
        assert witness_strings(k) == (
            digit_sum_text[start : start + length],
            digit_sum_text[:length],
        )

    @pytest.mark.parametrize("k", range(1, 11))
    def test_positions_are_first_occurrences_in_the_bound_prefix(self, digit_sum_text, k):
        # d is the smallest depth with 2^d >= 24 |w| + 16 characters. Both
        # words lie in the fixture's 2^22 letters, also at k = 10 where 2^d
        # is 2^24, and prefixes nest, so its first occurrences are the 2^d
        # prefix's.
        depth = (24 * (4**k + 2) // 3 + 15).bit_length()
        p = witness_pair(k)
        assert p.certificate_depth == depth
        assert p.position == digit_sum_text.find(p.word) >= 0
        assert p.position_prime == digit_sum_text.find(p.word_prime) >= 0
        assert max(p.position, p.position_prime) + p.length <= min(1 << depth, 1 << 22)

    def test_index_ten_builds_an_eighth_of_the_certificate_prefix(self, monkeypatch):
        # Both words of index 10 end by position 1,747,627, so the positions
        # are read from 2^21 characters, not from the 2^24 of depth 24.
        built = []
        real = tms.expand_text
        monkeypatch.setattr(tms, "expand_text", lambda *a: built.append(real(*a)) or built[-1])
        assert witness_pair(10).certificate_depth == 24
        assert [len(t) for t in built] == [2**21]

    def test_index_ten_stays_below_8_mb(self):
        # The 2^21-character prefix is read; the full 2^24-character text
        # peaks at about 26 MB.
        tracemalloc.start()
        try:
            witness_pair(10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_fully_frozen_pair_two(self):
        p = witness_pair(2)
        assert p.index == 2
        assert p.word == "110011"
        assert p.word_prime == "011010"
        assert p.length == 6
        assert p.block_counts == (1, 1, 1, 2)
        assert p.block_counts_prime == (0, 2, 2, 1)
        assert p.block_difference == (1, -1, -1, 1)
        assert p.certificate_depth == 8
        assert p.position == 21
        assert p.position_prime == 0

    def test_certificate_slices(self):
        p = witness_pair(2)
        text = expand_text("0", p.certificate_depth)
        assert len(text) == 2**p.certificate_depth
        assert text[p.position : p.position + 6] == p.word
        assert text[p.position_prime : p.position_prime + 6] == p.word_prime

    def test_counts_recounted(self):
        for k in (1, 2, 3):
            p = witness_pair(k)
            assert p.block_counts == blocks4(p.word)
            assert p.block_counts_prime == blocks4(p.word_prime)

    def test_oversized_refused_before_the_words_are_built(self, monkeypatch):
        def boom(index):
            raise AssertionError("witness_strings was called")

        monkeypatch.setattr(tms, "witness_strings", boom)
        # 24 * (4^11 + 2) / 3 + 16 characters need a 2^26 expansion.
        with pytest.raises(
            ResourceLimitError,
            match="^certification text needs 67108864 characters, limit 45000000$",
        ):
            witness_pair(11)
        with pytest.raises(ValueError):
            witness_pair(0)

    @pytest.mark.parametrize(
        "fn,message",
        [
            (witness_pair, "certification text needs more than 2^60000004 characters"),
            (witness_strings, "witness pair needs more than 2^59999998 characters"),
        ],
        ids=["witness_pair", "witness_strings"],
    )
    def test_a_huge_index_is_refused_before_its_powers_are_built(self, fn, message):
        # 4^k alone would take 7.5 MB at k = 30,000,000.
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as exc:
                fn(30_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"{message}, limit 45000000"
        assert peak < 2**20


class TestBlockStructure:
    def test_eigenpairs_against_incidence(self):
        m = incidence_counts(block_substitution().substitution)
        for lam, vec in BLOCK_EIGENPAIRS:
            assert eigencheck(m, vec, lam)
        assert [lam for lam, _ in BLOCK_EIGENPAIRS] == [2, -1, 0, 1]
        assert BLOCK_EIGENPAIRS[0][1] == (1, 2, 2, 1)
        assert BLOCK_EIGENPAIRS[1][1] == (1, -1, -1, 1)

    def test_closed_forms(self):
        assert witness_closed_forms(1) == ((1, 1, 1, 2), (0, 2, 2, 1))
        for n in (1, 2):
            want, want_p = witness_closed_forms(n)
            w, wp = witness_strings(2 * n)
            assert blocks4(w) == want
            assert blocks4(wp) == want_p

    def test_growth_curve(self):
        assert witness_growth_curve(2) == [(6, 1), (86, 2)]
        with pytest.raises(ValueError):
            witness_growth_curve(0)

    def test_block_recursions(self):
        rows = block_recursion_checks(4)
        assert [r["index"] for r in rows] == [1, 2, 3, 4]
        assert all(r["word_recursion"] and r["prime_recursion"] for r in rows)


class TestMilestones:
    def test_first_two(self):
        rows = imbalance_milestones()[:2]
        assert [(i, sw.window_len, sw.imbalance) for i, sw in rows] == [
            (1, 6, 2),
            (2, 86, 3),
        ]
        for _, sw in rows:
            assert len(sw.high_window) == sw.window_len
            assert (
                brute_count(sw.high_window, sw.pattern) - brute_count(sw.low_window, sw.pattern)
                == sw.imbalance
            )


@st.composite
def small_towers(draw):
    """An eventually periodic directive of registered substitutions on one
    to four letters: a prefix of 0-2 and a period of 1-2 of them, each
    image up to three letters long, erasing ones and permutations among
    them."""
    letters = "abcd"[: draw(st.integers(1, 4))]
    image = st.text(alphabet=letters, max_size=3)
    names = "ABCD"[: draw(st.integers(0, 2)) + draw(st.integers(1, 2))]
    registry = {}
    for name in names:
        if draw(st.booleans()):
            images = draw(st.permutations(letters))
        else:
            images = [draw(image) for _ in letters]
        spec = ";".join(f"{a}->{w}" for a, w in zip(letters, images))
        registry[name] = Substitution.from_text(spec, Alphabet.from_text(letters))
    cut = draw(st.integers(0, min(2, len(names) - 1)))
    return parse_directive(f"{names[:cut]}|{names[cut:]}", registry)


SWAP_THEN_STAY = {
    "A": Substitution.from_text("a->b;b->a"),
    "B": Substitution.from_text("a->a;b->b"),
}


class TestScanHelpers:
    def test_level_scan_texts(self):
        texts, alphabet, _ = level_scan_texts(parse_directive("|M"), 64, 100)
        assert alphabet.symbols == ("0", "1")
        assert len(texts) == 2
        assert all(64 <= len(t) <= 100 for t in texts)
        assert set("".join(spelled(texts, alphabet))) <= {"0", "1"}

    def test_level_scan_guards(self):
        with pytest.raises(ValueError):
            level_scan_texts(parse_directive("|M"), 0, 10)
        with pytest.raises(ValueError):
            level_scan_texts(parse_directive("|M"), 10, 0)

    def test_level_scan_keeps_only_the_clipped_prefix(self):
        # At depth 27 the longest text has 191,861 characters, so the
        # schedule goes on to depth 40, where the two letter texts hold
        # 80,198,051 in all; only the first 480,016 of each are built.
        texts, alphabet, _ = level_scan_texts(parse_directive("|RLR"), 480016, 480016)
        assert [len(t) for t in texts] == [480016, 480016]
        assert alphabet.symbols == ("0", "1")

    def test_level_scan_budget_counts_kept_characters(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a text was built")

        monkeypatch.setattr(scan, "_tower_texts", boom)
        # |M reaches 10^8 characters at depth 27; two letter texts of 2^27
        # characters exceed the 80M budget when nothing is clipped away.
        with pytest.raises(ResourceLimitError, match="^scan expansion needs 134217728 characters"):
            level_scan_texts(parse_directive("|M"), 10**8, 10**12)

    @given(
        st.text(alphabet="LMR", max_size=3),
        st.text(alphabet="LMR", min_size=1, max_size=3),
        st.integers(1, 3000),
        st.integers(1, 5000),
        st.integers(1, 60),
    )
    def test_level_scan_matches_full_build_then_clip(
        self, prefix, period, min_chars, clip, max_depth
    ):
        d = parse_directive(f"{prefix}|{period}")
        depth, want = reference_scan_texts(d, min_chars, clip, max_depth)
        with mock.patch.object(scan, "_MAX_SCAN_DEPTH", max_depth):
            texts, alphabet, _ = level_scan_texts(d, min_chars, clip)
            depth_got = scan._scan_depth(d, alphabet, min_chars, clip)[0]
        assert alphabet.symbols == ("0", "1")
        assert depth_got == depth
        assert spelled(texts, alphabet) == want

    @pytest.mark.parametrize(
        "text, min_chars, clip",
        [
            ("|L", 9600, 24000),
            ("|RRR", 9600, 24000),
            ("|LM", 9600, 24000),
            ("|M", 24 * 1366 + 16, 60000),
            ("|MMM", 24 * 1366 + 16, 60000),
            ("L|L", 4800, 20000),
            ("L|R", 4800, 20000),
            ("ML|LLL", 4800, 20000),
        ],
    )
    def test_level_scan_matches_full_build_on_verify_towers(self, text, min_chars, clip):
        # The parameters of verify's sweeps; the linear towers among them
        # are scanned more than 4000 levels deep.
        d = parse_directive(text)
        depth, want = reference_scan_texts(d, min_chars, clip, 32768)
        texts, alphabet, _ = level_scan_texts(d, min_chars, clip)
        assert scan._scan_depth(d, alphabet, min_chars, clip)[0] == depth
        assert spelled(texts, alphabet) == want

    @given(small_towers(), st.integers(1, 300), st.integers(1, 300), st.integers(100, 400))
    # Level 2 repeats level 1, and every odd level from 3 on is level 0: a
    # search that held a prefix level would read a fixed point at level 1.
    @example(parse_directive("AB|A", SWAP_THEN_STAY), 2, 2, 101)
    def test_level_scan_matches_full_build_on_small_towers(self, d, min_chars, clip, max_depth):
        # Bounded towers, erasing or permuting ones, walk to the cap: their
        # lengths and texts are read from the first repeated level.
        depth, want = reference_scan_texts(d, min_chars, clip, max_depth)
        with mock.patch.object(scan, "_MAX_SCAN_DEPTH", max_depth):
            texts, alphabet, _ = level_scan_texts(d, min_chars, clip)
            depth_got = scan._scan_depth(d, alphabet, min_chars, clip)[0]
        assert depth_got == depth
        assert spelled(texts, alphabet) == want

    @pytest.mark.parametrize(
        "register",
        [
            "A=0->;1->01",
            "A=" + ";".join(f"{chr(97 + i)}->{chr(97 + (i + 1) % 26)}" for i in range(26)),
        ],
        ids=["erasing", "permutation-26"],
    )
    def test_stalled_walks_stop_at_a_repeated_level(self, monkeypatch, capsys, register):
        # Both towers reach the 32768-level cap with texts that stop
        # changing or cycle; a walk through every level composed 32768
        # letter maps.
        calls = []
        real = language._compose

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(language, "_compose", counted)
        monkeypatch.setattr(scan, "_compose", counted)
        argv = ["analyze", "--directive", "|A", "--register", register, "--max-length", "58"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert len(calls) < 200

    @given(
        st.text(alphabet="LR", max_size=2),
        st.text(alphabet="LR", min_size=1, max_size=3),
        st.integers(1, 5000),
        st.integers(1, 5000),
        st.integers(1, 3000),
    )
    @example("", "L", 2500, 3000, 3000)
    @example("RL", "RRR", 900, 700, 3000)
    def test_level_scan_matches_full_build_on_deep_towers(
        self, prefix, period, min_chars, clip, max_depth
    ):
        d = parse_directive(f"{prefix}|{period}")
        depth, want = reference_scan_texts(d, min_chars, clip, max_depth)
        with mock.patch.object(scan, "_MAX_SCAN_DEPTH", max_depth):
            texts, alphabet, _ = level_scan_texts(d, min_chars, clip)
            depth_got = scan._scan_depth(d, alphabet, min_chars, clip)[0]
        assert depth_got == depth
        assert spelled(texts, alphabet) == want

    def test_level_scan_matches_full_build_on_a_quadratic_tower(self):
        # Q^j(a) has j b's and j(j-1)/2 c's, so the text of a grows
        # quadratically and 30,000 characters take more than 256 levels;
        # P maps the three letters onto two.
        registry = {
            "P": Substitution.from_text("a->0;b->01;c->1"),
            "Q": Substitution.from_text("a->ab;b->bc;c->c"),
        }
        d = parse_directive("P|Q", registry)
        depth, want = reference_scan_texts(d, 30000, 5000, 32768)
        assert depth > 256
        texts, alphabet, _ = level_scan_texts(d, 30000, 5000)
        assert scan._scan_depth(d, alphabet, 30000, 5000)[0] == depth
        assert spelled(texts, alphabet) == want

    def test_level_scan_refusal_on_a_wide_alphabet(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a text was built")

        monkeypatch.setattr(scan, "_tower_texts", boom)
        monkeypatch.setattr(scan, "_periodic_tower_texts", boom)
        # Three letters of 2^j characters each at level j. With clip 3*10^7,
        # three clipped texts can hold more than 8*10^7 characters, so the
        # walk checks every level: level 25 keeps 3 * 3*10^7.
        d = parse_directive("|T", {"T": Substitution.from_text("a->ab;b->bc;c->ca")})
        with pytest.raises(
            ResourceLimitError,
            match="^scan expansion needs 90000000 characters, limit 80000000$",
        ):
            level_scan_texts(d, 3 * 10**7, 3 * 10**7)

    def test_squaring_stays_within_the_text_budget(self):
        # Two letters: the squaring may hold (3*2 + 3) * clip characters.
        d = parse_directive("|L")
        assert scan._squared(d, MAX_TEXT_CHARS // 9, 256)
        assert not scan._squared(d, MAX_TEXT_CHARS // 9 + 1, 256)
        assert not scan._squared(d, MAX_TEXT_CHARS // 9, 255)

    @pytest.mark.parametrize("letters", [16, 17])
    def test_level_scan_matches_full_build_on_wide_alphabets(self, letters, monkeypatch):
        # a gains one letter per level, so 400 characters take 454 levels;
        # powers of the incidence matrix serve alphabets of up to 16 letters.
        symbols = "abcdefghijklmnopq"[:letters]
        rules = ";".join(["a->ab"] + [f"{c}->{c}" for c in symbols[1:]])
        d = parse_directive("|T", {"T": Substitution.from_text(rules)})
        depth, want = reference_scan_texts(d, 400, 300, 32768)
        powers = []
        real = scan._periodic_tower_lengths
        monkeypatch.setattr(
            scan, "_periodic_tower_lengths", lambda *args: powers.append(args) or real(*args)
        )
        texts, alphabet, _ = level_scan_texts(d, 400, 300)
        assert spelled(texts, alphabet) == want
        assert scan._scan_depth(d, alphabet, 400, 300)[0] == depth == 454
        assert bool(powers) == (letters <= scan._SQUARING_LETTERS)

    def test_level_scan_walks_an_erasing_tower(self):
        # 1 gains one letter per level, so 400 characters take 454 levels,
        # deep enough for squaring; but 2 is erased, so the texts come from
        # the level walk.
        d = parse_directive("|S", {"S": Substitution.from_text("0->0;1->01;2->")})
        depth, want = reference_scan_texts(d, 400, 300, 32768)
        texts, alphabet, _ = level_scan_texts(d, 400, 300)
        assert scan._scan_depth(d, alphabet, 400, 300)[:2] == (depth, False) == (454, False)
        assert not scan._squared(d, 300, depth)
        assert spelled(texts, alphabet) == want

    def test_collect_factors(self):
        starts, lengths, text, depth, stable = factor_spans(8)
        factors = spanned(text, starts, lengths)
        assert stable
        assert len(factors) == 92
        per_len = [sum(1 for f in factors if len(f) == n) for n in range(1, 9)]
        assert per_len == [2, 4, 6, 10, 12, 16, 20, 22]
        tm = expand_text("0", 12)
        oracle = {tm[i : i + n] for n in range(1, 9) for i in range(len(tm) - n + 1)}
        assert set(factors) == oracle
        assert list(factors) == sorted(oracle)
        assert depth >= 1
        assert text == tm_prefix(depth)
        assert not starts.flags.writeable and not lengths.flags.writeable

    @pytest.mark.parametrize("max_len", range(1, 101))
    def test_factor_spans_match_the_set_construction(self, max_len):
        factors, depth, stable = reference_factor_spans(max_len)
        starts, lengths, text, got_depth, got_stable = factor_spans(max_len)
        assert spanned(text, starts, lengths) == factors
        assert (got_depth, got_stable) == (depth, stable)
        assert text == tm_prefix(depth)

    @pytest.mark.parametrize("max_len, max_depth", [(0, 26), (1, 2), (40, 10), (40, 11)])
    def test_factor_spans_edges_match_the_set_construction(self, max_len, max_depth):
        # No factors; a depth cap at or below the first depth (10 for
        # max_len 40), so nothing is doubled and the set is not stable; a
        # cap one doubling deeper.
        factors, depth, stable = reference_factor_spans(max_len, max_depth)
        starts, lengths, text, got_depth, got_stable = factor_spans(max_len, max_depth)
        assert spanned(text, starts, lengths) == factors
        assert (got_depth, got_stable) == (depth, stable)


class TestSturmianOracle:
    """Periods over {L, R} that use both letters generate Sturmian languages:
    n + 1 factors of each length n (Morse and Hedlund 1940), and letter
    counts of equal-length factors differ by at most 1."""

    @pytest.mark.parametrize("period", ["LR", "RL", "LLR", "LRL", "RLL", "LRR", "RLR", "RRL"])
    def test_scan_texts_are_sturmian(self, period):
        texts = spelled(*level_scan_texts(parse_directive("|" + period), 9600, 24000)[:2])
        # Every factor of length n <= 40 is a prefix of some window of 40.
        windows = {t[i : i + 40] for t in texts for i in range(len(t))}
        for n in range(1, 41):
            assert len({w[:n] for w in windows if len(w) >= n}) == n + 1
        # ones[t][i] counts the 1s of t[:i]; a window's count is a difference.
        ones = [list(itertools.accumulate((c == "1" for c in t), initial=0)) for t in texts]
        for m in range(1, 61):
            counts = [
                count for o in ones for count in map(operator.sub, o[m:], o[: len(o) - m])
            ]
            assert max(counts) - min(counts) == 1


class TestCompositions:
    def test_compositions_upto(self):
        # With identity slots dropped, depth 2 covers every composition of
        # at most two of L, M, R, composed right to left.
        comps = padded_compositions(2)
        assert len(comps) == 20
        names = {name.replace("I", "") for name, _ in comps}
        assert names == {
            "", "L", "M", "R",
            "LL", "LM", "LR", "ML", "MM", "MR", "RL", "RM", "RR",
        }
        by_name = dict(comps)
        identity = Substitution.identity(builtin("L").domain)
        assert by_name["I"] == identity and by_name["II"] == identity
        zero = Word.from_text("0", builtin("L").domain)
        assert by_name["LM"].apply(zero).render() == "010"  # L after M
        assert by_name["ML"].apply(zero).render() == "01"
        assert by_name["IL"].apply(zero) == by_name["L"].apply(zero)

    def test_padded_compositions(self):
        comps = padded_compositions(3)
        assert len(comps) == 84
        arity = {}
        for name, _ in comps:
            arity[len(name)] = arity.get(len(name), 0) + 1
        assert arity == {1: 4, 2: 16, 3: 64}
        assert all(set(name) <= set("ILMR") for name, _ in comps)

    def test_count_preservation(self):
        summary = count_preservation_violations(30, 2)
        assert summary["compositions"] == 20
        assert summary["violations"] == []
        assert summary["factor_set_stable"]
        assert summary["checked"] == 20 * summary["factors"]
        indep = len({sub.to_text() for _, sub in padded_compositions(2)})
        assert summary["distinct_substitutions"] == indep

    def test_count_preservation_holds_no_factor_strings(self):
        # Measured (numpy 2.4, Python 3.11): a 1.7 MB peak with the factors
        # held as spans of one text, 5.0 MB with all 15,812 held as strings.
        import numpy  # noqa: F401  (loaded before tracing starts)

        tms.factor_spans.cache_clear()
        tracemalloc.start()
        try:
            summary = count_preservation_violations(100, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (summary["factors"], summary["checked"]) == (15812, 1_328_208)
        assert peak < 2_400_000

    @pytest.mark.parametrize("composition_depth", [2, 3])
    def test_image_counts_match_direct_recount(self, composition_depth):
        starts, lengths, _, depth, _ = factor_spans(30)
        text = tm_prefix(depth)
        words = sorted(spanned(text, starts, lengths))
        starts = [text.find(w) for w in words]
        lengths = [len(w) for w in words]
        subs = {sub.to_text(): sub for _, sub in padded_compositions(composition_depth)}
        assert len(subs) == count_preservation_violations(30, composition_depth)[
            "distinct_substitutions"
        ]
        for sub in subs.values():
            table = {ord(a): "".join(sub.image(a).symbols) for a in "01"}
            pattern = "011".translate(table)
            got = image_pattern_counts(sub, text, starts, lengths)
            assert len(got) == len(words)
            for w, g in zip(words, got):
                assert g == brute_count(w.translate(table), pattern)
                assert g == brute_count(w, "011")

    def test_image_counts_at_every_span(self):
        rng = random.Random(17)
        text = "".join(rng.choice("01") for _ in range(40))
        spans = [(p, n) for n in range(0, 9) for p in range(len(text) - n + 1)]
        for rule in ("0->01;1->10", "0->0;1->10", "0->110;1->1", "0->1;1->1"):
            sub = Substitution.from_text(rule)
            table = {ord(a): "".join(sub.image(a).symbols) for a in "01"}
            for pattern in ("011", "1", "10"):
                got = image_pattern_counts(
                    sub, text, [p for p, _ in spans], [n for _, n in spans], pattern
                )
                want = [
                    brute_count(text[p : p + n].translate(table), pattern.translate(table))
                    for p, n in spans
                ]
                assert list(got) == want

    def test_identity_breaking_substitution_is_reported(self):
        starts, lengths, _, depth, _ = factor_spans(30)
        text = tm_prefix(depth)
        words = sorted(spanned(text, starts, lengths))
        ones = Substitution.from_text("0->1;1->1")  # sigma(011) = 111
        starts = [text.find(w) for w in words]
        lengths = [len(w) for w in words]
        violations, distinct = preservation_violations(
            [("A", ones), ("B", ones)], text, starts, lengths
        )
        assert distinct == 1
        # sigma(w) = 1^|w| holds max(|w| - 2, 0) copies of 111.
        bad = [w for w in words if max(len(w) - 2, 0) != brute_count(w, "011")]
        assert bad
        assert violations == [{"composition": "A", "word": w} for w in bad] + [
            {"composition": "B", "word": w} for w in bad
        ]
        clean, _ = preservation_violations(padded_compositions(2), text, starts, lengths)
        assert clean == []


class TestFactorMemo:
    def test_verify_collects_the_factor_set_once(self):
        tms.factor_spans.cache_clear()
        results = run_checks(only="occurrence-preservation") + run_checks(
            only="eleven-count-window"
        )
        assert all(r.passed for r in results)
        info = tms.factor_spans.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def eleven_difference(w: str) -> int:
    return brute_count(w, "11") - brute_count(w, "011")


class TestElevenCounts:
    def test_ranges(self):
        assert eleven_count_range("01", [], []) == (0, 0)
        assert eleven_count_range("0110", [0], [4]) == (0, 0)
        assert eleven_count_range("0110", [1], [2]) == (1, 1)
        assert eleven_count_range("0110", [1, 0], [2, 4]) == (0, 1)
        assert eleven_count_range("000", [0, 0], [1, 3]) == (0, 0)

    @given(
        st.text(alphabet="01", min_size=1, max_size=40),
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=8),
    )
    def test_matches_count_overlapping_per_factor(self, text, raw_spans):
        spans = [(p % len(text), n) for p, n in raw_spans]
        spans = [(p, min(n, len(text) - p)) for p, n in spans]
        want = [eleven_difference(text[p : p + n]) for p, n in spans]
        for (p, n), d in zip(spans, want):
            assert eleven_count_range(text, [p], [n]) == (d, d)
        assert eleven_count_range(text, *zip(*spans)) == (min(want), max(want))

    def test_fixed_point_window(self):
        starts, lengths, text, _, _ = factor_spans(10)
        lo, hi = eleven_count_range(text, starts, lengths)
        assert 0 <= lo <= hi <= 1
        diffs = [eleven_difference(w) for w in spanned(text, starts, lengths)]
        assert (lo, hi) == (min(diffs), max(diffs))
