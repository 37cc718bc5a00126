"""String-level scanning: codecs, expansion, and sliding-window counts."""

import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordbalance import scan
from wordbalance.language import ResourceLimitError
from wordbalance.scan import (
    ScanWitness,
    TextCodec,
    count_overlapping,
    distinct_factors,
    expand_text,
    window_imbalance_curve,
)
from wordbalance.substitution import Substitution
from wordbalance.words import Alphabet, Word, block_alphabet, n_coding

BIN = Alphabet.from_text("01")
M = Substitution.from_text("0->01;1->10")


def brute_count(text: str, pattern: str) -> int:
    return sum(
        1
        for i in range(len(text) - len(pattern) + 1)
        if text[i : i + len(pattern)] == pattern
    )


class TestTextCodec:
    def test_single_char_passthrough(self):
        codec = TextCodec.for_alphabet(BIN)
        assert codec.chars == ("0", "1")
        w = Word.from_text("0110", BIN)
        assert codec.encode(w) == "0110"
        assert codec.decode("0110") == w

    def test_tuple_symbols_get_fresh_chars(self):
        blocks = block_alphabet(BIN, 2)
        codec = TextCodec.for_alphabet(blocks)
        assert codec.chars == ("!", '"', "#", "$")
        coded = n_coding(Word.from_text("0110", BIN), 2)
        assert codec.encode(coded) == '"$#'
        assert codec.decode('"$#') == coded

    def test_alphabet_size_limit(self):
        with pytest.raises(ResourceLimitError, match="needs 256 symbols, limit 200"):
            TextCodec.for_alphabet(block_alphabet(BIN, 8))  # 256 symbols


class TestExpansion:
    def test_doubling_expansion(self):
        assert expand_text(M, "0", 0) == "0"
        assert expand_text(M, "0", 2) == "0110"
        assert expand_text(M, "0", 4) == "0110100110010110"
        assert expand_text(M, "1", 3) == "10010110"

    def test_needs_endomorphism(self):
        widening = Substitution.from_text("0->012;1->01")
        with pytest.raises(ValueError):
            expand_text(widening, "0", 2)

    def test_character_budget(self):
        with pytest.raises(ResourceLimitError):
            expand_text(M, "0", 40, max_chars=1000)

    def test_refusals_name_the_limit(self):
        # The first too-long step is named: |M^10(0)| = 1024.
        with pytest.raises(ResourceLimitError, match="^expansion needs 1024 characters, limit 1000$"):
            expand_text(M, "0", 40, max_chars=1000)

    def test_budget_applies_to_every_step(self):
        # 0 -> 11, 1 -> (erased): sigma(0) = 11 is over budget although
        # sigma^2(0) is empty, so the request is refused as before.
        erasing = Substitution.from_text("0->11;1->")
        assert expand_text(erasing, "0", 2) == ""
        with pytest.raises(ResourceLimitError, match="needs 2 characters, limit 1"):
            expand_text(erasing, "0", 2, max_chars=1)

    def test_expansion_refused_before_any_text_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                expand_text(M, "0", 20, max_chars=2**19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Building M^19(0) on the way to the refusal would take 2^19 bytes.
        assert peak < 2**16

    @given(
        st.lists(st.text(alphabet="012", max_size=3), min_size=3, max_size=3),
        st.sampled_from("012"),
        st.integers(0, 7),
    )
    def test_expansion_matches_stepwise_translate(self, images, seed, depth):
        sub = Substitution.from_text(";".join(f"{a}->{w}" for a, w in zip("012", images)))
        table = {ord(a): w for a, w in zip("012", images)}
        want = seed
        for _ in range(depth):
            want = want.translate(table)
        assert expand_text(sub, seed, depth) == want
        if len(want) > 1:
            with pytest.raises(ResourceLimitError):
                expand_text(sub, seed, depth, max_chars=len(want) - 1)


class TestCounting:
    def test_literals(self):
        assert count_overlapping("0110110", "11") == 2
        assert count_overlapping("aaa", "aa") == 2
        assert count_overlapping("0101", "11") == 0
        assert count_overlapping("", "0") == 0

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            count_overlapping("01", "")

    def test_random_oracle(self):
        rng = random.Random(404)
        for _ in range(200):
            text = "".join(rng.choice("01") for _ in range(rng.randint(0, 30)))
            pat = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
            assert count_overlapping(text, pat) == brute_count(text, pat)


class TestOnePatternCurve:
    """window_imbalance_curve on one text and one pattern: the spread of the
    pattern's window counts, with the first highest and lowest window."""

    def test_matches_brute_force(self):
        rng = random.Random(505)
        for _ in range(80):
            text = "".join(rng.choice("01") for _ in range(rng.randint(1, 40)))
            pat = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
            win = rng.randint(1, 12)
            got = window_imbalance_curve([text], [pat], [win])
            if len(text) < win:
                assert got == {}
                continue
            counts = [
                brute_count(text[i : i + win], pat)
                for i in range(len(text) - win + 1)
            ]
            hi, lo = counts.index(max(counts)), counts.index(min(counts))
            assert got[win] == ScanWitness(
                pat, win, max(counts) - min(counts), text[hi : hi + win], text[lo : lo + win]
            )

    def test_window_shorter_than_pattern(self):
        got = window_imbalance_curve(["010101"], ["0101"], [2])
        assert got[2] == ScanWitness("0101", 2, 0, "01", "01")

    def test_guards(self):
        with pytest.raises(ValueError):
            window_imbalance_curve(["01"], ["0"], [0])
        assert window_imbalance_curve(["01"], ["0"], [5]) == {}


class TestWindowImbalance:
    def test_curve_matches_brute_force(self):
        texts = [expand_text(M, "0", 6), expand_text(M, "1", 5)]
        patterns = ["0", "11"]
        lens = [1, 2, 5, 9]
        curve = window_imbalance_curve(texts, patterns, lens)
        assert sorted(curve) == lens
        for win, witness in curve.items():
            best = 0
            for pat in patterns:
                pool = [
                    brute_count(t[i : i + win], pat)
                    for t in texts
                    if len(t) >= win
                    for i in range(len(t) - win + 1)
                ]
                best = max(best, max(pool) - min(pool))
            assert witness.imbalance == best
            assert witness.window_len == win
            assert len(witness.high_window) == win
            assert len(witness.low_window) == win
            assert any(witness.high_window in t for t in texts)
            assert any(witness.low_window in t for t in texts)
            spread = count_overlapping(
                witness.high_window, witness.pattern
            ) - count_overlapping(witness.low_window, witness.pattern)
            assert spread == witness.imbalance

    @given(
        st.lists(st.text(alphabet="01", max_size=12), min_size=1, max_size=3),
        st.lists(st.text(alphabet="01", min_size=1, max_size=3), min_size=1, max_size=3),
        st.lists(st.integers(1, 14), min_size=1, max_size=4),
    )
    def test_witnesses_are_first_achievers(self, texts, patterns, lens):
        """Spread and witnesses against a pure-Python scan: the highest and
        lowest window is the first achiever in text order, then by start."""
        want = {}
        for win in sorted(set(lens)):
            best = None
            for pat in patterns:
                hi = lo = None
                for ti, text in enumerate(texts):
                    for i in range(len(text) - win + 1):
                        c = brute_count(text[i : i + win], pat)
                        if hi is None or c > hi[0]:
                            hi = (c, text[i : i + win])
                        if lo is None or c < lo[0]:
                            lo = (c, text[i : i + win])
                if hi is None:
                    continue
                if best is None or hi[0] - lo[0] > best.imbalance:
                    best = ScanWitness(pat, win, hi[0] - lo[0], hi[1], lo[1])
            if best is not None:
                want[win] = best
        assert window_imbalance_curve(texts, patterns, lens) == want

    def test_unfittable_lengths_omitted(self):
        curve = window_imbalance_curve(["0101"], ["0"], [2, 99])
        assert sorted(curve) == [2]
        assert window_imbalance_curve(["0101"], ["0"], [99]) == {}

    def test_deterministic(self):
        texts = [expand_text(M, "0", 5)]
        a = window_imbalance_curve(texts, ["01", "10"], range(1, 9))
        b = window_imbalance_curve(texts, ["01", "10"], range(1, 9))
        assert a == b

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError):
            window_imbalance_curve(["01"], ["0"], [1, 0])


def python_curve(texts, patterns, lens):
    """Pure-Python window scan with Python-int prefix sums: per length, the
    first pattern with the largest spread, its highest and lowest window the
    first achievers in text order, then by start."""
    prefixes = {}
    for pat in patterns:
        for ti, text in enumerate(texts):
            acc = [0]
            for i in range(len(text)):
                acc.append(acc[-1] + text.startswith(pat, i))
            prefixes[pat, ti] = acc
    want = {}
    for win in sorted(set(lens)):
        best = None
        for pat in patterns:
            hi = lo = None
            for ti, text in enumerate(texts):
                acc = prefixes[pat, ti]
                for i in range(len(text) - win + 1):
                    # Occurrences that start in [i, i + win - |pat|].
                    end = max(i, i + win - len(pat) + 1)
                    c = acc[end] - acc[i]
                    if hi is None or c > hi[0]:
                        hi = (c, text[i : i + win])
                    if lo is None or c < lo[0]:
                        lo = (c, text[i : i + win])
            if hi is not None and (best is None or hi[0] - lo[0] > best.imbalance):
                best = ScanWitness(pat, win, hi[0] - lo[0], hi[1], lo[1])
        if best is not None:
            want[win] = best
    return want


class TestWindowKernel:
    def test_sixteen_bit_prefix_wraps(self):
        # "0" occurs about 71,000 times, so its prefix sums pass 2^16 and
        # wrap; every window is shorter than 2^16, so counts are 16-bit.
        # The run of "1"s takes the counts of the 40,000-windows from about
        # 38,000 down to about 15,000, across 2^15.
        rng = random.Random(707)
        text = "".join("1" if rng.random() < 0.05 else "0" for _ in range(75_000)) + "1" * 25_000
        lens = [1, 300, 40_000, 2**16 - 1]
        curve = window_imbalance_curve([text], ["0", "01"], lens)
        assert curve == python_curve([text], ["0", "01"], lens)
        assert curve[40_000].imbalance > 20_000

    def test_window_of_two_to_the_sixteen(self):
        # Counts of "0" reach 2^16, past any 16-bit count.
        text = "0" * 70_000 + "1" * 10 + "0" * 100
        lens = [2**16, 2**16 + 50]
        curve = window_imbalance_curve([text], ["0"], lens)
        assert curve == python_curve([text], ["0"], lens)
        assert curve[2**16].imbalance == 10

    def test_pattern_absent_from_one_text(self):
        # "11" fills every window of the first text and never occurs in the
        # second, so the lowest window is the second text's first one.
        texts = ["1" * 12, "0" * 12, "0110" * 3]
        lens = [1, 2, 3, 5, 12]
        curve = window_imbalance_curve(texts, ["11", "0"], lens)
        assert curve == python_curve(texts, ["11", "0"], lens)
        assert window_imbalance_curve(texts, ["11"], [5]) == {
            5: ScanWitness("11", 5, 4, "11111", "00000")
        }

    def test_all_spreads_zero(self):
        # No pattern varies at any length; the witness is the first pattern,
        # absent everywhere, at the start of the first text long enough.
        texts = ["0", "0000"]
        patterns = ["2", "00", "0"]
        lens = [1, 2]
        curve = window_imbalance_curve(texts, patterns, lens)
        assert curve == python_curve(texts, patterns, lens)
        assert curve == {
            1: ScanWitness("2", 1, 0, "0", "0"),
            2: ScanWitness("2", 2, 0, "00", "00"),
        }
        assert window_imbalance_curve(["0000"], ["1", "0"], [2]) == {
            2: ScanWitness("1", 2, 0, "00", "00")
        }

    def test_indicators_only_for_present_patterns(self, monkeypatch):
        calls = []
        real = scan._occurrence_indicator
        monkeypatch.setattr(
            scan, "_occurrence_indicator", lambda t, p: calls.append((t, p)) or real(t, p)
        )
        texts = ["0110", "0000"]
        curve = window_imbalance_curve(texts, ["2", "11", "22", "0"], [1, 3])
        assert curve == python_curve(texts, ["2", "11", "22", "0"], [1, 3])
        assert calls == [("0110", "11"), ("0110", "0"), ("0000", "0")]


class TestFactorSets:
    def test_distinct_factors(self):
        assert distinct_factors("0110", 2) == {"0", "1", "01", "11", "10"}
        assert distinct_factors("0110", 2, min_len=2) == {"01", "11", "10"}
        rng = random.Random(606)
        text = "".join(rng.choice("ab") for _ in range(60))
        want = {
            text[i : i + n]
            for n in (1, 2, 3)
            for i in range(len(text) - n + 1)
        }
        assert distinct_factors(text, 3) == want
