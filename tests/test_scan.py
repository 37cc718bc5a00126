"""String-level scanning: scan texts, expansion, and sliding-window counts."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordbalance import scan
from wordbalance.tms import expand_text
from wordbalance.language import ResourceLimitError, _letter_codes, _short_factors, parse_directive
from wordbalance.scan import (
    ScanWitness,
    level_scan_texts,
    window_imbalance_curve,
    window_spreads,
)
from wordbalance.substitution import Substitution


def brute_count(text: str, pattern: str) -> int:
    return sum(
        1
        for i in range(len(text) - len(pattern) + 1)
        if text[i : i + len(pattern)] == pattern
    )


def symbol_expansions(d, depth):
    """sigma_[0,depth)(a) for every level-0 letter a, as symbol tuples,
    built without letter codes."""
    texts = {a: (a,) for a in d.level_alphabet(0).symbols}
    for j in range(depth):
        sig = d.substitution_at(j)
        texts = {a: sum((texts[b] for b in sig.image(a).symbols), ()) for a in sig.domain.symbols}
    return texts


class TestScanTexts:
    """level_scan_texts spells its texts in language._letter_codes: the
    i-th letter of the level-0 alphabet is chr(i)."""

    @pytest.mark.parametrize(
        "directive, registry",
        [
            ("|M", {}),
            ("|S", {"S": Substitution.from_text("\u0100->\u0100\u0101;\u0101->\u0100")}),
        ],
    )
    def test_texts_are_letter_codes(self, directive, registry):
        d = parse_directive(directive, registry)
        texts, alphabet = level_scan_texts(d, 100, 100)
        assert alphabet == d.level_alphabet(0)
        assert set("".join(texts)) == {"\0", "\1"}
        code = _letter_codes(alphabet)
        depth, _ = scan._scan_depth(d, alphabet, 100, 100, 32768)
        want = symbol_expansions(d, depth)
        assert texts == ["".join(map(code.__getitem__, w))[:100] for w in want.values()]

    @given(st.text(alphabet="LMR", min_size=1, max_size=24), st.integers(1, 3000))
    def test_finite_directive_stays_in_its_prefix(self, prefix, min_chars):
        d = parse_directive(prefix + "|")
        asked = []
        at = d.substitution_at
        d.substitution_at = lambda j: asked.append(j) or at(j)
        level_scan_texts(d, min_chars, min_chars)
        assert max(asked) < len(prefix)

    def test_alphabet_size_limit(self):
        letters = [chr(0x100 + i) for i in range(256)]
        d = parse_directive("|T", {"T": Substitution.from_text(";".join(f"{a}->{a}" for a in letters))})
        with pytest.raises(ResourceLimitError, match="^text codec needs 256 symbols, limit 200$"):
            level_scan_texts(d, 10, 10)


class TestExpansion:
    """tms.expand_text, the M kernel the scan tests build their texts with."""

    def test_doubling_expansion(self):
        assert expand_text("0", 0) == "0"
        assert expand_text("0", 2) == "0110"
        assert expand_text("0", 4) == "0110100110010110"
        assert expand_text("1", 3) == "10010110"

    def test_character_budget(self):
        with pytest.raises(ResourceLimitError):
            expand_text("0", 40, max_chars=1000)

    def test_refusals_name_the_limit(self):
        # The first too-long step is named: |M^10(0)| = 1024.
        with pytest.raises(ResourceLimitError, match="^expansion needs 1024 characters, limit 1000$"):
            expand_text("0", 40, max_chars=1000)

    def test_expansion_refused_before_any_text_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                expand_text("0", 20, max_chars=2**19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Building M^19(0) on the way to the refusal would take 2^19 bytes.
        assert peak < 2**16


@st.composite
def clipped_requests(draw):
    """A non-erasing translate table on 1-4 letters, a word of up to 40 of
    its letters and a clip of 1-80."""
    letters = "0123"[: draw(st.integers(1, 4))]
    table = {ord(a): draw(st.text(alphabet=letters, min_size=1, max_size=8)) for a in letters}
    return draw(st.text(alphabet=letters, max_size=40)), table, draw(st.integers(1, 80))


class TestClippedImage:
    @settings(max_examples=500)
    @given(clipped_requests())
    # The first step overshoots the clip and is halved back.
    @example(("0" * 40, {ord("0"): "00000000"}, 9))
    def test_matches_the_clipped_translation(self, request):
        word, table, clip = request
        assert scan._clipped_image(word, table, clip) == word.translate(table)[:clip]


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
        texts = [expand_text("0", 6), expand_text("1", 5)]
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
            spread = brute_count(witness.high_window, witness.pattern) - brute_count(
                witness.low_window, witness.pattern
            )
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
        texts = [expand_text("0", 5)]
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
        real = scan._match_into
        monkeypatch.setattr(
            scan, "_match_into", lambda t, p, *bufs: calls.append((t, p)) or real(t, p, *bufs)
        )
        texts = ["0110", "0000"]
        curve = window_imbalance_curve(texts, ["2", "11", "22", "0"], [1, 3])
        assert curve == python_curve(texts, ["2", "11", "22", "0"], [1, 3])
        assert calls == [("0110", "11"), ("0110", "0"), ("0000", "0")]


class TestComplementLetterSkip:
    """A one-letter pattern whose letter and an earlier one make up every
    text is skipped; the curve, witnesses included, is the pure-Python
    scan's."""

    @given(
        st.sampled_from(["01", "0", "012"]).flatmap(
            lambda letters: st.tuples(
                st.lists(st.text(alphabet=letters, max_size=14), min_size=1, max_size=3),
                st.lists(
                    st.text(alphabet="012", min_size=1, max_size=2), min_size=1, max_size=5
                ),
            )
        ),
        st.lists(st.integers(1, 16), min_size=1, max_size=4),
    )
    def test_matches_pure_python_scan(self, texts_and_patterns, lens):
        texts, patterns = texts_and_patterns
        assert window_imbalance_curve(texts, patterns, lens) == python_curve(texts, patterns, lens)

    @pytest.mark.parametrize(
        "texts, patterns",
        [
            (["0110100110010110", "1001"], ["0", "1"]),
            (["0110100110010110", "1001"], ["1", "0", "1", "0"]),
            (["0000", "000"], ["0", "1", "0"]),
            (["0120", "1102"], ["0", "1", "2"]),
            (["0110", "0202"], ["1", "0", "2"]),
        ],
    )
    def test_binary_unary_and_three_letter_texts(self, texts, patterns):
        lens = range(1, 17)
        assert window_imbalance_curve(texts, patterns, lens) == python_curve(texts, patterns, lens)

    def test_the_complement_letter_builds_no_indicator(self, monkeypatch):
        calls = []
        real = scan._match_into
        monkeypatch.setattr(
            scan, "_match_into", lambda t, p, *bufs: calls.append(p) or real(t, p, *bufs)
        )
        binary = ["0110100110010110", "1001"]
        window_imbalance_curve(binary, ["0", "1", "0", "11"], [1, 3])
        assert calls == ["0", "0", "11"]
        calls.clear()
        # A third letter: "0" and "1" no longer make up every text.
        window_imbalance_curve(["0120"], ["0", "1", "2"], [1, 3])
        assert calls == ["0", "1", "2"]


def all_texts_curve(texts, patterns, lens):
    """The window scan as it ran before it scanned one text at a time: per
    pattern, every text's occurrence prefix sum is built first, then each
    length walks the texts. Kept as the reference for the rewritten kernel;
    its only numpy work is the indicator, the prefix sum and the extremes."""
    lens = sorted(set(lens))
    top = lens[-1] if lens else 0
    dtype = np.uint16 if top < 2**16 else np.uint32
    letter_counts = set()
    best = {}
    for pattern in patterns:
        if len(pattern) == 1:
            counts = tuple(text.count(pattern) for text in texts)
            if tuple(len(t) - c for t, c in zip(texts, counts)) in letter_counts:
                continue
            letter_counts.add(counts)
        m = len(pattern)
        present = [pattern in text for text in texts]
        if best and not any(present):
            continue
        prefixes = []
        for text, here in zip(texts, present):
            prefix = None
            if here:
                data = np.frombuffer(text.encode("latin-1"), dtype=np.uint8)
                n = len(data) - m + 1
                ind = np.ones(n, dtype=bool)
                for j, code in enumerate(pattern.encode("latin-1")):
                    ind &= data[j : j + n] == code
                prefix = np.zeros(n + 1, dtype=dtype)
                np.cumsum(ind, dtype=dtype, out=prefix[1:])
            prefixes.append(prefix)
        for window_len in lens:
            hi = lo = None
            for ti, (text, prefix) in enumerate(zip(texts, prefixes)):
                t = len(text)
                if t < window_len:
                    continue
                if prefix is None or window_len < m:
                    mx = mn = am = an = 0
                else:
                    span, starts = window_len - m + 1, t - window_len + 1
                    counts = prefix[span : span + starts] - prefix[:starts]
                    am, an = int(counts.argmax()), int(counts.argmin())
                    mx, mn = int(counts[am]), int(counts[an])
                if hi is None or mx > hi[0]:
                    hi = (mx, ti, am)
                if lo is None or mn < lo[0]:
                    lo = (mn, ti, an)
            if hi is None:
                continue
            spread = hi[0] - lo[0]
            if window_len not in best or spread > best[window_len].imbalance:
                best[window_len] = ScanWitness(
                    pattern,
                    window_len,
                    spread,
                    texts[hi[1]][hi[2] : hi[2] + window_len],
                    texts[lo[1]][lo[2] : lo[2] + window_len],
                )
    return {w: best[w] for w in lens if w in best}


class TestOneTextAtATime:
    """window_imbalance_curve scans the texts one at a time inside each
    pattern, in one prefix sum and one count buffer; its curves, witnesses
    included, are those of the scan that held every text's prefix sum."""

    @given(
        st.sampled_from(["01", "012"]).flatmap(
            lambda letters: st.tuples(
                # The first text is repeated reversed, so equal extremes tie
                # across texts in other windows; texts as short as one letter
                # miss longer windows.
                st.lists(st.text(alphabet=letters, min_size=1, max_size=20), min_size=1, max_size=3)
                .map(lambda ts: ts + [ts[0][::-1]]),
                st.lists(st.text(alphabet="012", min_size=1, max_size=3), min_size=1, max_size=5),
            )
        ),
        st.lists(st.integers(1, 24), min_size=1, max_size=5),
    )
    def test_matches_the_all_texts_scan(self, texts_and_patterns, lens):
        texts, patterns = texts_and_patterns
        assert window_imbalance_curve(texts, patterns, lens) == all_texts_curve(
            texts, patterns, lens
        )

    @pytest.mark.parametrize(
        "lens", [[1, 3, 1000, 2**16 - 1], [1, 3, 1000, 2**16 - 1, 2**16, 2**16 + 7]]
    )
    def test_window_lengths_across_two_to_the_sixteen(self, lens):
        rng = random.Random(2**16)
        texts = [
            "".join(rng.choices("01", weights=(9, 1), k=70_000)),
            "".join(rng.choices("01", k=80_000)),
            "0110" * 20,
        ]
        patterns = ["1", "0", "11", "010", "2"]
        assert window_imbalance_curve(texts, patterns, lens) == all_texts_curve(
            texts, patterns, lens
        )

    @pytest.mark.parametrize("top, bound", [(60_000, 6.0), (70_000, 10.0)])
    def test_peak_per_character_of_the_longest_text(self, top, bound):
        # Two 1,000,000-character texts. Measured (numpy 2.4, Python 3.11):
        # 0.8 bytes per character below window length 2^16 and 1.3 above,
        # the chunk buffers only (see TestChunkedScan). The scan that held
        # a prefix sum and a count buffer as long as the text peaked at 5.1
        # and 9.1, the one that held one prefix sum per text at 9.1 and 17.2.
        rng = random.Random(top)
        n = 1_000_000
        texts = ["".join(rng.choices("01", k=n)) for _ in range(2)]
        tracemalloc.start()
        try:
            window_imbalance_curve(texts, ["0", "1", "01", "11"], [10, 1000, top])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < bound


class TestChunkedScan:
    """window_imbalance_curve reads each text's window starts in chunks of
    max(_CHUNK_FLOOR, longest window). With the floor lowered, short texts
    straddle many chunks; the curves, witnesses included, stay those of
    the scans that read whole texts."""

    @given(
        st.sampled_from([1, 2, 5]),
        st.sampled_from(["01", "012"]).flatmap(
            lambda letters: st.tuples(
                # The first text is repeated, so equal extremes recur in a
                # later chunk; texts may be shorter than some windows.
                st.lists(st.text(alphabet=letters, max_size=30), min_size=1, max_size=3)
                .map(lambda ts: ts + [ts[0] * 2]),
                st.lists(st.text(alphabet="012", min_size=1, max_size=3), min_size=1, max_size=5),
            )
        ),
        st.lists(st.integers(1, 12), min_size=1, max_size=4),
    )
    def test_matches_whole_text_scans(self, floor, texts_and_patterns, lens):
        texts, patterns = texts_and_patterns
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scan, "_CHUNK_FLOOR", floor)
            curve = window_imbalance_curve(texts, patterns, lens)
        assert curve == python_curve(texts, patterns, lens)
        assert curve == all_texts_curve(texts, patterns, lens)

    @pytest.mark.parametrize("floor", [1, 2, 5])
    @pytest.mark.parametrize(
        "texts, patterns, lens",
        [
            # "0110" and "11" occurrences cross every chunk edge.
            (["0110" * 6], ["0110", "11", "1"], [1, 2, 3, 4, 5, 9]),
            # Windows shorter than the pattern, longer than a text, and a
            # pattern absent from one text or from all.
            (["0011100", "000", "0101"], ["111", "2", "01"], [1, 2, 3, 4, 8]),
            (["0120210", "21"], ["0", "12", "2", "20"], [1, 2, 3, 6]),
        ],
    )
    def test_chunk_edges(self, monkeypatch, floor, texts, patterns, lens):
        monkeypatch.setattr(scan, "_CHUNK_FLOOR", floor)
        assert window_imbalance_curve(texts, patterns, lens) == python_curve(texts, patterns, lens)

    def test_earlier_chunk_wins_a_tie(self, monkeypatch):
        # Windows of 3 hold "1" twice at starts 0, 1, 3 and 4; the chunks are
        # starts [0, 3) and [3, 5), so the later chunk ties the first.
        monkeypatch.setattr(scan, "_CHUNK_FLOOR", 1)
        assert window_imbalance_curve(["1101011"], ["1"], [3]) == {
            3: ScanWitness("1", 3, 1, "110", "010")
        }

    def test_each_chunk_matches_only_new_text(self, monkeypatch):
        # The slices handed to _match_into overlap by len(pattern) - 1
        # characters and together make up the text: no indicator entry is
        # built twice.
        monkeypatch.setattr(scan, "_CHUNK_FLOOR", 4)
        slices = []
        real = scan._match_into
        monkeypatch.setattr(
            scan, "_match_into", lambda t, p, *bufs: slices.append(t) or real(t, p, *bufs)
        )
        text = "0110100110010110" * 2
        curve = window_imbalance_curve([text], ["011"], [1, 3])
        assert curve == python_curve([text], ["011"], [1, 3])
        assert len(slices) == 8
        assert slices[0] + "".join(s[2:] for s in slices[1:]) == text

    @pytest.mark.parametrize("top", [60_000, 70_000])
    def test_peak_does_not_grow_with_text_length(self, top):
        # Measured (numpy 2.4, Python 3.11): 0.77 MB below window length
        # 2^16 and 1.27 MB at 70,000, within 5 KB at both text lengths.
        rng = random.Random(top)
        sizes = (1_000_000, 2_000_000)
        texts = {n: ["".join(rng.choices("01", k=n)) for _ in range(2)] for n in sizes}
        peaks = {}
        for n in sizes:
            tracemalloc.start()
            try:
                window_imbalance_curve(texts[n], ["0", "1", "01", "11"], [10, 1000, top])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2_000_000] <= peaks[1_000_000] + 2**16
        assert max(peaks.values()) < 1.5 * 2**20


def spreads_of(curve):
    return {m: w.imbalance for m, w in curve.items()}


class TestWindowSpreads:
    """window_spreads is the spread half of window_imbalance_curve, read
    from occurrence-span tables."""

    @given(
        st.sampled_from(["0", "01", "012"]).flatmap(
            lambda letters: st.lists(st.text(alphabet=letters, max_size=14), min_size=1, max_size=3)
        ),
        st.lists(st.text(alphabet="012", min_size=1, max_size=5), max_size=5),
        st.lists(st.integers(1, 18), max_size=8),
    )
    def test_matches_both_curves(self, texts, patterns, lens):
        # Patterns may be absent from a text or longer than it, lengths may
        # repeat or fit no text, and a text may be one letter or empty.
        want = spreads_of(python_curve(texts, patterns, lens))
        assert window_spreads(texts, patterns, lens) == want
        assert spreads_of(window_imbalance_curve(texts, patterns, lens)) == want

    @pytest.mark.parametrize(
        "texts, patterns, lens, want",
        [
            (["0"], ["0", "1", "01"], [1, 1, 2], {1: 0}),
            (["0", "1"], ["0"], [1], {1: 1}),
            # Only the first text fits lengths 3 and 4, and "11" fills both
            # of its length-3 windows.
            (["0110", "1"], ["11", "0110"], [1, 2, 3, 4, 5], {1: 0, 2: 1, 3: 0, 4: 0}),
            # The widest gap is before the first or after the last occurrence.
            (["01111111111"], ["0"], [5], {5: 1}),
            (["11111111110"], ["0"], [5], {5: 1}),
            (["0101"], ["2"], [2, 9], {2: 0}),
            (["0101"], [], [2], {}),
            (["01"], ["0"], [3, 4], {}),
        ],
    )
    def test_small_cases(self, texts, patterns, lens, want):
        assert window_spreads(texts, patterns, lens) == want
        assert spreads_of(window_imbalance_curve(texts, patterns, lens)) == want

    @pytest.mark.parametrize("directive", ["|LR", "|MLR", "|RRM", "LM|MR"])
    def test_dense_range_on_scan_texts(self, directive):
        # The classifier sweep's inputs: clipped tower texts, every block of
        # two letters, all window lengths 2..400.
        texts, _ = level_scan_texts(parse_directive(directive), 9600, 24000)
        patterns = ["\0\0", "\0\1", "\1\0", "\1\1"]
        lens = range(2, 401)
        assert window_spreads(texts, patterns, lens) == spreads_of(
            window_imbalance_curve(texts, patterns, lens)
        )

    def test_windows_longer_than_every_text_of_one_pattern(self):
        # Both tables reach the text length: one window covers the text.
        text = "0110100110010110"
        lens = range(1, 17)
        assert window_spreads([text], ["0110", "1"], lens) == spreads_of(
            python_curve([text], ["0110", "1"], lens)
        )

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError):
            window_spreads(["01"], ["0"], [1, 0])

    def test_the_complement_letter_builds_no_indicator(self, monkeypatch):
        calls = []
        real = scan._occurrence_indicator
        monkeypatch.setattr(
            scan, "_occurrence_indicator", lambda t, p: calls.append(p) or real(t, p)
        )
        window_spreads(["0110100110010110", "1001"], ["0", "1", "2", "11"], [1, 3])
        assert calls == ["0", "0", "11"]


class TestSpanTableEdges:
    """window_spreads equals the curve's spreads where the span tables'
    blocks, paddings and dtypes change."""

    B = scan._SPAN_BLOCK

    @staticmethod
    def assert_spreads_match(texts, patterns, lens):
        assert window_spreads(texts, patterns, lens) == spreads_of(
            window_imbalance_curve(texts, patterns, lens)
        )

    @pytest.mark.parametrize("c", [B - 1, B, B + 1, 2 * B])
    def test_counts_at_block_edges(self, c):
        # Every window of the period 2c + 1 holds c zeros and c + 1 ones, so
        # both tables of "0" end after c entries and those of "1" after c + 1.
        text = ("0" * c + "1" * (c + 1)) * 3
        lens = range(1, 2 * c + 2)
        for pattern, count in (("0", c), ("1", c + 1)):
            most, least = scan._count_extremes(text, pattern, np.array(lens))
            assert (most[-1], least[-1]) == (count, count)
        self.assert_spreads_match([text, text[1:]], ["0", "1", "01"], lens)

    def test_dense_pattern(self):
        # "\0\0" starts at all but two positions of the first text.
        text = "\0" * 100 + "\1"
        self.assert_spreads_match([text, "\0\1" * 50], ["\0\0", "\0\1", "\1"], range(1, 102))

    def test_one_and_no_occurrence_in_a_text(self):
        self.assert_spreads_match(["0001000", "000"], ["1", "0"], range(1, 8))
        self.assert_spreads_match(["0110", "000"], ["1"], range(1, 5))

    @pytest.mark.parametrize("total", [2**15 - 2, 2**15 - 1, 2**15])
    @pytest.mark.parametrize("cap", [50, 16_000])
    def test_sixteen_bit_switch(self, total, cap):
        # t + cap at and around the int16 limit: a long table with a small
        # text margin, and a long text with a short table.
        t = total - cap
        rng = random.Random(total + cap)
        text = "".join(rng.choice("01") for _ in range(t))
        self.assert_spreads_match([text], ["0", "01"], [1, 2, cap // 2, cap - 1, cap])

    def test_text_past_sixteen_bits(self):
        rng = random.Random(40_000)
        text = "".join(rng.choice("01") for _ in range(40_000))
        self.assert_spreads_match([text], ["0", "01"], [1, 2, 50, 100])


class TestFactorSets:
    def test_distinct_factors(self):
        # The factor set of one scan text, as tms.factor_spans takes it.
        assert _short_factors(["0110"], 2) == {"0", "1", "01", "11", "10"}
        assert _short_factors(["0110"], 0) == set()
        rng = random.Random(606)
        text = "".join(rng.choice("ab") for _ in range(60))
        want = {
            text[i : i + n]
            for n in (1, 2, 3)
            for i in range(len(text) - n + 1)
        }
        assert _short_factors([text], 3) == want
