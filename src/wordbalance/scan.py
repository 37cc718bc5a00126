"""Fast windowed occurrence scans over long substitution expansions.

Words are flattened to one-character-per-letter strings so that occurrence
indicators and sliding-window counts can be vectorized with numpy prefix
sums. Every window of a scanned text is a genuine factor of the expanded
word, so scan extrema yield certified imbalance witnesses (lower bounds for
the ambient language's constants, upper bounds for any sample whose words
all occur in the text).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Tuple

from .language import _short_factors, _tower_lengths
from .limits import check_budget
from .substitution import Substitution
from .words import Alphabet, Symbol, Word

MAX_TEXT_CHARS = 80_000_000
_MAX_CODEC_SIZE = 200

# numpy is imported inside the functions that use it, so that commands which
# never scan a text (exact analyze, classify) do not pay for loading it.
if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class TextCodec:
    """Bijection between an alphabet and single latin-1 characters."""

    alphabet: Alphabet
    chars: Tuple[str, ...]

    @staticmethod
    def for_alphabet(alphabet: Alphabet) -> "TextCodec":
        symbols = alphabet.symbols
        check_budget("text codec", len(symbols), _MAX_CODEC_SIZE, "symbols")
        if all(isinstance(s, str) and len(s) == 1 and ord(s) < 256 for s in symbols):
            return TextCodec(alphabet, tuple(symbols))
        return TextCodec(alphabet, tuple(chr(33 + i) for i in range(len(symbols))))

    def encode_symbol(self, s: Symbol) -> str:
        return self.chars[self.alphabet.index(s)]

    def encode(self, w: Word) -> str:
        return "".join(self.chars[self.alphabet.index(s)] for s in w.symbols)

    def decode(self, text: str) -> Word:
        back = {c: s for c, s in zip(self.chars, self.alphabet.symbols)}
        return Word(tuple(back[c] for c in text), self.alphabet)


def expand_text(
    sub: Substitution,
    seed: Symbol,
    depth: int,
    codec: Optional[TextCodec] = None,
    max_chars: int = MAX_TEXT_CHARS,
) -> str:
    """The string sigma^depth(seed) for an endomorphism, in codec characters.

    Refused, before any text is built, when some sigma^j(seed) with
    1 <= j <= depth has more than max_chars characters; the tower's
    lengths walk gives those lengths exactly.
    """
    if sub.domain != sub.codomain:
        raise ValueError("expand_text needs an endomorphism")
    codec = codec or TextCodec.for_alphabet(sub.domain)
    # str.translate writes the image directly; joining a generator would
    # first list one reference per character (8 bytes each).
    table = {
        ord(codec.encode_symbol(a)): codec.encode(sub.image(a)) for a in sub.domain.symbols
    }
    walk = _tower_lengths(itertools.repeat(sub, depth), sub.domain)
    for lengths in itertools.islice(walk, 1, None):
        check_budget("expansion", lengths[seed], max_chars)
    cur = codec.encode_symbol(seed)
    for _ in range(depth):
        cur = cur.translate(table)
    return cur


def count_overlapping(text: str, pattern: str) -> int:
    """Occurrences of pattern in text, overlaps included."""
    if not pattern:
        raise ValueError("pattern must be nonempty")
    count = 0
    idx = text.find(pattern)
    while idx != -1:
        count += 1
        idx = text.find(pattern, idx + 1)
    return count


def _occurrence_indicator(text: str, pattern: str) -> np.ndarray:
    """indicator[i] is True iff text[i:i+len(pattern)] == pattern."""
    import numpy as np

    data = np.frombuffer(text.encode("latin-1"), dtype=np.uint8)
    pat = np.frombuffer(pattern.encode("latin-1"), dtype=np.uint8)
    m, t = len(pat), len(data)
    if m == 0 or t < m:
        return np.zeros(max(t - m + 1, 0), dtype=bool)
    match = data[: t - m + 1] == pat[0]
    for j in range(1, m):
        match &= data[j : t - m + 1 + j] == pat[j]
    return match


@dataclass(frozen=True)
class ScanWitness:
    """Equal-length window pair with extremal counts of one pattern."""

    pattern: str
    window_len: int
    imbalance: int
    high_window: str
    low_window: str


def window_imbalance_curve(
    texts: Sequence[str], patterns: Sequence[str], window_lens: Iterable[int]
) -> Dict[int, ScanWitness]:
    """Largest count spread of any pattern, per window length, over all texts.

    Runs pattern by pattern: one pattern's occurrence prefix sums (one per
    text) are built, serve every window length, and are dropped before the
    next pattern's. A text without the pattern gets none: its counts are
    all zero. Lengths no text can fit are omitted from the result.
    Deterministic: texts and patterns are scanned in the given order, first
    achiever wins.
    """
    import numpy as np

    lens = sorted(set(window_lens))
    if lens and lens[0] <= 0:
        raise ValueError("window length must be positive")
    # A window's count is at most its length, so prefix sums kept modulo
    # 2^16 (or 2^32) still give every window count exactly, with a quarter
    # (or half) of the memory traffic of int64.
    top = lens[-1] if lens else 0
    dtype = np.uint16 if top < 2**16 else np.uint32 if top < 2**32 else np.uint64
    buf = np.empty(max(map(len, texts), default=0), dtype=dtype)
    best: Dict[int, ScanWitness] = {}
    for pattern in patterns:
        m = len(pattern)
        present = [pattern in text for text in texts]
        # A pattern that occurs nowhere has spread 0 at every length, which
        # never beats a witness already found (after the first pattern, every
        # length some text fits has one).
        if best and not any(present):
            continue
        prefixes = []
        for text, here in zip(texts, present):
            prefix = None
            if here:
                ind = _occurrence_indicator(text, pattern)
                prefix = np.zeros(len(ind) + 1, dtype=dtype)
                np.cumsum(ind, dtype=dtype, out=prefix[1:])
            prefixes.append(prefix)
        for window_len in lens:
            hi: Optional[Tuple[int, int, int]] = None
            lo: Optional[Tuple[int, int, int]] = None
            for ti, (text, prefix) in enumerate(zip(texts, prefixes)):
                t = len(text)
                if t < window_len:
                    continue
                if prefix is None or window_len < m:
                    mx = mn = am = an = 0
                else:
                    span = window_len - m + 1
                    starts = t - window_len + 1
                    counts = np.subtract(
                        prefix[span : span + starts], prefix[:starts], out=buf[:starts]
                    )
                    # argmax/argmin return the first achiever, so reading the
                    # extremes through them keeps the smallest-start rule.
                    am, an = int(counts.argmax()), int(counts.argmin())
                    mx, mn = int(counts[am]), int(counts[an])
                if hi is None or mx > hi[0]:
                    hi = (mx, ti, am)
                if lo is None or mn < lo[0]:
                    lo = (mn, ti, an)
            if hi is None or lo is None:
                continue
            spread = hi[0] - lo[0]
            # Patterns arrive in order, so a strict improvement keeps the
            # first pattern achieving the largest spread.
            if window_len not in best or spread > best[window_len].imbalance:
                best[window_len] = ScanWitness(
                    pattern=pattern,
                    window_len=window_len,
                    imbalance=spread,
                    high_window=texts[hi[1]][hi[2] : hi[2] + window_len],
                    low_window=texts[lo[1]][lo[2] : lo[2] + window_len],
                )
    return {m: best[m] for m in lens if m in best}


def distinct_factors(text: str, max_len: int, min_len: int = 1) -> set:
    """All distinct nonempty substrings of text with lengths in [min_len, max_len]."""
    return {w for w in _short_factors([text], max_len) if len(w) >= min_len}

