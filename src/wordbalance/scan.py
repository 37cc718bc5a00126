"""Fast windowed occurrence scans over long substitution expansions.

Words are flattened to one-character-per-letter strings so that occurrence
indicators and sliding-window counts can be vectorized with numpy prefix
sums. Every window of a scanned text is a genuine factor of the expanded
word, so scan extrema yield certified imbalance witnesses (lower bounds for
the ambient language's constants, upper bounds for any sample whose words
all occur in the text).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from .language import DirectiveSequence, ResourceLimitError
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
        if len(symbols) > _MAX_CODEC_SIZE:
            raise ValueError("alphabet too large for text scanning")
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
    """The string sigma^depth(seed) for an endomorphism, in codec characters."""
    if sub.domain != sub.codomain:
        raise ValueError("expand_text needs an endomorphism")
    codec = codec or TextCodec.for_alphabet(sub.domain)
    # str.translate writes the image directly; joining a generator would
    # first list one reference per character (8 bytes each).
    table = {
        ord(codec.encode_symbol(a)): codec.encode(sub.image(a)) for a in sub.domain.symbols
    }
    cur = codec.encode_symbol(seed)
    for _ in range(depth):
        cur = cur.translate(table)
        if len(cur) > max_chars:
            raise ResourceLimitError("expansion exceeds the text budget")
    return cur


def tower_letter_texts(
    d: DirectiveSequence,
    k: int,
    depth: int,
    max_chars: int = MAX_TEXT_CHARS,
) -> Tuple[Dict[Symbol, str], TextCodec]:
    """Letter images of sigma_[k,depth) as strings over the level-k codec."""
    codec = TextCodec.for_alphabet(d.level_alphabet(k))
    images = {a: codec.encode_symbol(a) for a in d.level_alphabet(k).symbols}
    for j in range(k, depth):
        sig = d.substitution_at(j)
        images = {
            a: "".join(images[b] for b in sig.image(a).symbols)
            for a in sig.domain.symbols
        }
        if sum(map(len, images.values())) > max_chars:
            raise ResourceLimitError("tower expansion exceeds the text budget")
    return images, codec


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
    """indicator[i] == 1 iff text[i:i+len(pattern)] == pattern."""
    import numpy as np

    data = np.frombuffer(text.encode("latin-1"), dtype=np.uint8)
    pat = np.frombuffer(pattern.encode("latin-1"), dtype=np.uint8)
    m, t = len(pat), len(data)
    if m == 0 or t < m:
        return np.zeros(max(t - m + 1, 0), dtype=np.int64)
    match = data[: t - m + 1] == pat[0]
    for j in range(1, m):
        match &= data[j : t - m + 1 + j] == pat[j]
    return match.astype(np.int64)


@dataclass(frozen=True)
class WindowExtrema:
    """Sliding-window occurrence extrema of one pattern in one text."""

    pattern: str
    window_len: int
    max_count: int
    min_count: int
    argmax: int
    argmin: int


def window_count_extrema(text: str, pattern: str, window_len: int) -> Optional[WindowExtrema]:
    """Extrema of pattern counts over all windows of window_len in text.

    Returns None when the text is shorter than the window. argmax/argmin are
    the smallest window start positions achieving the extrema.
    """
    import numpy as np

    t, m = len(text), len(pattern)
    if window_len <= 0:
        raise ValueError("window length must be positive")
    if t < window_len:
        return None
    if window_len < m:
        zeros = t - window_len + 1
        return WindowExtrema(pattern, window_len, 0, 0, 0, 0) if zeros else None
    ind = _occurrence_indicator(text, pattern)
    prefix = np.concatenate([[0], np.cumsum(ind)])
    span = window_len - m + 1
    counts = prefix[span : span + (t - window_len + 1)] - prefix[: t - window_len + 1]
    return WindowExtrema(
        pattern=pattern,
        window_len=window_len,
        max_count=int(counts.max()),
        min_count=int(counts.min()),
        argmax=int(counts.argmax()),
        argmin=int(counts.argmin()),
    )


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

    Occurrence prefix sums are built once per (text, pattern) and reused
    across all window lengths. Lengths no text can fit are omitted from the
    result. Deterministic: texts and patterns are scanned in the given
    order, first achiever wins.
    """
    import numpy as np

    prefixes: Dict[Tuple[int, str], np.ndarray] = {}
    for ti, text in enumerate(texts):
        for pattern in patterns:
            ind = _occurrence_indicator(text, pattern)
            prefixes[ti, pattern] = np.concatenate([[0], np.cumsum(ind)])
    out: Dict[int, ScanWitness] = {}
    for window_len in sorted(set(window_lens)):
        if window_len <= 0:
            raise ValueError("window length must be positive")
        best: Optional[ScanWitness] = None
        for pattern in patterns:
            m = len(pattern)
            hi: Optional[Tuple[int, int, int]] = None
            lo: Optional[Tuple[int, int, int]] = None
            for ti, text in enumerate(texts):
                t = len(text)
                if t < window_len:
                    continue
                if window_len < m:
                    mx = mn = am = an = 0
                else:
                    prefix = prefixes[ti, pattern]
                    span = window_len - m + 1
                    counts = (
                        prefix[span : span + (t - window_len + 1)]
                        - prefix[: t - window_len + 1]
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
            if best is None or spread > best.imbalance:
                best = ScanWitness(
                    pattern=pattern,
                    window_len=window_len,
                    imbalance=spread,
                    high_window=texts[hi[1]][hi[2] : hi[2] + window_len],
                    low_window=texts[lo[1]][lo[2] : lo[2] + window_len],
                )
        if best is not None:
            out[window_len] = best
    return out


def window_imbalance(
    texts: Sequence[str], patterns: Sequence[str], window_len: int
) -> Optional[ScanWitness]:
    """Largest count spread of any pattern over equal-length windows.

    Maxima and minima are taken across all windows of all texts; the result
    carries the extremal windows themselves, which are factors of the texts.
    Returns None when no text fits the window.
    """
    return window_imbalance_curve(texts, patterns, [window_len]).get(window_len)


def distinct_factors(text: str, max_len: int, min_len: int = 1) -> set:
    """All distinct substrings of text with lengths in [min_len, max_len]."""
    pool: set = set()
    t = len(text)
    for length in range(min_len, max_len + 1):
        for i in range(t - length + 1):
            pool.add(text[i : i + length])
    return pool

