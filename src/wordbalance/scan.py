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
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .language import DirectiveSequence, _short_factors
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


def _letter_lengths(
    subs: Iterable[Substitution], alphabet: Alphabet
) -> Iterator[Dict[Symbol, int]]:
    """Letter-text lengths after each level of _tower_texts, with no text built.

    |sigma_[0,j+1)(a)| is the sum of |sigma_[0,j)(b)| over the letters b of
    sigma_j(a). Lazy, so a caller that stops at its first refusal never holds
    an integer much larger than its budget.
    """
    lengths = dict.fromkeys(alphabet.symbols, 1)
    for sig in subs:
        lengths = {
            a: sum(lengths[b] for b in sig.image(a).symbols) for a in sig.domain.symbols
        }
        yield lengths


def _tower_texts(
    subs: Iterable[Substitution], codec: TextCodec, clip: Optional[int] = None
) -> Dict[Symbol, str]:
    """Letter texts of subs[0] o subs[1] o ... o subs[-1] over the codec.

    Level j+1's text of a letter a is the concatenation of level j's texts
    of the letters of subs[j](a), so every level costs a few copies and no
    per-character work. With `clip`, every text is cut to its first clip
    characters, and only those are ever built: the clipped text of a is the
    concatenation of the clipped texts of its image letters, cut at clip.
    """
    texts = dict(zip(codec.alphabet.symbols, codec.chars))
    for sig in subs:
        texts = {
            a: _concat([texts[b] for b in sig.image(a).symbols], clip)
            for a in sig.domain.symbols
        }
    return texts


def _concat(parts: List[str], clip: Optional[int]) -> str:
    """"".join(parts)[:clip] without copying the characters past clip."""
    if clip is not None:
        kept: List[str] = []
        room = clip
        for part in parts:
            if len(part) >= room:
                kept.append(part[:room])
                break
            kept.append(part)
            room -= len(part)
        parts = kept
    return "".join(parts)


def expand_text(
    sub: Substitution,
    seed: Symbol,
    depth: int,
    codec: Optional[TextCodec] = None,
    max_chars: int = MAX_TEXT_CHARS,
) -> str:
    """The string sigma^depth(seed) for an endomorphism, in codec characters.

    Refused, before any text is built, when some sigma^j(seed) with
    j <= depth has more than max_chars characters; the letter counts of
    sigma^j(seed) give those lengths exactly.
    """
    if sub.domain != sub.codomain:
        raise ValueError("expand_text needs an endomorphism")
    codec = codec or TextCodec.for_alphabet(sub.domain)
    # str.translate writes the image directly; joining a generator would
    # first list one reference per character (8 bytes each).
    table = {
        ord(codec.encode_symbol(a)): codec.encode(sub.image(a)) for a in sub.domain.symbols
    }
    cur = codec.encode_symbol(seed)
    counts = {seed: 1}
    for _ in range(depth):
        step: Dict[Symbol, int] = {}
        for a, c in counts.items():
            for b in sub.image(a).symbols:
                step[b] = step.get(b, 0) + c
        check_budget("expansion", sum(step.values()), max_chars)
        counts = step
    for _ in range(depth):
        cur = cur.translate(table)
    return cur


def tower_letter_texts(
    d: DirectiveSequence,
    k: int,
    depth: int,
    max_chars: int = MAX_TEXT_CHARS,
) -> Tuple[Dict[Symbol, str], TextCodec]:
    """Letter images of sigma_[k,depth) as strings over the level-k codec.

    Refused, before any text is built, when the letter images of some
    sigma_[k,j) with j <= depth hold more than max_chars characters in all.
    """
    codec = TextCodec.for_alphabet(d.level_alphabet(k))
    subs = [d.substitution_at(j) for j in range(k, depth)]
    for lengths in _letter_lengths(subs, codec.alphabet):
        check_budget("tower expansion", sum(lengths.values()), max_chars)
    return _tower_texts(subs, codec), codec


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
    """All distinct nonempty substrings of text with lengths in [min_len, max_len]."""
    return {w for w in _short_factors([text], max_len) if len(w) >= min_len}

