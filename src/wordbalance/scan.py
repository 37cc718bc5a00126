"""Fast windowed occurrence scans over long substitution expansions.

Words are flattened to one-character-per-letter strings so that occurrence
indicators and sliding-window counts can be vectorized with numpy prefix
sums. Every window of a scanned text is a genuine factor of the expanded
word, so scan extrema yield certified imbalance witnesses (lower bounds for
the ambient language's constants, upper bounds for any sample whose words
all occur in the text).

The scan texts themselves, clipped letter expansions of a directive tower,
are built here too (level_scan_texts): the depth search, the squaring
shortcut for deep periodic towers and the budgets they answer to.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .exactmat import binary_power, mat_mul
from .language import (
    DirectiveSequence,
    _compose,
    _image_table,
    _tower_counts,
    _tower_lengths,
    _tower_texts,
)
from .limits import check_budget
from .words import Alphabet, Symbol

MAX_TEXT_CHARS = 80_000_000
# A walk through every level copies each level's texts once, so it costs
# little on a tower that grows exponentially and reaches its scan depth in a
# few dozen levels. Scan lengths and texts this many levels below the prefix
# come from powers of the composed period instead (see _squared).
_SQUARING_LEVELS = 256
# Each power of the incidence matrix costs |A|^3 integer products. On a
# linear tower scanned 3444 levels deep (Python 3.11, one Xeon core), the
# powers took 10, 40, 111 and 678 ms at 8, 16, 24 and 48 letters, and the
# walk 37, 68, 100 and 179 ms.
_SQUARING_LETTERS = 16
# Scan texts are read as latin-1 bytes, so every letter code stays below 256.
_MAX_SCAN_LETTERS = 200
# The deepest level a scan text is built from.
_MAX_SCAN_DEPTH = 32768
# The start bounds read the finest level whose blocks all have at least this
# many letters. On the two 480,016-letter texts of `analyze --max-length
# 20000`, floors of 256, 1024 and 4096 took 8-15, 1.4-1.6 and 0.6-0.8 ms for
# the texts and bounds, and left 0.42M/0.18M, 0.58M/0.35M and 1.13M/1.03M
# window starts to scan.
_STOP_FLOOR = 1024
# The start bounds read levels at most this many below the scan depth.
_STOP_LEVELS = 256

# numpy is imported inside the functions that use it, so that commands which
# never scan a text (exact analyze, classify) do not pay for loading it.
if TYPE_CHECKING:
    import numpy as np


def _occurrence_indicator(text: str, pattern: str) -> np.ndarray:
    """indicator[i] is True iff text[i:i+len(pattern)] == pattern, for a
    nonempty pattern."""
    import numpy as np

    n = max(len(text) - len(pattern) + 1, 0)
    return _match_into(text, pattern, np.empty(n, dtype=bool), np.empty(n, dtype=bool))


def _match_into(text: str, pattern: str, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The occurrence indicator of a nonempty pattern, written into out's
    first len(text) - len(pattern) + 1 entries (scratch is as long and is
    overwritten); returns that view of out."""
    import numpy as np

    data = np.frombuffer(text.encode("latin-1"), dtype=np.uint8)
    codes = pattern.encode("latin-1")
    n = max(len(data) - len(codes) + 1, 0)
    match, other = out[:n], scratch[:n]
    np.equal(data[:n], codes[0], out=match)
    for j in range(1, len(codes)):
        np.equal(data[j : j + n], codes[j], out=other)
        match &= other
    return match


class ScanWitness(NamedTuple):
    """Equal-length window pair with extremal counts of one pattern."""

    pattern: str
    window_len: int
    imbalance: int
    high_window: str
    low_window: str


def _scanned_patterns(texts: Sequence[str], patterns: Sequence[str]) -> Iterator[str]:
    """The patterns in order, less each one-letter pattern whose count and
    an earlier one-letter pattern's add up to the length of every text.

    Those two letters make up every text, so each window count of the
    skipped letter is the window length minus the other letter's: its
    spread is the same, and it is never strictly better (a repeated letter
    has the same spread anyway). On binary texts this halves the letter
    scan.
    """
    # Per-text counts of the one-letter patterns yielded so far.
    letter_counts = set()
    for pattern in patterns:
        if len(pattern) == 1:
            counts = tuple(text.count(pattern) for text in texts)
            if tuple(len(t) - c for t, c in zip(texts, counts)) in letter_counts:
                continue
            letter_counts.add(counts)
        yield pattern


def _sorted_lens(window_lens: Iterable[int]) -> List[int]:
    lens = sorted(set(window_lens))
    if lens and lens[0] <= 0:
        raise ValueError("window length must be positive")
    return lens


# Window starts per chunk of window_imbalance_curve, raised to the longest
# window length so that the prefix entries a chunk carries over are never
# more than the new ones it sums. A chunk's prefix array spans its starts
# and the longest window past them, so the kernel holds
# O(chunk + longest window) entries whatever the texts' lengths.
_CHUNK_FLOOR = 2**16


def window_imbalance_curve(
    texts: Sequence[str],
    patterns: Sequence[str],
    window_lens: Iterable[int],
    stops: Optional[Mapping[int, Sequence[int]]] = None,
) -> Dict[int, ScanWitness]:
    """Largest count spread of any pattern, per window length, over all texts,
    with a witness window pair.

    Runs pattern by pattern, inside a pattern text by text, and inside a
    text chunk by chunk of window starts (see _chunk_prefixes): each chunk's
    occurrence prefix array serves every window length for the chunk's
    starts, and the running extremes per length are kept. A text without
    the pattern gets none: its counts are all zero. Lengths no text can fit
    are omitted from the result. Deterministic: texts and patterns are
    scanned in the given order, and the first achiever wins by pattern,
    then text, then start. The complement-letter skip of
    `_scanned_patterns` applies.

    stops[w], where given, holds one start bound per text, as
    level_scan_texts gives them: each window of length w from there on
    equals one at an earlier start, so only the starts below it are
    scanned, and no prefix entry past the last of them and its window is
    built, nor is the text searched for the pattern past them. A skipped
    window is never a strict improvement, so the witnesses are those of
    the full scan.

    Besides the texts it holds O(chunk + longest window) entries, chunk
    being max(_CHUNK_FLOOR, longest window), each array capped at the
    longest span of text read: a prefix array of chunk + longest window
    entries and a count buffer of chunk entries, each 2 bytes when every
    window length is below 2^16 and 4 bytes below 2^32, and the latin-1
    copy of the text slice being matched. `analyze --directive 'LMR|ML'
    --max-length 200000 --nmax 3` peaks at about 47.5 MB of RSS with its
    bytecode cached (Python 3.11), as it did before the start bounds; most
    of it is numpy and the texts.

    Each window length costs one pass over every text, so this kernel is for
    witnesses, or for a sparse length grid on long texts; `window_spreads`
    gives the same spreads without witnesses in fewer steps over a dense
    range of lengths.
    """
    import numpy as np

    lens = _sorted_lens(window_lens)
    # A window's count is at most its length, so prefix sums kept modulo
    # 2^16 (or 2^32) still give every window count exactly, with a quarter
    # (or half) of the memory traffic of int64.
    top = lens[-1] if lens else 0
    dtype = np.uint16 if top < 2**16 else np.uint32 if top < 2**32 else np.uint64
    # The starts scanned per text and length, and the letters they read.
    stops = stops or {}
    starts = [
        {w: min(len(text) - w + 1, stops[w][ti] if w in stops else len(text)) for w in lens}
        for ti, text in enumerate(texts)
    ]
    reach = [max((n + w - 1 for w, n in ns.items() if n > 0), default=0) for ns in starts]
    longest = max(reach, default=0)
    chunk = max(_CHUNK_FLOOR, top)
    # A chunk reads prefix entries up to chunk - 1 + the longest span past
    # its first start; one prefix array and one count buffer serve every
    # (pattern, text). A chunk's indicator, at most chunk + top - 1 (or
    # longest) entries, fits in the count buffer's 2 or more bytes per entry
    # since chunk >= top.
    size = min(chunk + top, longest + 1)
    prefix = np.empty(size, dtype=dtype)
    buf = np.empty(min(chunk, longest), dtype=dtype)
    best: Dict[int, ScanWitness] = {}
    for pattern in _scanned_patterns(texts, patterns):
        m = len(pattern)
        # Where the windows a text's scan reads hold no occurrence, they all
        # count 0, as they would if the text held none.
        present = [text.find(pattern, 0, r) >= 0 for text, r in zip(texts, reach)]
        # A pattern that occurs nowhere has spread 0 at every length, which
        # never beats a witness already found (after the first pattern, every
        # length some text fits has one).
        if best and not any(present):
            continue
        # The extremes per length over the texts and chunks so far, as
        # (count, text, start). Texts and chunks arrive in order and only a
        # strict improvement replaces one, so the first achiever wins.
        hi: Dict[int, Tuple[int, int, int]] = {}
        lo: Dict[int, Tuple[int, int, int]] = {}
        for ti, text in enumerate(texts):
            fit = [w for w in lens if starts[ti][w] > 0]
            # Windows shorter than the pattern, and every scanned window of a
            # text without it, count 0: the first start holds both extremes.
            short = bisect.bisect_left(fit, m) if m and present[ti] else len(fit)
            for window_len in fit[:short]:
                hi.setdefault(window_len, (0, ti, 0))
                if window_len not in lo or lo[window_len][0] > 0:
                    lo[window_len] = (0, ti, 0)
            counted = [(w, starts[ti][w]) for w in fit[short:]]
            if not counted:
                continue
            stop = max(n for _, n in counted)
            read = max(n + w - 1 for w, n in counted)
            for c0, cum in _chunk_prefixes(text, read, pattern, chunk, stop, prefix, buf):
                for window_len, n in counted:
                    here = min(n - c0, chunk)
                    if here <= 0:
                        continue
                    (mx, am), (mn, an) = _window_extremes(cum, window_len - m + 1, here, buf)
                    if window_len not in hi or mx > hi[window_len][0]:
                        hi[window_len] = (mx, ti, c0 + am)
                    if window_len not in lo or mn < lo[window_len][0]:
                        lo[window_len] = (mn, ti, c0 + an)
        for window_len, (mx, th, ah) in hi.items():
            mn, tl, al = lo[window_len]
            # Patterns arrive in order, so a strict improvement keeps the
            # first pattern achieving the largest spread.
            if window_len not in best or mx - mn > best[window_len].imbalance:
                best[window_len] = ScanWitness(
                    pattern=pattern,
                    window_len=window_len,
                    imbalance=mx - mn,
                    high_window=texts[th][ah : ah + window_len],
                    low_window=texts[tl][al : al + window_len],
                )
    return {m: best[m] for m in lens if m in best}


def _window_extremes(
    cum: np.ndarray, span: int, starts: int, buf: np.ndarray
) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """(largest, k) and (smallest, k) over the window counts
    cum[k + span] - cum[k] for k < starts, each k the first achiever; the
    counts are written into buf."""
    import numpy as np

    counts = np.subtract(cum[span : span + starts], cum[:starts], out=buf[:starts])
    # argmax/argmin return the first achiever, so reading the extremes
    # through them keeps the smallest-start rule.
    am, an = int(counts.argmax()), int(counts.argmin())
    return (int(counts[am]), am), (int(counts[an]), an)


def _chunk_prefixes(
    text: str,
    read: int,
    pattern: str,
    chunk: int,
    stop: int,
    prefix: np.ndarray,
    buf: np.ndarray,
) -> Iterator[Tuple[int, np.ndarray]]:
    """(c0, cum) for the chunk starts c0 = 0, chunk, 2 chunk, ... below stop:
    cum[k] is the number of occurrences of pattern in text[:read] that start
    before c0 + k, modulo the range of prefix's dtype, for k up to
    min(len(prefix) - 1, n - c0), n = read - len(pattern) + 1.

    cum is a view of prefix, overwritten by the next chunk's. Each chunk
    matches only the text its predecessor did not: the entries from chunk
    on are carried to the front, and the indicator past them is summed on
    from the last carried count. The indicator is built in buf's bytes.
    """
    import numpy as np

    m = len(pattern)
    n = read - m + 1
    reach = len(prefix) - 1
    # The indicator's scratch takes prefix's last bytes: the carried and the
    # new entries number at most len(prefix), at 2 or more bytes each, so
    # one byte per new entry at the end stays clear of the carried ones.
    tail = prefix.view(bool)
    prefix[0] = 0
    known = 0
    for c0 in range(0, stop, chunk):
        if c0:
            known = end - chunk
            prefix[: known + 1] = prefix[chunk : end + 1]
        end = min(reach, n - c0)
        scratch = tail[len(tail) - (end - known) :]
        ind = _match_into(text[c0 + known : c0 + end + m - 1], pattern, buf.view(bool), scratch)
        cum = prefix[known : end + 1]
        cum[1:] = ind
        # Summed in place: a cumsum that casts from bool would first copy
        # the indicator to dtype.
        np.cumsum(cum, out=cum)
        yield c0, prefix[: end + 1]


def window_spreads(
    texts: Sequence[str],
    patterns: Sequence[str],
    window_lens: Iterable[int],
    stops: Optional[Mapping[int, Sequence[int]]] = None,
) -> Dict[int, int]:
    """The spreads of window_imbalance_curve, {length: imbalance}, without
    witnesses, read from occurrence-span tables.

    With start bounds from level_scan_texts, each text is read only up to
    its bound for the longest length W plus W - 1 letters. A text's bound
    never falls as the length grows (see _start_stops), so that bound
    covers every shorter length too.

    For a pattern of length m with occurrence starts pos[0] < pos[1] < ...
    in a text of length t, every window count is the number of starts in
    an interval of w - m + 1 consecutive positions of [0, t - m]:

    - largest count at w = #{k >= 1 : g(k) <= w}, with
      g(k) = min_j(pos[j+k-1] - pos[j]) + m. Some window holds k occurrences
      iff it covers the span of k consecutive ones, and g is increasing.
    - smallest count at w = #{k >= 0 : H(k) < w}, with
      H(k) = max_j(e[j+k+1] - e[j]) + m - 2 over the starts e framed by the
      sentinels -1 and t - m + 1. Some window holds at most k occurrences
      iff its interval fits strictly between e[j] and e[j+k+1], and H is
      increasing.

    Each numpy step builds _SPAN_BLOCK consecutive entries of a table from
    one strided view of the occurrence array, and a table stops with the
    block in which its value passes min(largest length, t): about
    (f(W) + minc(W)) / _SPAN_BLOCK + 2 steps per (pattern, text), where
    f(W) and minc(W) are the largest and smallest counts at the longest
    length W. Rows of a block whose k leaves fewer valid j read padding:
    the dtype's maximum past the last start (a span longer than any length
    asked for) and the end sentinel past e's end (a stretch no longer than
    the row's last valid one), so neither changes a kept entry. The arrays
    are int16 when t + W < 2^15 - 1, else int32. So this kernel is for a
    dense range of lengths with values only; `window_imbalance_curve`
    serves witnesses and sparse grids on long texts, where one pass per
    length is fewer steps.
    """
    import numpy as np

    lens = _sorted_lens(window_lens)
    longest = max(map(len, texts), default=0)
    ws = np.array([w for w in lens if w <= longest], dtype=np.int64)
    if not len(ws) or not patterns:
        return {}
    top = int(ws[-1])
    bounds = (stops or {}).get(top)
    if bounds is not None:
        texts = [text[: b + top - 1] if b else "" for text, b in zip(texts, bounds)]
    best = np.zeros(len(ws), dtype=np.int64)
    for pattern in _scanned_patterns(texts, patterns):
        # A pattern that occurs nowhere has spread 0 at every length.
        if not any(pattern in text for text in texts):
            continue
        hi = np.full(len(ws), -1, dtype=np.int64)
        lo = np.full(len(ws), longest + 1, dtype=np.int64)
        # The text holding a length's first window reads that window, so
        # hi and lo are set.
        for text in texts:
            fit = int(np.searchsorted(ws, len(text), side="right"))
            if not fit:
                continue
            most, least = _count_extremes(text, pattern, ws[:fit])
            np.maximum(hi[:fit], most, out=hi[:fit])
            np.minimum(lo[:fit], least, out=lo[:fit])
        np.maximum(best, hi - lo, out=best)
    return dict(zip(ws.tolist(), best.tolist()))


# Table entries per numpy step in _count_extremes.
_SPAN_BLOCK = 32


def _count_extremes(text: str, pattern: str, ws: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Largest and smallest count of pattern over the windows of each length
    in ws (sorted, nonempty, each at most len(text)); see window_spreads."""
    import numpy as np

    t, m = len(text), len(pattern)
    cap = int(ws[-1])
    starts = np.flatnonzero(_occurrence_indicator(text, pattern)) if pattern in text else ()
    n = len(starts)
    # Every start and difference is at most t + 1, and the padding of pos
    # must exceed t + cap. Texts are shorter than 2^31 (MAX_TEXT_CHARS).
    dtype = np.int16 if t + cap < 2**15 - 1 else np.int32
    # The starts framed by the sentinels -1 and t - m + 1, each array padded
    # by one block so that every block's strided view stays inside it.
    e = np.empty(n + 2 + _SPAN_BLOCK, dtype=dtype)
    e[0], e[1 : n + 1], e[n + 1 :] = -1, starts, t - m + 1
    pos = np.empty(n + _SPAN_BLOCK, dtype=dtype)
    pos[:n], pos[n:] = starts, np.iinfo(dtype).max
    buf = np.empty((_SPAN_BLOCK, n + 1), dtype=dtype)
    # Past the last start pos reads the dtype's maximum, a difference above
    # cap - m, so g's entries up to cap are exact. Past the end sentinel e
    # reads the sentinel again, a difference no larger than the last valid
    # one of its row, so H's maxima are exact.
    g = _span_table(pos, 0, n, np.minimum.reduce, cap - m, "right", buf) + m
    h = _span_table(e, 1, n + 1, np.maximum.reduce, cap - m + 2, "left", buf) + m - 2
    return np.searchsorted(g, ws, side="right"), np.searchsorted(h, ws, side="left")


def _span_table(a, shift, count, reduce, stop, side, buf) -> np.ndarray:
    """reduce over j < count - k of a[j + shift + k] - a[j], for k = 0, 1, ...
    while the (increasing) entries stay on the kept side of stop, as int64.

    Each step takes _SPAN_BLOCK values of k at once from a (block, width)
    strided view of a, and searchsorted cuts the block at stop. a must
    extend _SPAN_BLOCK - 1 entries past shift + count - 1, padded so that
    the out-of-range entries of a row leave its kept values unchanged. The
    views come from the ndarray constructor, which checks them against a's
    buffer at about a third of as_strided's cost.
    """
    import numpy as np

    table = []
    for k0 in range(0, count, _SPAN_BLOCK):
        rows, width = min(_SPAN_BLOCK, count - k0), count - k0
        offset = (shift + k0) * a.itemsize
        view = np.ndarray((rows, width), a.dtype, buffer=a, offset=offset, strides=a.strides * 2)
        values = reduce(np.subtract(view, a[:width], out=buf[:rows, :width]), axis=1)
        cut = int(np.searchsorted(values, stop, side=side))
        table.append(values[:cut])
        if cut < rows:
            break
    return np.concatenate(table or [a[:0]]).astype(np.int64)


def level_scan_texts(
    d: DirectiveSequence, min_chars: int, clip: int, window_lens: Iterable[int] = ()
) -> Tuple[List[str], Alphabet, Dict[int, List[int]]]:
    """Clipped level-0 letter expansions, in letter codes, their alphabet and
    their start bounds for each of window_lens.

    Every factor of an expansion of a letter through the directive tower is
    a level-0 language member by definition, so any equal-length window
    pair drawn from these texts certifies an imbalance lower bound. Depth
    grows geometrically (x1.5, not x2: doubling the depth can square the
    text length) until the longest letter text reaches min_chars or the
    depth reaches _MAX_SCAN_DEPTH; each text is clipped to `clip`. The
    depth is chosen from the text lengths alone, and then each text is
    built once, and only its first clip characters. Where _squared holds,
    the lengths and texts come from powers of the composed period instead
    of a walk. The lengths walk, and a text walk to _MAX_SCAN_DEPTH, stop
    at a repeated level (see _levels_at).

    The bounds map each window length w to one start per text: every
    window of length w that starts at or past it equals a window at an
    earlier start of that text or of an earlier text (see _start_stops).
    The kernels scan only the starts below them and find the same extremes
    and first achievers.
    """
    if min_chars < 1 or clip < 1:
        raise ValueError("min_chars and clip must be positive")
    alphabet = d.level_alphabet(0)
    check_budget("text codec", len(alphabet), _MAX_SCAN_LETTERS, "symbols")
    depth, squared, walked = _scan_depth(d, alphabet, min_chars, clip)
    if squared:
        texts = _periodic_tower_texts(d, depth, clip)
    else:
        levels = _tower_texts(map(d.substitution_at, range(depth)), alphabet, clip)
        # A walk that stops below the cap reached min_chars on a growing
        # tower, where the earlier level a cycle search holds is long.
        period = d.period_length if depth >= _MAX_SCAN_DEPTH else 0
        texts = next(_levels_at(levels, [depth], d.prefix_length, period))
    kept = {c: t for c, t in texts.items() if t}
    return list(kept.values()), alphabet, _start_stops(d, depth, walked, kept, clip, window_lens)


def _start_stops(
    d: DirectiveSequence,
    depth: int,
    walked: Sequence[Tuple[int, Dict[Symbol, int]]],
    texts: Dict[int, str],
    clip: int,
    window_lens: Iterable[int],
) -> Dict[int, List[int]]:
    """Per window length, the start past which each text's windows repeat.

    At a level j below the depth, the text of the level-depth letter c is
    A(B(c)) cut to clip, A = sigma_[0,j) and B(c) = sigma_[j,depth)(c): a
    string of level-j blocks A(b). For a length w, block i's span runs to
    the first block e >= i such that blocks i+1..e hold at least w - 1
    letters, or to the last block, which may be clipped. Every window of
    length w that starts in block i lies in its span, so block i starts
    only windows seen before when its span occurs as whole blocks at an
    earlier start of this text or in an earlier text. The bound is the end
    of the last other block, capped at the text's length, or 0. Spans only
    grow with w, so no bound falls as w grows.

    j is the finest walked level whose blocks all have at least
    _STOP_FLOOR letters. With none (a letter erased or never growing, the
    squaring shortcut, a walk stopped at a repeated level, no such level
    within _STOP_LEVELS of the depth) every bound is the text's length.
    The level words are translated down from the depth, each cut to the
    blocks that reach clip, so no level text is built.
    """
    lens = set(window_lens)
    full = [len(t) for t in texts.values()]
    coarse = [j for j, n in walked if j < depth and min(n.values(), default=0) >= _STOP_FLOOR]
    if not (lens and coarse and walked[-1][0] == depth):
        return {w: full for w in lens}
    lengths_at = dict(walked)
    words = {c: chr(c) for c in texts}
    for j in range(depth - 1, coarse[0] - 1, -1):
        table = _image_table(d.substitution_at(j))
        lengths = list(lengths_at[j].values())
        words = {c: _reaching(w.translate(table), lengths, clip) for c, w in words.items()}
    return _block_stops(list(words.values()), lengths, full, lens)


def _reaching(word: str, lengths: Sequence[int], clip: int) -> str:
    """The shortest prefix of a level word whose blocks, of lengths[code]
    letters each, reach clip letters; the whole word when none does."""
    ends = itertools.accumulate(lengths[ord(c)] for c in word)
    return word[: next((i + 1 for i, end in enumerate(ends) if end >= clip), len(word))]


def _block_stops(
    words: List[str], lengths: Sequence[int], full: List[int], lens: Iterable[int]
) -> Dict[int, List[int]]:
    """The bounds of _start_stops from the level words of texts of lengths
    full; see there. Block i is new for w when w exceeds its cap: one more
    than the letters after block i in its longest old span, unbounded when
    that span reaches the last block, and 0 when block i alone is new. A
    span that occurs earlier still does without its first block, so the
    longest old span's end never moves back as i grows: one pass finds
    every cap."""
    earlier = ""  # the whole blocks of the texts so far
    steps = []  # per text, its caps' suffix minima, and 0 and its block ends
    for word, t in zip(words, full):
        ends = list(itertools.accumulate(lengths[ord(b)] for b in word))
        n, caps, o = len(word), [], 0
        for i in range(n):
            # word[i:o] is old; extend it while it stays old.
            o = max(o, i)
            while o < n and (word[i : o + 1] in earlier or word.find(word[i : o + 1]) < i):
                o += 1
            caps.append(math.inf if o == n else ends[o - 1] - ends[i] + 1 if o > i else 0)
        least = list(itertools.accumulate(reversed(caps), min))[::-1]
        steps.append((least, [0] + [min(end, t) for end in ends]))
        # Every block but the last ends before the clip; chr(len(lengths))
        # is no level letter, so no span runs across two texts.
        earlier += (word if ends[-1] <= t else word[:-1]) + chr(len(lengths))
    # Lengths between the same two caps share one list of bounds.
    cuts = sorted({cap for least, _ in steps for cap in least})
    rows: Dict[int, List[int]] = {}
    stops = {}
    for w in lens:
        k = bisect.bisect_left(cuts, w)
        if k not in rows:
            rows[k] = [bounds[bisect.bisect_left(least, w)] for least, bounds in steps]
        stops[w] = rows[k]
    return stops


def _squared(d: DirectiveSequence, clip: int, depth: int) -> bool:
    """Do the scan lengths and texts at `depth` skip the level walk?

    Yes at least _SQUARING_LEVELS levels, and one period, below the prefix
    of an eventually periodic, non-erasing directive whose level alphabets
    A all have at most _SQUARING_LETTERS letters and (3*|A| + 3) * clip <=
    MAX_TEXT_CHARS. A level of the walk then keeps at most |A| * clip
    characters, so its scan-expansion check could never refuse, and the
    squaring, which holds three letter maps and builds at most 3*clip more
    characters at a time, stays in the budget.
    """
    p, q = d.prefix_length, d.period_length
    if d.period is None or depth - p < max(q, _SQUARING_LEVELS):
        return False
    if not all(s.is_non_erasing() for s in d.prefix + d.period):
        return False
    widest = max(len(d.level_alphabet(j)) for j in range(p + q))
    return widest <= _SQUARING_LETTERS and (3 * widest + 3) * clip <= MAX_TEXT_CHARS


def _scan_depth(
    d: DirectiveSequence, alphabet: Alphabet, min_chars: int, clip: int
) -> Tuple[int, bool, Sequence[Tuple[int, Dict[Symbol, int]]]]:
    """The depth level_scan_texts builds, from letter-text lengths only,
    whether _squared holds there, and the last _STOP_LEVELS + 1 levels the
    lengths walk read, as (level, lengths). A finite directive's depth
    starts at min(8, its last level) and never passes that level.

    Refused when some level up to that depth would keep more than
    MAX_TEXT_CHARS characters, counting each letter text up to clip. Where
    _squared holds, no level can, and the lengths come from powers of the
    composed period's incidence matrix instead of the walk.
    """
    top = d.max_defined_level()
    if top is None:
        depth, max_depth = max(8, d.prefix_length + max(1, d.period_length)), _MAX_SCAN_DEPTH
    else:
        depth, max_depth = min(8, top), min(_MAX_SCAN_DEPTH, top)
    probes = [depth]
    while probes[-1] < max_depth:
        probes.append(min(max_depth, probes[-1] + max(1, probes[-1] // 2)))
    walked: collections.deque = collections.deque(maxlen=_STOP_LEVELS + 1)
    read = (walked.append(level) or level[1] for level in enumerate(_checked_lengths(d, alphabet, clip)))
    # _squared holds from some probe on, so the walk serves a prefix of them.
    walk = _levels_at(read, probes, d.prefix_length, d.period_length)
    for depth in probes:
        squared = _squared(d, clip, depth)
        lengths = _periodic_tower_lengths(d, depth) if squared else next(walk)
        if max(lengths.values()) >= min_chars or depth >= max_depth:
            return depth, squared, walked


def _levels_at(levels: Iterable, depths: Iterable[int], p: int, q: int) -> Iterator:
    """The levels of a tower walk at each of the nondecreasing depths.

    From level p on, a level and its residue mod the period q fix the next
    one, so once a level equals one a multiple of q levels earlier, the
    walk repeats with that gap, and it goes on only to the level at a
    depth's offset into the cycle. Brent's search finds the first repeat,
    holding the level at p + 2^i - 1 until p + 2^(i+1) - 1. q = 0 searches
    nothing.
    """
    walk = iter(levels)
    j, level = 0, next(walk)
    seen_j, seen, cycle = 0, None, 0
    for depth in depths:
        while j < depth and (not cycle or (depth - j) % cycle):
            j, level = j + 1, next(walk)
            if cycle or not q or j < p:
                continue
            if (j - seen_j) % q == 0 and level == seen:
                cycle = j - seen_j
            elif (j - p + 1) & (j - p) == 0:
                seen_j, seen = j, level
        yield level


def _checked_lengths(
    d: DirectiveSequence, alphabet: Alphabet, clip: int
) -> Iterable[Dict[Symbol, int]]:
    """The lengths walk through every level of d, each level refused when
    it would keep more than MAX_TEXT_CHARS characters, counting each letter
    text up to clip."""
    for lengths in _tower_lengths(map(d.substitution_at, itertools.count()), alphabet):
        kept = sum(min(n, clip) for n in lengths.values())
        check_budget("scan expansion", kept, MAX_TEXT_CHARS)
        yield lengths


def _periodic_tower_lengths(d: DirectiveSequence, depth: int) -> Dict[Symbol, int]:
    """The level-`depth` letter lengths of _tower_lengths, for depth >= p.

    With depth = p + r + k*q and 0 <= r < q, sigma_[0,depth) is
    sigma_[0,p+r) . tau^k, where tau = sigma_[p+r,p+r+q) is the period
    read from level p+r. The level-(p+r) lengths are the column sums of
    sigma_[0,p+r)'s incidence matrix, and the lengths k periods deeper come
    from the k-th power of tau's, in integers: with Fraction entries the
    powers took 15 to 30 times longer.
    """
    p, q = d.prefix_length, d.period_length
    k, r = divmod(depth - p, q)
    lengths = [list(map(sum, zip(*_tower_counts(d, 0, p + r))))]
    if k:
        tau = _tower_counts(d, p + r, p + r + q)
        lengths = mat_mul(lengths, binary_power(tau, k, mat_mul))
    return dict(zip(d.level_alphabet(p + r).symbols, lengths[0]))


def _periodic_tower_texts(d: DirectiveSequence, depth: int, clip: int) -> Dict[int, str]:
    """The level-`depth` texts of _tower_texts(levels 0..depth-1, clip),
    for depth >= p + q and a non-erasing eventually periodic d.

    With depth = p + r + k*q and 0 <= r < q, sigma_[0,depth) is
    sigma_[0,p+r) . tau^k, where tau = sigma_[p+r,p+r+q). Level p+r comes
    from a walk, and tau^k by binary powering with the clipped composition,
    which is associative on non-erasing maps. At most three letter maps
    are held at once, and each composition builds at most clip characters
    per letter.
    """
    p, q = d.prefix_length, d.period_length
    k, r = divmod(depth - p, q)
    compose = functools.partial(_compose, clip=clip)
    walk = _tower_texts(map(d.substitution_at, range(p + r)), d.level_alphabet(0), clip)
    top = next(_levels_at(walk, [p + r], p, 0))
    period = map(d.substitution_at, range(p + r, p + r + q))
    tau = functools.reduce(compose, map(_image_table, period))
    return compose(top, binary_power(tau, k, compose))
