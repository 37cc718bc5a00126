"""Builtin binary substitution family {L, M, R} and its directive sequences.

M is the Thue-Morse doubling substitution (0 -> 01, 1 -> 10); L and R are
its one-sided Sturmian-type companions (0 -> 0 / 1 -> 10 and 0 -> 01 /
1 -> 1). Directives over this family admit an exact balance classification:
the generated language fails to be balanced for length two exactly when the
directive tail is eventually all-M, and this module constructs the
equal-length witness pairs whose length-2 block counts drift apart linearly.

expand_text is the one M kernel: it builds every Thue-Morse text here,
the prefixes the witness words are sliced from, the certificate prefix,
the milestone scan and the factor spans.
Two helpers here serve only verify: imbalance_milestones (at the three
witness indices verify reads) and factor_spans. They stay because they call
expand_text and window_imbalance_curve through this module's namespace,
where the benchmark tracer hooks them. The reference constructions that one
verify check each calls live in verification.py, next to their checks.
"""

from __future__ import annotations

import functools
import os
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Tuple

from .language import SUB_L, SUB_M, SUB_R, DirectiveSequence, builtin_registry
from .limits import check_budget, refuse_huge
from .scan import MAX_TEXT_CHARS, ScanWitness, window_imbalance_curve
from .substitution import Substitution, compose
from .words import Alphabet

if TYPE_CHECKING:
    import numpy as np

BINARY = Alphabet.from_text("01")

_FLIP_BYTES = bytes.maketrans(b"01", b"10")
_BLOCK_PATTERNS = ("00", "01", "10", "11")

MAX_WITNESS_CHARS = 45_000_000
_FACTOR_MAX_DEPTH = 26


def builtin(name: str) -> Substitution:
    """The registered substitution for one of the names L, M, R."""
    try:
        return builtin_registry()[name]
    except KeyError:
        raise ValueError(f"unknown substitution name: {name!r}") from None


def composition(names: str) -> Substitution:
    """The named builtins composed in directive order, rightmost applied
    first; the identity on {0, 1} for no names."""
    return functools.reduce(compose, map(builtin, names), Substitution.identity(BINARY))


def is_lmr_directive(d: DirectiveSequence) -> bool:
    family = (SUB_L, SUB_M, SUB_R)
    pool = list(d.prefix) + list(d.period or ())
    return all(s in family for s in pool)


class Classification(NamedTuple):
    verdict: str
    reason: str
    primitive: bool
    tail_all_doubling: bool


def classify(d: DirectiveSequence) -> Classification:
    """Balance classification of an eventually periodic {L,M,R} directive.

    The language is factor-balanced unless the tail consists only of the
    doubling substitution M, in which case balancedness already fails for
    factors of length two. The system is primitive unless the tail is all
    L or all R: only those two constant one-sided tails fail it.
    """
    if not is_lmr_directive(d):
        raise ValueError("classification is defined for {L,M,R} directives only")
    if d.period is None:
        raise ValueError("classification needs an eventually periodic directive")
    all_m = all(s == SUB_M for s in d.period)
    primitive = not (all(s == SUB_L for s in d.period) or all(s == SUB_R for s in d.period))
    if all_m:
        return Classification(
            verdict="NotFactorBalanced",
            reason=(
                "the directive tail applies only the doubling substitution M, and "
                "equal-length words with linearly drifting length-2 block counts exist"
            ),
            primitive=primitive,
            tail_all_doubling=True,
        )
    return Classification(
        verdict="FactorBalanced",
        reason="a non-doubling substitution occurs infinitely often in the tail",
        primitive=primitive,
        tail_all_doubling=False,
    )


def _thue_morse_depth(min_chars: int) -> int:
    """Smallest d >= 1 with 2^d >= min_chars."""
    return max(1, (min_chars - 1).bit_length())


def expand_text(word: str, depth: int, max_chars: int = MAX_TEXT_CHARS) -> str:
    """M^depth(word) for a word over 0 and 1.

    M(w) interleaves w with its complement: letter i of w becomes letters
    2i and 2i + 1 of M(w), the second one flipped. Refused, before any text
    is built, when a step would pass max_chars; the message names the first.
    """
    if word.strip("01"):
        raise ValueError("expand_text needs a word over 0 and 1")
    if word and depth > 0:
        first_over = max(1, (max_chars // len(word)).bit_length())
        check_budget("expansion", len(word) << min(depth, first_over), max_chars)
    text = word.encode("ascii")
    for _ in range(depth):
        out = bytearray(2 * len(text))
        out[0::2], out[1::2] = text, text.translate(_FLIP_BYTES)
        text = out
    return text.decode("ascii")


def block_abelianization(word: str) -> Tuple[int, int, int, int]:
    """Counts of the four length-2 blocks (00, 01, 10, 11) of a binary word.

    01 and 10 cannot overlap themselves, so str.count finds them all; every
    other block is read off the letters that start a block: a 0 starts
    either 00 or 01, a 1 either 10 or 11.
    """
    if word.count("0") + word.count("1") != len(word):
        raise ValueError("block counts need a word over 0 and 1")
    starts = max(len(word) - 1, 0)
    zeros = word.count("0", 0, starts)
    n01, n10 = word.count("01"), word.count("10")
    return (zeros - n01, n01, n10, starts - zeros - n10)


def _witness_length(index: int) -> int:
    """Length (4^index + 2) / 3 of both words of the index witness pair."""
    if index < 1:
        raise ValueError("witness index must be >= 1")
    return (4**index + 2) // 3


def witness_strings(index: int) -> Tuple[str, str]:
    """The equal-length witness pair (w_k, w'_k) for k the index, sliced
    from the first 2 L_k - 1 letters of the Thue-Morse word (see
    _witness_words), L_k = (4^k + 2) / 3.

    w_1 = 00 and w'_1 = 01, and verify checks the M^2 recursion: M^2(w_k)
    is 0.w_(k+1).0 at odd k and 1.w_(k+1).1 at even k, and M^2(w'_k) is
    w'_(k+1) followed by 01 (odd) or 10 (even). L_k is checked against
    MAX_WITNESS_CHARS before any text is built, and a huge one from its bit
    length, 2 * index - 1 for index >= 2, before 4^index is built.
    """
    refuse_huge("witness pair", 2 * index - 1, MAX_WITNESS_CHARS)
    check_budget("witness pair", _witness_length(index), MAX_WITNESS_CHARS)
    n = 2 * _witness_length(index) - 1
    # M^s maps the first m letters of the Thue-Morse word to its first
    # m * 2^s: s expansions of its first ceil(n / 2^s) <= 2^11 letters
    # give n letters and fewer than n / 2^10 more.
    s = max(0, (n - 1).bit_length() - 11)
    return _witness_words(expand_text(expand_text("0", 11)[: -(-n >> s)], s), index)


def _witness_words(text: str, index: int) -> Tuple[str, str]:
    """(w_k, w'_k) for k the index, from a prefix of the Thue-Morse word t
    of at least 2 L_k - 1 letters: w'_k = t[0, L_k), and w_k is
    t[q_k, q_k + L_k) with 0 and 1 swapped, q_k = L_k - 1 = (4^k - 1) / 3.
    As t(4^k + j) = 1 - t(j) for j < 4^k, w_k is also the unswapped slice
    of t at p_k = 4^k + q_k = (4^(k+1) - 1) / 3: both are Thue-Morse factors.
    """
    length = _witness_length(index)
    flipped = text[length - 1 : 2 * length - 1].encode("ascii").translate(_FLIP_BYTES)
    return flipped.decode("ascii"), text[:length]


class WitnessPair(NamedTuple):
    """Certified equal-length Thue-Morse pair with drifting block counts."""

    index: int
    word: str
    word_prime: str
    length: int
    block_counts: Tuple[int, int, int, int]
    block_counts_prime: Tuple[int, int, int, int]
    certificate_depth: int
    position: int
    position_prime: int

    @property
    def block_difference(self) -> Tuple[int, int, int, int]:
        return tuple(
            a - b for a, b in zip(self.block_counts, self.block_counts_prime)
        )


def witness_pair(index: int) -> WitnessPair:
    """Witness pair with membership certificates in a doubling expansion.

    The certificate is the first position of each word in the 2^d prefix
    of the Thue-Morse fixed point, for the d that the closed-form word
    length fixes, so an oversized request is refused before either word is
    built. Both words and positions are read from the 2^(2k + 1)-letter
    prefix, for k the index, an eighth of the 2^d one: w'_k starts at 0,
    and w_k at p_k = (4^(k+1) - 1) / 3, ending by (5 * 4^k + 1) / 3 (see
    _witness_words). Prefixes nest, so a first occurrence in that prefix
    is also the first in the 2^d one, where any earlier start would end
    inside the shorter prefix too.
    """
    # 24 * (4^index + 2) / 3 + 16 = 2^(2 * index + 3) + 32, so depth is
    # 2 * index + 4 and 2^depth has one bit more: a huge 2^depth is refused
    # from that bit length before it or 4^index is built.
    refuse_huge("certification text", 2 * index + 5, MAX_WITNESS_CHARS)
    min_chars = 24 * _witness_length(index) + 16
    depth = _thue_morse_depth(min_chars)
    check_budget("certification text", 1 << depth, MAX_WITNESS_CHARS)
    text = expand_text("0", 2 * index + 1, MAX_WITNESS_CHARS)
    w, wp = _witness_words(text, index)
    pos, posp = text.find(w), text.find(wp)
    return WitnessPair(
        index=index,
        word=w,
        word_prime=wp,
        length=len(w),
        block_counts=block_abelianization(w),
        block_counts_prime=block_abelianization(wp),
        certificate_depth=depth,
        position=pos,
        position_prime=posp,
    )


# The integer eigenpairs of the 2-block incidence matrix of M: 2 is the
# dominant eigenvalue, and -1 the one whose eigenvector the witness pairs'
# block counts drift along without bound.
BLOCK_EIGENPAIRS: Tuple[Tuple[int, Tuple[int, int, int, int]], ...] = (
    (2, (1, 2, 2, 1)),
    (-1, (1, -1, -1, 1)),
    (0, (1, 0, 0, -1)),
    (1, (1, -1, 1, -1)),
)
_DRIFT_VEC = BLOCK_EIGENPAIRS[1][1]


def witness_growth_curve(n_max: int) -> List[Tuple[int, int]]:
    """Curve of (witness length, certified imbalance) for n = 1..n_max.

    At each n the index-2n witness pair is regenerated, its four length-2
    block counts are recounted directly, and the coordinate differences are
    asserted to equal n times the drift eigenvector; the emitted imbalance
    value n is therefore a recounted fact, not a formula. Lengths grow
    sixteenfold per step ((4^{2n}+2)/3); `witness --n k` asks for
    n_max = k // 2.
    """
    if n_max < 1:
        raise ValueError("growth curve needs n_max >= 1")
    curve = []
    for n in range(1, n_max + 1):
        w, wp = witness_strings(2 * n)
        diff = tuple(
            a - b
            for a, b in zip(block_abelianization(w), block_abelianization(wp))
        )
        if diff != tuple(n * d for d in _DRIFT_VEC):
            raise RuntimeError("witness block-count drift mismatch")
        curve.append((len(w), n))
    return curve


def imbalance_milestones() -> List[Tuple[int, ScanWitness]]:
    """Certified length-2 imbalance lower bounds at the witness lengths.

    For each index i in 1, 2, 3, scans all windows of length (4^{2i}+2)/3
    of a 2^16-character doubling expansion; every reported window pair
    consists of genuine Thue-Morse factors, so the spread is a true
    imbalance lower bound, and it is at least i by the witness construction.
    """
    indices = (1, 2, 3)
    lengths = [(4 ** (2 * i) + 2) // 3 for i in indices]
    depth = _thue_morse_depth(24 * max(lengths) + 16)
    text = expand_text("0", depth, MAX_WITNESS_CHARS)
    curve = window_imbalance_curve([text], _BLOCK_PATTERNS, lengths)
    return [(i, curve[length]) for i, length in zip(indices, lengths)]


@functools.lru_cache(maxsize=None)
def factor_spans(
    max_len: int, max_depth: int = _FACTOR_MAX_DEPTH
) -> Tuple["np.ndarray", "np.ndarray", str, int, bool]:
    """Distinct Thue-Morse factors up to max_len, as spans of a text, with a
    stability flag.

    Expands the doubling fixed point until the factor set stops changing
    between consecutive depths (expansions are prefixes of each other, so
    the sets grow monotonically). Returns (starts, lengths, text, depth,
    stable): factor i is text[starts[i] : starts[i] + lengths[i]], listed
    in sorted order of the factors (two read-only int64 arrays), and text
    is the expansion they were collected from.

    The factors are the prefixes of the distinct windows text[i : i +
    max_len] (cut short at the end of the text), and no factor is held as
    a string. In the sorted windows, a window's prefixes longer than its
    common prefix with the window before it are the factors not listed
    yet, and they come next in sorted order. Each factor's start is the
    first start of the first window, in sorted order, that begins with it:
    an occurrence, not always the first one. Any occurrence serves the
    counts read from a span.

    Memoised: every value returned is immutable, and verify asks twice.
    """
    depth = max(4, (16 * max_len).bit_length())
    text = expand_text("0", depth)
    width = max(max_len, 0)
    windows = _first_windows(text, width)
    stable = False
    while depth < max_depth:
        text = expand_text(text, 1)
        depth += 1
        bigger = _first_windows(text, width)
        # Every factor of a text lies in one of its full windows: a window
        # cut short at the end is a suffix of the last full one. So the
        # factor set is unchanged iff the full windows are.
        if all(w in windows for w in bigger if len(w) == width):
            stable = True
            break
        windows = bigger
    import numpy as np

    ordered = sorted(windows)
    common = [len(os.path.commonprefix(pair)) for pair in zip([""] + ordered, ordered)]
    new = np.array([len(w) for w in ordered], dtype=np.int64) - common
    starts = np.repeat(np.array([windows[w] for w in ordered], dtype=np.int64), new)
    # Window k lists the lengths common[k] + 1 .. len(w) from its run's first
    # index, first[k], on.
    first = np.cumsum(new) - new
    lengths = np.arange(len(starts), dtype=np.int64)
    lengths -= np.repeat(first - common - 1, new)
    starts.flags.writeable = lengths.flags.writeable = False
    return starts, lengths, text, depth, stable


def _first_windows(text: str, n: int) -> Dict[str, int]:
    """The distinct windows text[i : i + n], each with its first start."""
    # Later starts are written first, so the first start is the one kept.
    return {text[i : i + n]: i for i in range(len(text) - 1, -1, -1)}
