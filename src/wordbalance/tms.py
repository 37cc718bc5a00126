"""Builtin binary substitution family {L, M, R} and its directive sequences.

M is the Thue-Morse doubling substitution (0 -> 01, 1 -> 10); L and R are
its one-sided Sturmian-type companions (0 -> 0 / 1 -> 10 and 0 -> 01 /
1 -> 1). Directives over this family admit an exact balance classification:
the generated language fails to be balanced for length two exactly when the
directive tail is eventually all-M, and this module constructs the
equal-length witness pairs whose length-2 block counts drift apart linearly.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from .language import DirectiveSequence, _tower_lengths, _tower_texts
from .limits import ResourceLimitError, check_budget
from .scan import (
    MAX_TEXT_CHARS,
    ScanWitness,
    TextCodec,
    _occurrence_indicator,
    count_overlapping,
    distinct_factors,
    expand_text,
    window_imbalance_curve,
)
from .substitution import (
    BlockSubstitution,
    Substitution,
    compose,
    induced_block_substitution,
)
from .words import Alphabet, Word, n_coding, recast

if TYPE_CHECKING:
    import numpy as np

BINARY = Alphabet.from_text("01")

SUB_L = Substitution.from_text("0->0;1->10")
SUB_M = Substitution.from_text("0->01;1->10")
SUB_R = Substitution.from_text("0->01;1->1")

_M_STEP = {ord("0"): "01", ord("1"): "10"}
_FLIP = str.maketrans("01", "10")
_BLOCK_PATTERNS = ("00", "01", "10", "11")

MAX_WITNESS_CHARS = 45_000_000
_FACTOR_MAX_DEPTH = 26


def builtin_registry() -> Dict[str, Substitution]:
    return {"L": SUB_L, "M": SUB_M, "R": SUB_R}


def builtin(name: str) -> Substitution:
    """The registered substitution for one of the names L, M, R."""
    try:
        return builtin_registry()[name]
    except KeyError:
        raise ValueError(f"unknown substitution name: {name!r}") from None


def parse_directive(
    text: str, registry: Optional[Dict[str, Substitution]] = None
) -> DirectiveSequence:
    """Parse 'PREFIX|PERIOD' over single-letter substitution names.

    The period part repeats forever; an empty period gives a finite
    directive, an empty prefix a purely periodic one.
    """
    table = dict(builtin_registry())
    if registry:
        table.update(registry)
    if text.count("|") != 1:
        raise ValueError("directive must contain exactly one '|' separator")
    prefix_part, period_part = text.split("|")
    try:
        prefix = [table[name] for name in prefix_part]
        period = [table[name] for name in period_part] if period_part else None
    except KeyError as exc:
        raise ValueError(f"unknown substitution name: {exc.args[0]!r}") from None
    return DirectiveSequence(
        prefix, period, prefix_names=prefix_part, period_names=period_part or None
    )


def is_lmr_directive(d: DirectiveSequence) -> bool:
    family = (SUB_L, SUB_M, SUB_R)
    pool = list(d.prefix) + list(d.period or ())
    return all(s in family for s in pool)


@dataclass(frozen=True)
class Classification:
    verdict: str
    reason: str
    primitive: bool
    tail_all_doubling: bool

    @property
    def factor_balanced(self) -> bool:
        return self.verdict == "FactorBalanced"


def is_primitive(d: DirectiveSequence) -> bool:
    """True iff the periodic tail is neither all-L nor all-R.

    For {L,M,R} directives this is equivalent to primitivity of the
    generated system: only the two constant one-sided tails fail it.
    """
    if not is_lmr_directive(d):
        raise ValueError("primitivity test is defined for {L,M,R} directives only")
    if d.period is None:
        raise ValueError("primitivity test needs an eventually periodic directive")
    return not (
        all(s == SUB_L for s in d.period) or all(s == SUB_R for s in d.period)
    )


def classify(d: DirectiveSequence) -> Classification:
    """Balance classification of an eventually periodic {L,M,R} directive.

    The language is factor-balanced unless the tail consists only of the
    doubling substitution M, in which case balancedness already fails for
    factors of length two.
    """
    if not is_lmr_directive(d):
        raise ValueError("classification is defined for {L,M,R} directives only")
    if d.period is None:
        raise ValueError("classification needs an eventually periodic directive")
    all_m = all(s == SUB_M for s in d.period)
    primitive = is_primitive(d)
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


def shared_image_tail(prefix_names: str) -> Word:
    """Common tail w with sigma(01) = 01.w and sigma(10) = 10.w.

    Here sigma is the composition of the named one-sided substitutions
    (L or R only) in directive order, rightmost applied first. Such a
    common tail always exists: both builtins fix the leading block of 01
    and 10 and append the same suffix, and composition preserves that
    shape. Raises if the identity fails (it must never fire).
    """
    if any(name not in ("L", "R") for name in prefix_names):
        raise ValueError("shared-tail identity applies to L/R prefixes only")
    sigma = Substitution.identity(BINARY)
    for name in prefix_names:
        sigma = compose(sigma, builtin(name))
    im01 = sigma.apply(Word.from_text("01", BINARY))
    im10 = sigma.apply(Word.from_text("10", BINARY))
    tail01 = im01.sub(2, len(im01))
    tail10 = im10.sub(2, len(im10))
    if (
        im01.sub(0, 2) != Word.from_text("01", BINARY)
        or im10.sub(0, 2) != Word.from_text("10", BINARY)
        or tail01 != tail10
    ):
        raise RuntimeError("shared-tail identity violated")
    return tail01


def _thue_morse_depth(min_chars: int) -> int:
    """Smallest d >= 1 with 2^d >= min_chars."""
    return max(1, (min_chars - 1).bit_length())


def thue_morse_text(min_chars: int, max_chars: int = MAX_WITNESS_CHARS) -> str:
    """A prefix 2^d-expansion of the doubling fixed point with >= min_chars.

    The length 2^d is checked against max_chars before anything is built.
    Built by doubling: M^(k+1)(0) = M^k(0) . M^k(1), and M^k(1) is M^k(0)
    with 0 and 1 swapped, a one-to-one translate.
    """
    depth = _thue_morse_depth(min_chars)
    check_budget("Thue-Morse text", 1 << depth, max_chars)
    text = "0"
    for _ in range(depth):
        text += text.translate(_FLIP)
    return text


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


def _double_step(s: str) -> str:
    return s.translate(_M_STEP).translate(_M_STEP)


def _witness_length(index: int) -> int:
    """Length (4^index + 2) / 3 of both words of the index witness pair."""
    if index < 1:
        raise ValueError("witness index must be >= 1")
    return (4**index + 2) // 3


def witness_strings(index: int) -> Tuple[str, str]:
    """The equal-length witness pair (w, w') at the given recursion index.

    w_1 = 00 and w'_1 = 01; each step applies the doubling substitution
    twice and strips fixed borders: the double image of w equals 0.w_next.0
    at odd steps and 1.w_next.1 at even steps, while the double image of w'
    equals w'_next followed by 01 (odd) or 10 (even). Both words have
    length (4^index + 2) / 3 and lie in the Thue-Morse language.
    """
    expected_len = _witness_length(index)
    check_budget("witness pair", expected_len, MAX_WITNESS_CHARS)
    w, wp = "00", "01"
    for k in range(1, index):
        border = "0" if k % 2 == 1 else "1"
        img = _double_step(w)
        if not (img.startswith(border) and img.endswith(border)):
            raise RuntimeError("witness recursion border mismatch")
        w = img[1:-1]
        tail = "01" if k % 2 == 1 else "10"
        imgp = _double_step(wp)
        if not imgp.endswith(tail):
            raise RuntimeError("witness recursion tail mismatch")
        wp = imgp[:-2]
    if len(w) != expected_len or len(wp) != expected_len:
        raise RuntimeError("witness recursion length mismatch")
    return w, wp


@dataclass(frozen=True)
class WitnessPair:
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


def witness_pair(index: int, max_chars: int = MAX_WITNESS_CHARS) -> WitnessPair:
    """Witness pair with membership certificates in a doubling expansion.

    The certification text's length follows from the closed-form word
    length, so an oversized request is refused before either is built.
    """
    min_chars = 24 * _witness_length(index) + 16
    check_budget("certification text", 1 << _thue_morse_depth(min_chars), max_chars)
    w, wp = witness_strings(index)
    text = thue_morse_text(min_chars=min_chars, max_chars=max_chars)
    depth = len(text).bit_length() - 1
    pos, posp = text.find(w), text.find(wp)
    if pos < 0 or posp < 0:
        raise RuntimeError("witness word not found in the certification text")
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


_GROWTH_VEC = (1, 2, 2, 1)  # eigenvalue 2 (dominant)
_DRIFT_VEC = (1, -1, -1, 1)  # eigenvalue -1 (the unbounded drift direction)
_NULL_VEC = (1, 0, 0, -1)  # eigenvalue 0
_ALT_VEC = (1, -1, 1, -1)  # eigenvalue 1

BLOCK_EIGENPAIRS: Tuple[Tuple[int, Tuple[int, int, int, int]], ...] = (
    (2, _GROWTH_VEC),
    (-1, _DRIFT_VEC),
    (0, _NULL_VEC),
    (1, _ALT_VEC),
)


def witness_closed_forms(n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Exact block-count vectors of the index-2n witness pair, in closed form.

    Both are rational combinations of the block-incidence eigenvectors for
    eigenvalues 2, -1, 0 that happen to be integral: the dominant
    coefficient (4^{2n}-1)/18 and null coefficient -1/2 are shared, while
    the drift coefficient is 2n/3 for the first word and -n/3 for the
    second, so the pair's difference is n times the drift eigenvector.
    """
    lead = Fraction(4 ** (2 * n) - 1, 18)
    out = []
    for drift in (Fraction(2 * n, 3), Fraction(-n, 3)):
        vec = tuple(
            lead * a + drift * b - Fraction(1, 2) * c
            for a, b, c in zip(_GROWTH_VEC, _DRIFT_VEC, _NULL_VEC)
        )
        if any(v.denominator != 1 for v in vec):
            raise RuntimeError("closed form is not integral")
        out.append(tuple(int(v) for v in vec))
    return out[0], out[1]


def witness_growth_curve(n_max: int = 4) -> List[Tuple[int, int]]:
    """Curve of (witness length, certified imbalance) for n = 1..n_max.

    At each n the index-2n witness pair is regenerated, its four length-2
    block counts are recounted directly, and the coordinate differences are
    asserted to equal n times the drift eigenvector; the emitted imbalance
    value n is therefore a recounted fact, not a formula. Lengths grow
    sixteenfold per step ((4^{2n}+2)/3), so n_max = 4 is desk scale.
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


def block_substitution() -> BlockSubstitution:
    """The induced action of the doubling substitution on 2-block codings."""
    return induced_block_substitution(SUB_M, 2, 2, Word.empty(BINARY))


def block_recursion_checks(index_max: int) -> List[dict]:
    """Verify the block-coding recursions of the witness words.

    For the 2-codings under the squared induced block substitution:
    squared(code(w_k)) framed by (01)(11) / (10)(00) reproduces code(w_{k+1})
    shifted by one block, and squared(code(w'_k)) equals code(w'_{k+1}) with
    a two-letter block appended.
    """
    bs = block_substitution()
    sub = bs.substitution
    out_alpha = sub.codomain

    def code(s: str) -> Word:
        w = Word.from_text(s, BINARY)
        return recast(n_coding(w, 2), sub.domain) if len(w) >= 2 else Word.empty(sub.domain)

    def blocks(*pairs: str) -> Word:
        return Word(tuple(tuple(p) for p in pairs), out_alpha)

    results = []
    for k in range(1, index_max + 1):
        wk, wpk = witness_strings(k)
        wk1, wpk1 = witness_strings(k + 1)
        sq = sub.apply(sub.apply(code(wk)))
        sqp = sub.apply(sub.apply(code(wpk)))
        if k % 2 == 1:
            lhs = sq.concat(blocks("01", "11"))
            rhs = blocks("01").concat(code(wk1))
            tail = blocks("10")
        else:
            lhs = sq.concat(blocks("10", "00"))
            rhs = blocks("10").concat(code(wk1))
            tail = blocks("01")
        lhs_p = sqp.concat(tail)
        rhs_p = code(wpk1)
        results.append(
            {
                "index": k,
                "word_recursion": lhs == rhs,
                "prime_recursion": lhs_p == rhs_p,
            }
        )
    return results


def imbalance_milestones(
    indices: Sequence[int] = (1, 2, 3), max_chars: int = MAX_WITNESS_CHARS
) -> List[Tuple[int, ScanWitness]]:
    """Certified length-2 imbalance lower bounds at the witness lengths.

    For each index i, scans all windows of length (4^{2i}+2)/3 of a deep
    doubling expansion; every reported window pair consists of genuine
    Thue-Morse factors, so the spread is a true imbalance lower bound, and
    it is at least i by the witness construction.
    """
    lengths = [(4 ** (2 * i) + 2) // 3 for i in indices]
    text = thue_morse_text(min_chars=24 * max(lengths) + 16, max_chars=max_chars)
    curve = window_imbalance_curve([text], _BLOCK_PATTERNS, lengths)
    out = []
    for i, length in zip(indices, lengths):
        found = curve.get(length)
        if found is None:
            raise ResourceLimitError("expansion too short for the witness length")
        out.append((i, found))
    return out


def level_scan_texts(
    d: DirectiveSequence,
    min_chars: int,
    clip: int,
    max_depth: int = 32768,
) -> Tuple[List[str], TextCodec]:
    """Clipped level-0 letter expansions for window scanning, with codec.

    Every factor of an expansion of a letter through the directive tower is
    a level-0 language member by definition, so any equal-length window
    pair drawn from these texts certifies an imbalance lower bound. Depth
    grows geometrically (x1.5, not x2: doubling the depth can square the
    text length) until the longest letter text reaches min_chars or the
    depth cap; each text is clipped to `clip`. The depth is chosen from
    the text lengths alone, and then each text is built once, and only its
    first clip characters.
    """
    if min_chars < 1 or clip < 1:
        raise ValueError("min_chars and clip must be positive")
    codec = TextCodec.for_alphabet(d.level_alphabet(0))
    depth = _scan_depth(d, codec.alphabet, min_chars, clip, max_depth)
    chars = dict(zip(codec.alphabet.symbols, codec.chars))
    levels = _tower_texts(map(d.substitution_at, range(depth)), chars, clip)
    texts = next(itertools.islice(levels, depth, None))
    return [t for t in texts.values() if t], codec


def _scan_depth(
    d: DirectiveSequence, alphabet: Alphabet, min_chars: int, clip: int, max_depth: int
) -> int:
    """The depth level_scan_texts builds, from letter-text lengths only.

    Refused when some level up to that depth would keep more than
    MAX_TEXT_CHARS characters, counting each letter text up to clip.
    """
    depth = max(8, d.prefix_length + max(1, d.period_length))
    walk = _tower_lengths(map(d.substitution_at, itertools.count()), alphabet)
    for level, lengths in enumerate(walk):
        kept = sum(min(n, clip) for n in lengths.values())
        check_budget("scan expansion", kept, MAX_TEXT_CHARS)
        if level < depth:
            continue
        if max(lengths.values()) >= min_chars or depth >= max_depth:
            return depth
        depth = min(max_depth, depth + max(1, depth // 2))


def collect_factors(
    max_len: int, max_depth: int = _FACTOR_MAX_DEPTH
) -> Tuple[frozenset, int, bool]:
    """Distinct Thue-Morse factors up to max_len, with a stability flag.

    Expands the doubling fixed point until the factor set stops changing
    between consecutive depths (expansions are prefixes of each other, so
    the sets grow monotonically). Returns (factors, depth, stable).
    """
    factors, _, depth, stable = _factors_and_text(max_len, max_depth)
    return factors, depth, stable


@functools.lru_cache(maxsize=None)
def _factors_and_text(max_len: int, max_depth: int) -> Tuple[frozenset, str, int, bool]:
    """collect_factors, plus the expansion whose factors were collected.

    Memoised: every value returned is immutable, and verify asks twice.
    """
    depth = max(4, (16 * max_len).bit_length())
    text = expand_text(SUB_M, "0", depth)
    pool = distinct_factors(text, max_len)
    while depth < max_depth:
        text += text.translate(_FLIP)
        depth += 1
        bigger = distinct_factors(text, max_len)
        if bigger == pool:
            return frozenset(pool), text, depth, True
        pool = bigger
    return frozenset(pool), text, depth, False


def compositions_upto(depth: int) -> List[Tuple[str, Substitution]]:
    """All compositions of {L, M, R} of length <= depth, with their names.

    The empty composition is the identity. Names follow directive order:
    'LM' denotes the tower L o M (M applied first, then L).
    """
    reg = builtin_registry()
    out: List[Tuple[str, Substitution]] = [("", Substitution.identity(BINARY))]
    frontier = out
    for _ in range(depth):
        nxt = []
        for name, sub in frontier:
            for letter in "LMR":
                nxt.append((name + letter, compose(sub, reg[letter]) if name else reg[letter]))
        out.extend(nxt)
        frontier = nxt
    return out


def padded_compositions(depth: int) -> List[Tuple[str, Substitution]]:
    """Compositions of 1..depth factors drawn from {identity, L, M, R}.

    Identity slots (written I) are allowed, so each arity contributes
    4^arity named expressions; many expressions share the same underlying
    substitution. For depth 3 this yields 4 + 16 + 64 = 84 compositions.
    """
    reg = dict(builtin_registry())
    reg["I"] = Substitution.identity(BINARY)
    out: List[Tuple[str, Substitution]] = []
    frontier: List[Tuple[str, Substitution]] = [("", Substitution.identity(BINARY))]
    for _ in range(depth):
        nxt = []
        for name, sub in frontier:
            for letter in "ILMR":
                nxt.append((name + letter, compose(sub, reg[letter])))
        out.extend(nxt)
        frontier = nxt
    return out


def image_pattern_counts(
    sub: Substitution,
    text: str,
    starts: Sequence[int],
    lengths: Sequence[int],
    pattern: str = "011",
) -> "np.ndarray":
    """|sigma(w)|_{sigma(pattern)} for each factor w = text[p : p + n].

    With P[j] = |sigma(text[:j])|, the image sigma(w) is exactly the
    substring sigma(text)[P[p] : P[p + n]], so its occurrences of
    sigma(pattern) are the occurrences in sigma(text) that start in
    [P[p], P[p + n] - |sigma(pattern)|]. One occurrence prefix sum over
    sigma(text) therefore answers every factor in O(1); the text is
    translated once, not once per factor. The domain's symbols must be
    single latin-1 characters, and sigma(pattern) must be nonempty.
    """
    import numpy as np

    table = {ord(a): "".join(sub.image(a).symbols) for a in sub.domain.symbols}
    image = text.translate(table)
    target = pattern.translate(table)
    ind = _occurrence_indicator(image, target)
    occ = np.zeros(len(ind) + 1, dtype=np.int64)  # occurrences starting before i
    np.cumsum(ind, dtype=np.int64, out=occ[1:])
    image_len = np.zeros(256, dtype=np.int64)
    for a, img in table.items():
        image_len[a] = len(img)
    letters = np.frombuffer(text.encode("latin-1"), dtype=np.uint8)
    offsets = np.concatenate([[0], np.cumsum(image_len[letters])])
    starts = np.asarray(starts, dtype=np.int64)
    # Clipping lo to len(ind) only touches images too short to hold target.
    lo = np.minimum(offsets[starts], len(ind))
    hi = offsets[starts + np.asarray(lengths, dtype=np.int64)] - len(target) + 1
    return occ[np.maximum(lo, hi)] - occ[lo]


def preservation_violations(
    comps: Sequence[Tuple[str, Substitution]], factors: Sequence[str], text: str
) -> Tuple[List[dict], int]:
    """Factors w of text with |sigma(w)|_{sigma(011)} != |w|_{011}.

    Image counts come from image_pattern_counts; the factor's own count
    comes from count_overlapping, so the two sides share no counting code.
    Functionally identical compositions are evaluated once and the result
    reused for each expression naming them. Returns the violations, one
    {"composition", "word"} entry per pair, and the number of distinct
    substitutions evaluated.
    """
    import numpy as np

    starts = np.array([text.find(w) for w in factors], dtype=np.int64)
    lengths = np.array([len(w) for w in factors], dtype=np.int64)
    expected = np.array([count_overlapping(w, "011") for w in factors], dtype=np.int64)
    violations: List[dict] = []
    cache: Dict[Substitution, List[str]] = {}
    for name, sub in comps:
        if sub not in cache:
            got = image_pattern_counts(sub, text, starts, lengths)
            cache[sub] = [factors[i] for i in np.flatnonzero(got != expected)]
        violations.extend({"composition": name, "word": w} for w in cache[sub])
    return violations, len(cache)


def count_preservation_violations(
    max_word_len: int = 100, composition_depth: int = 3
) -> dict:
    """Check |sigma(w)|_{sigma(011)} = |w|_{011} over Thue-Morse factors.

    The block 111 never occurs in the Thue-Morse language, which forces
    every occurrence of the image of 011 to align with an occurrence of
    011; this holds for every composition of the builtin family (identity
    slots included, via padded_compositions). Returns a summary with any
    violations (expected none); `checked` counts (expression, factor) pairs.

    Every factor w is a substring of the Thue-Morse expansion T whose
    factors were collected, say w = T[p : p + |w|]. Then sigma(w) is the
    substring sigma(T)[P[p] : P[p + |w|]] with P[j] = |sigma(T[:j])|, so
    |sigma(w)|_{sigma(011)} equals the number of occurrences of sigma(011)
    in sigma(T) starting in [P[p], P[p + |w|] - |sigma(011)|], which a
    prefix sum over sigma(T) gives directly (image_pattern_counts).
    """
    factors, text, depth, stable = _factors_and_text(max_word_len, _FACTOR_MAX_DEPTH)
    comps = padded_compositions(composition_depth)
    violations, distinct = preservation_violations(comps, list(factors), text)
    return {
        "compositions": len(comps),
        "distinct_substitutions": distinct,
        "factors": len(factors),
        "factor_depth": depth,
        "factor_set_stable": stable,
        "checked": len(comps) * len(factors),
        "violations": violations,
    }


def eleven_count_range(factors: Iterable[str]) -> Tuple[int, int]:
    """Range of |w|_11 - |w|_011 over the given words (expected within [0, 1])."""
    lo, hi = 0, 0
    first = True
    for w in factors:
        d = count_overlapping(w, "11") - count_overlapping(w, "011") if "11" in w else 0
        if first:
            lo = hi = d
            first = False
        else:
            lo, hi = min(lo, d), max(hi, d)
    return lo, hi
