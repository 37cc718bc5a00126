"""Directive sequences of substitutions and sampled level languages.

A directive sequence d = (sigma_k) chains substitutions between consecutive
levels; the level-k language consists of the words occurring in images of
single letters from infinitely many deeper levels. Samples here are finite
truncations with honest metadata: `exact` marks a provably complete
truncation, `saturated` marks a window-stable approximation.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .limits import ResourceLimitError, check_budget
from .exactmat import mat_mul, reach
from .substitution import Substitution, SubstitutionError, incidence_counts
from .words import Alphabet, Symbol, Word, _Record, sort_words

MAX_SAMPLE_CHARS = 60_000_000
# Levels the default sampling depth may walk down before giving up.
MAX_DEPTH_LEVELS = 4096
# The exact sampler stops after max_length + this many rounds.
_FIXED_POINT_SLACK = 64
# Times the capped growth decision squares its cap looking for agreement.
_CAP_ESCALATIONS = 5
# A finite directive grows if its shortest letter image reaches 32 letters by level 40.
_GROWTH_HORIZON = 40
_GROWTH_THRESHOLD = 32


class DirectiveSequence:
    """Eventually periodic (or finite) sequence of chained substitutions.

    sigma_k maps level-(k+1) words to level-k words. The prefix lists the
    first substitutions; the optional period repeats forever after it.
    """

    def __init__(
        self,
        prefix: Sequence[Substitution] = (),
        period: Optional[Sequence[Substitution]] = None,
        prefix_names: Optional[str] = None,
        period_names: Optional[str] = None,
    ):
        self.prefix = tuple(prefix)
        self.period = tuple(period) if period is not None else None
        if self.period is not None and len(self.period) == 0:
            raise SubstitutionError("period, when given, must be nonempty")
        if not self.prefix and self.period is None:
            raise SubstitutionError("directive needs at least one substitution")
        self.prefix_names = prefix_names
        self.period_names = period_names
        self._validate_chain()

    def _validate_chain(self) -> None:
        horizon = len(self.prefix) + (2 * len(self.period) if self.period else 0)
        for j in range(max(horizon - 1, 0)):
            try:
                a, b = self.substitution_at(j), self.substitution_at(j + 1)
            except SubstitutionError:
                break
            if a.domain != b.codomain:
                raise SubstitutionError(f"chain mismatch between levels {j} and {j + 1}")

    @property
    def prefix_length(self) -> int:
        return len(self.prefix)

    @property
    def period_length(self) -> int:
        return len(self.period) if self.period else 0

    def substitution_at(self, j: int) -> Substitution:
        if j < 0:
            raise IndexError("negative level")
        if j < len(self.prefix):
            return self.prefix[j]
        if self.period is None:
            raise SubstitutionError(f"finite directive has no substitution at level {j}")
        return self.period[(j - len(self.prefix)) % len(self.period)]

    def level_alphabet(self, k: int) -> Alphabet:
        if self.period is None and k == len(self.prefix):
            return self.prefix[-1].domain
        return self.substitution_at(k).codomain

    def max_defined_level(self) -> Optional[int]:
        """Largest sampling level for finite directives, None when periodic."""
        return None if self.period is not None else len(self.prefix)

    def describe(self) -> str:
        if self.prefix_names is not None or self.period_names is not None:
            return f"{self.prefix_names or ''}|{self.period_names or ''}"
        p = ",".join(s.to_text() for s in self.prefix)
        q = ",".join(s.to_text() for s in self.period) if self.period else ""
        return f"[{p}]|[{q}]"


SUB_L = Substitution.from_text("0->0;1->10")
SUB_M = Substitution.from_text("0->01;1->10")
SUB_R = Substitution.from_text("0->01;1->1")


def builtin_registry() -> Dict[str, Substitution]:
    return {"L": SUB_L, "M": SUB_M, "R": SUB_R}


def parse_directive(
    text: str, registry: Optional[Dict[str, Substitution]] = None
) -> DirectiveSequence:
    """Parse 'PREFIX|PERIOD' over single-letter substitution names.

    The names L, M and R are the builtin binary family (see tms.py), and a
    registry adds or overrides names. The period part repeats forever; an
    empty period gives a finite directive, an empty prefix a purely
    periodic one.
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


def _tower_lengths(
    subs: Iterable[Substitution], alphabet: Alphabet
) -> Iterator[Dict[Symbol, int]]:
    """Letter-text lengths of every level of _tower_texts, with no text built.

    Yields |sigma_[0,j)(a)| for j = 0, 1, ..., where sigma_j is the j-th of
    subs: level j+1's length of a letter a is the sum of level j's lengths
    of the letters of sigma_j(a). Lazy, so a caller that stops at its first
    refusal never holds an integer much larger than its budget.
    """
    lengths = dict.fromkeys(alphabet.symbols, 1)
    yield lengths
    for sig in subs:
        lengths = {
            a: sum(lengths[b] for b in sig.image(a).symbols) for a in sig.domain.symbols
        }
        yield lengths


def _tower_texts(
    subs: Iterable[Substitution], chars: Mapping[Symbol, str], clip: Optional[int] = None
) -> Iterator[Dict[Symbol, str]]:
    """Letter texts sigma_[0,j)(a) for j = 0, 1, ..., one character per letter.

    Level 0 maps each letter to its character in `chars`; level j+1's text
    of a letter a is the concatenation of level j's texts of the letters of
    sigma_j(a), so every level costs a few copies and no per-character work.
    With `clip`, every text is cut to its first clip characters, and only
    those are ever built: the clipped text of a is the concatenation of the
    clipped texts of its image letters, cut at clip.
    """
    texts = dict(chars)
    yield texts
    room_for_all = sys.maxsize if clip is None else clip
    for sig in subs:
        step = {}
        for a in sig.domain.symbols:
            parts, room = [], room_for_all
            for b in sig.image(a).symbols:
                if room <= 0:
                    break
                # A slice that keeps the whole text is the text itself, uncopied.
                parts.append(texts[b][:room])
                room -= len(parts[-1])
            step[a] = "".join(parts)
        texts = step
        yield texts


def _tower_counts(d: DirectiveSequence, k: int, n: int) -> List[List[int]]:
    """The integer incidence matrix of sigma_k . ... . sigma_{n-1}, the
    product of the levels' matrices; the identity when n == k.

    Entry [i][j] counts the i-th level-k letter in the image of the j-th
    level-n letter. So image lengths are column sums and letter sets are a
    column's nonzero entries, and no word of the composed tower is built.
    """
    size = len(d.level_alphabet(k))
    identity = [[int(i == j) for j in range(size)] for i in range(size)]
    levels = map(incidence_counts, map(d.substitution_at, range(k, n)))
    return functools.reduce(mat_mul, levels, identity)


class SampleMeta(NamedTuple):
    depth: int
    window: int
    exact: bool
    saturated: bool


class LanguageSample(_Record):
    """Finite factorial truncation of a language: all words up to max_length.

    The words are kept as `codes`, strings of one character per letter where
    chr(i) is the i-th alphabet letter, the empty string included. Ordering
    strings by (length, string) is then the sort_words order. `words` holds
    the same words as Words, decoded on first use.
    """

    _fields = ("alphabet", "level", "max_length", "codes", "meta")

    def __init__(
        self, alphabet: Alphabet, level: int, max_length: int, codes: frozenset, meta: SampleMeta
    ):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "max_length", max_length)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "meta", meta)

    @functools.cached_property
    def words(self) -> frozenset:
        return frozenset(_decode(s, self.alphabet) for s in self.codes)

    def nonempty_words(self) -> list:
        return sort_words(w for w in self.words if len(w) > 0)

    def __contains__(self, w: Word) -> bool:
        return w in self.words

    def __len__(self) -> int:
        return len(self.codes)


def is_factorial(sample: LanguageSample) -> bool:
    """Every factor of every member is a member (and epsilon is present)."""
    pool = sample.codes
    return "" in pool and all(
        s[i:j] in pool for s in pool for i in range(len(s)) for j in range(i + 1, len(s) + 1)
    )


def _letter_codes(alphabet: Alphabet) -> Dict[Symbol, str]:
    """One character per letter, in alphabet order: the samplers' word form."""
    return {a: chr(i) for i, a in enumerate(alphabet.symbols)}


def _image_table(sigma: Substitution) -> Dict[int, str]:
    """A str.translate table from sigma's domain codes to the codes of the
    letter images."""
    code = _letter_codes(sigma.codomain)
    return {
        i: "".join(map(code.__getitem__, sigma.image(a).symbols))
        for i, a in enumerate(sigma.domain.symbols)
    }


def _decode(code: str, alphabet: Alphabet) -> Word:
    """The Word spelled by a letter-code string."""
    symbols = alphabet.symbols
    return Word(tuple(symbols[ord(c)] for c in code), alphabet)


def _short_factors(texts: Iterable[str], max_length: int) -> set:
    """Nonempty factors of length <= max_length of the texts.

    They are the prefixes of the distinct windows text[i : i + max_length]
    (cut short at the end of a text). A language of linear factor
    complexity has few distinct windows, however long its texts.
    """
    if max_length < 1:
        return set()
    windows: set = set()
    for s in texts:
        windows.update(s[i : i + max_length] for i in range(len(s)))
    return {w[:j] for w in windows for j in range(1, len(w) + 1)}


def factorial_closure(
    words: Iterable[Word], max_length: int, alphabet: Optional[Alphabet] = None
) -> LanguageSample:
    """All factors of the given words up to max_length, plus the empty word."""
    words = list(words)
    if alphabet is None:
        if not words:
            raise ValueError("need an alphabet when no words are given")
        alphabet = words[0].alphabet
    if any(w.alphabet != alphabet for w in words):
        raise ValueError("mixed alphabets in factorial closure")
    code = _letter_codes(alphabet)
    texts = ("".join(map(code.__getitem__, w.symbols)) for w in words)
    return _code_closure(texts, max_length, alphabet)


def _code_closure(texts: Iterable[str], max_length: int, alphabet: Alphabet) -> LanguageSample:
    """factorial_closure of words given as letter-code strings."""
    return LanguageSample(
        alphabet=alphabet,
        level=0,
        max_length=max_length,
        codes=frozenset(_short_factors(texts, max_length) | {""}),
        meta=SampleMeta(depth=0, window=0, exact=True, saturated=True),
    )


def _exact_mode_letter(d: DirectiveSequence, k: int) -> Optional[Symbol]:
    """Seed letter for the provably exact fixed-point sampler, if admissible.

    Requires: purely periodic at level k with a one-substitution period tau,
    tau non-erasing, and a letter a occurring in tau(a) whose iterated
    images reach every alphabet letter; the seed is the first such letter
    in alphabet order. Under these conditions the truncated factor sets
    F_{<=N}(tau^i(a)) increase monotonically and S -> F_{<=N}(tau(S)) is a
    deterministic set map, so a repeated set is a true fixed point equal
    to the truncated level language.
    """
    if d.period is None or len(d.period) != 1 or k < len(d.prefix):
        return None
    tau = d.period[0]
    if tau.domain != tau.codomain or not tau.is_non_erasing():
        return None
    counts = incidence_counts(tau)
    seeds = [a for a, out in enumerate(reach(counts)) if counts[a][a] and len(out) == len(counts)]
    return tau.domain.symbols[seeds[0]] if seeds else None


def sample_level_language(
    d: DirectiveSequence,
    k: int,
    max_length: int,
    depth: Optional[int] = None,
    window: Optional[int] = None,
) -> LanguageSample:
    """Sample the level-k language: all factors of length <= max_length seen
    in letter images across a window of deeper levels.

    With no explicit depth, it starts where the tower's shortest letter image
    reaches max_length (when the directive is everywhere growing) or twelve
    levels down otherwise. The result intersects the factor sets of window+1
    consecutive depths; `meta.saturated` reports whether shifting the window
    one period deeper leaves the set unchanged, and `meta.exact` marks the
    provably complete fixed-point case.
    """
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    alphabet = d.level_alphabet(k)
    # Charging the window walks every level down to depth + window with
    # integer lengths that can grow by a digit per level, so a deep or wide
    # request is refused before that quadratic walk; a wide window also on
    # the exact path, which has none and would ignore it.
    if window is not None:
        check_budget("sample window", window, MAX_DEPTH_LEVELS, "levels")

    seed = _exact_mode_letter(d, k)
    if seed is not None and depth is None:
        return _exact_fixed_point_sample(d, k, max_length, seed, alphabet)

    q = d.period_length
    if window is None:
        window = max(3, q)
    if depth is None:
        depth = _default_depth(d, k, max_length)
    else:
        check_budget("sample depth", depth, MAX_DEPTH_LEVELS, "levels")
    if depth <= k:
        raise ValueError("sampling depth must be below the sampled level")
    top = d.max_defined_level()
    step = max(1, q)
    deepest = depth + window + step
    if top is not None and deepest > top:
        raise ValueError("finite directive too short for the requested window")

    # Levels depth..deepest are charged, all of them before any text exists.
    subs = [d.substitution_at(n) for n in range(k, deepest)]
    charged = itertools.islice(_tower_lengths(subs, alphabet), depth - k, None)
    window_chars = sum(sum(lengths.values()) for lengths in charged)
    check_budget("sample window", window_chars, MAX_SAMPLE_CHARS)
    levels = itertools.islice(_tower_texts(subs, _letter_codes(alphabet)), depth - k, None)
    # Intersected as the levels arrive, so that only the current level's
    # factor set, the core (levels 0..window of the window) and the shifted
    # one (levels step..step + window) are alive.
    core = shifted = None
    for i, texts in enumerate(levels):
        found = _short_factors(texts.values(), max_length)
        if i <= window:
            core = found if core is None else core & found
        if i >= step:
            shifted = found if shifted is None else shifted & found
    return LanguageSample(
        alphabet=alphabet,
        level=k,
        max_length=max_length,
        codes=frozenset(core | {""}),
        meta=SampleMeta(depth=depth, window=window, exact=False, saturated=core == shifted),
    )


def _default_depth(d: DirectiveSequence, k: int, max_length: int) -> int:
    """k + j for the first j where every letter image of sigma_[k,k+j) has
    at least max(max_length, 1) characters, and at least k + 1; k + 12 when
    the directive is not everywhere growing. A finite directive is refused
    when its last level comes first."""
    if not is_everywhere_growing(d).growing:
        return k + 12
    top = d.max_defined_level()
    subs = map(d.substitution_at, itertools.count(k) if top is None else range(k, top))
    walk = _tower_lengths(subs, d.level_alphabet(k))
    for j, lengths in enumerate(itertools.islice(walk, MAX_DEPTH_LEVELS)):
        if lengths and min(lengths.values()) >= max(max_length, 1):
            return k + max(j, 1)
    if top is not None and top - k < MAX_DEPTH_LEVELS:
        raise ValueError("finite directive too short for the requested window")
    raise ResourceLimitError(
        f"growth too slow: sample depth needs more than {MAX_DEPTH_LEVELS} levels, "
        f"limit {MAX_DEPTH_LEVELS}",
        "sample depth",
        limit=MAX_DEPTH_LEVELS,
    )


def _exact_fixed_point_sample(
    d: DirectiveSequence, k: int, max_length: int, seed: Symbol, alphabet: Alphabet
) -> LanguageSample:
    """The level language truncated to length N = max_length, as a fixed point.

    The rounds are S_0 = {seed} and S_i = F_{<=N}(tau(S_{i-1})); they grow,
    because seed occurs in tau(seed), and `meta.depth` is the first round i
    with S_i == S_{i-1}. The map S -> F_{<=N}(tau(S)) distributes over
    union, so S_i = S_{i-1} | F_{<=N}(tau(S_{i-1} - S_{i-2})): each round
    images only the words that the round before added (semi-naive
    evaluation). A factor of length <= N of tau(w) lies inside tau(u) for a
    factor u of w with |u| <= ceil((N-1)/m) + 1, where m = min_a |tau(a)|.
    Every S_i is factorial, so u was added in this round or an earlier one
    and is imaged in its turn; longer words are skipped. Likewise, of tau(u)
    only the factors that start in the image of u's first letter and end in
    the image of its last are taken: every other factor lies inside the
    image of a shorter factor of u.
    """
    tau = d.period[0]
    code = _letter_codes(alphabet)
    images = {code[a]: "".join(code[b] for b in tau.image(a).symbols) for a in alphabet.symbols}
    longest = -(-(max_length - 1) // min(map(len, images.values()))) + 1
    current: set = {code[seed]} if max_length >= 1 else set()
    new = current
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_length + _FIXED_POINT_SLACK:
            raise ResourceLimitError(
                "fixed-point sampling failed to stabilize",
                "fixed-point rounds",
                limit=max_length + _FIXED_POINT_SLACK,
            )
        found: set = set()
        for w in new:
            if len(w) > longest:
                continue
            image = "".join(map(images.__getitem__, w))
            total = len(image)
            last = total - len(images[w[-1]])
            for i in range(len(images[w[0]])):
                found.update(
                    image[i:j] for j in range(max(i, last) + 1, min(i + max_length, total) + 1)
                )
        new = found - current
        if not new:
            break
        current |= new
    return LanguageSample(
        alphabet=alphabet,
        level=k,
        max_length=max_length,
        codes=frozenset(current | {""}),
        meta=SampleMeta(depth=iterations, window=0, exact=True, saturated=True),
    )


class GrowthReport(NamedTuple):
    growing: bool
    exact: bool


def is_everywhere_growing(d: DirectiveSequence) -> GrowthReport:
    """Does the tower's shortest letter image tend to infinity?

    Eventually periodic directives reduce, per residue r modulo the period,
    to iterating tau = sigma_[p+r,p+r+q) with letter weights the image
    lengths of pi = sigma_[0,p+r). Both come from integer incidence
    products: tau's column of a letter counts the letters of its image,
    and a weight is a column sum of pi's matrix, so no tower is composed.
    With H = sigma_[p,p+r) and T = sigma_[p+r,p+q), tau is T . H and pi is
    sigma_[0,p) . H, so all q residues cost about 3q products. Two tiers:

    * Everything non-erasing: image lengths under tau are monotone, and a
      letter grows exactly when its iterated images reach an expanding
      letter (_monotone_growth_verdict). Exact both ways.
    * Otherwise: a capped orbit. A coordinate observed below the cap on the
      orbit's cycle equals its true value there (capping only lowers values,
      and a below-cap sum forces below-cap summands), so it recurs forever
      and growth provably fails; an all-capped cycle, cross-checked at a
      second larger cap, is reported as growing but flagged inexact.

    A finite directive is growing, inexactly, when its shortest letter image
    reaches _GROWTH_THRESHOLD letters by level _GROWTH_HORIZON.
    """
    if d.period is None:
        *_, lengths = _tower_lengths(d.prefix[:_GROWTH_HORIZON], d.level_alphabet(0))
        shortest = min(lengths.values(), default=0)
        return GrowthReport(growing=shortest >= _GROWTH_THRESHOLD, exact=False)

    p, q = d.prefix_length, d.period_length
    levels = [incidence_counts(d.substitution_at(p + r)) for r in range(q)]
    # tails[r] is T for residue r, and tails[q] the identity.
    tails = [_tower_counts(d, p, p)]
    for m in reversed(levels):
        tails.append(mat_mul(m, tails[-1]))
    tails.reverse()
    # Row 0 of head holds the weights (column sums of pi's matrix), the
    # rest is H, so one product per level advances both.
    head = [list(map(sum, zip(*_tower_counts(d, 0, p))))] + _tower_counts(d, p, p)
    growing, exact = True, True
    for r in range(q):
        tau = mat_mul(tails[r], head[1:])
        weights = head[0]
        # images[a][b] counts letter b in tau(a); weights[b] is |pi(b)|.
        images = list(zip(*tau))
        if all(map(sum, images)) and all(weights):
            verdict = _monotone_growth_verdict(tau)
        else:
            verdict, certain = _capped_growth_verdict(images, weights)
            exact = exact and certain
        growing = growing and verdict
        head = mat_mul(head, levels[r])
    return GrowthReport(growing=growing, exact=exact)


def _monotone_growth_verdict(counts) -> bool:
    """Exact growth test for a non-erasing endomorphism with positive weights.

    counts is its incidence matrix. A letter is expanding when it lies on a
    cycle of the letter graph and its image has two or more letters. Image
    lengths are monotone, so a letter grows exactly when it reaches an
    expanding letter, which then recurs in its iterates forever. Otherwise
    its iterates end among letters that reach only one-letter-image
    letters, and are frozen in length from then on.
    """
    sizes = list(map(sum, zip(*counts)))
    reached = reach(counts)
    expanding = {c for c, size in enumerate(sizes) if size > 1 and c in reached[c]}
    return all(out & expanding for out in reached)


def _capped_growth_verdict(images, weights) -> Tuple[bool, bool]:
    """(verdict, certain): the capped orbit's verdict once two caps agree,
    certain when it is not growing."""
    max_entry = max((c for image in images for c in image), default=0)
    cap = max(64, max(weights, default=1) + 1, (len(images) * max_entry + 2) ** 2)
    verdict = _capped_orbit(images, weights, cap)
    for _ in range(_CAP_ESCALATIONS):
        bigger = cap * cap + 17
        verdict2 = _capped_orbit(images, weights, bigger)
        if verdict2 == verdict:
            return verdict, not verdict
        cap, verdict = bigger, verdict2
    raise ResourceLimitError(
        "growth decision did not stabilize under cap escalation",
        "growth cap escalations",
        limit=_CAP_ESCALATIONS,
    )


def _capped_orbit(images, weights, cap) -> bool:
    """Whether every state on the cycle of the capped length orbit is all
    capped."""
    state = tuple(min(w, cap) for w in weights)
    seen = {state: 0}
    trajectory = [state]
    while True:
        nxt = tuple(min(sum(map(operator.mul, image, trajectory[-1])), cap) for image in images)
        if nxt in seen:
            return all(v >= cap for st in trajectory[seen[nxt]:] for v in st)
        seen[nxt] = len(trajectory)
        trajectory.append(nxt)
