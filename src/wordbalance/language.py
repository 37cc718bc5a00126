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
import math
import sys
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence

from .limits import ResourceLimitError, check_budget
from .exactmat import mat_mul, reach
from .substitution import Substitution, SubstitutionError, incidence_counts
from .words import Alphabet, Symbol, Word, _Record

MAX_SAMPLE_CHARS = 60_000_000
# Levels the default sampling depth may walk down before giving up.
MAX_DEPTH_LEVELS = 4096
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
            a, b = self.substitution_at(j), self.substitution_at(j + 1)
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
    subs: Iterable[Substitution], alphabet: Alphabet, clip: int = sys.maxsize
) -> Iterator[Dict[int, str]]:
    """Letter-code texts sigma_[0,j)(a), cut to their first clip characters,
    for j = 0, 1, ..., each level a table from its letter codes.

    Level 0 maps the i-th letter of alphabet to chr(i), and level j+1 is
    level j composed with sigma_j's image table, so only the kept
    characters are ever built (see _compose).
    """
    start = {i: chr(i) for i in range(len(alphabet))}
    step = functools.partial(_compose, clip=clip)
    # A period's substitutions recur level after level, so each one's table
    # is built once; it is kept with its substitution, whose id stays its own.
    built: Dict[int, tuple] = {}

    def table(sig: Substitution) -> Dict[int, str]:
        if id(sig) not in built:
            built[id(sig)] = sig, _image_table(sig)
        return built[id(sig)][1]

    return itertools.accumulate(map(table, subs), step, initial=start)


def _compose(f: Mapping[int, str], g: Mapping[int, str], clip: int) -> Dict[int, str]:
    """The letter map f . g, each text cut to clip: g's images translated
    through f. The first clip characters of f(g(a)) depend only on f's
    images cut to clip and, for a non-erasing f, on the first clip letters
    of g(a); so on non-erasing maps this is associative and equals
    composing in full, then clipping."""
    return {c: _clipped_image(t, f, clip) for c, t in g.items()}


def _clipped_image(word: str, table: Mapping[int, str], clip: int) -> str:
    """word.translate(table)[:clip], as word[:lo]'s image and the head of
    word[lo]'s, where word[lo] is the letter whose image reaches the clip
    (the last letter when none does). A halving search finds lo, counting
    the image length of each half once with str.count. So only the kept
    characters are built, and a last image that fits is not copied."""
    if not word:
        return word
    lo, hi, total = 0, len(word), 0  # word[:lo] translates to total < clip
    while hi - lo > 1:
        mid = (lo + hi) // 2
        part = sum(word.count(c, lo, mid) * len(table[ord(c)]) for c in set(word[lo:mid]))
        if total + part < clip:
            lo, total = mid, total + part
        else:
            hi = mid
    image = word[:lo].translate(table)
    image += table[ord(word[lo])][: clip - total]  # in place: no second copy of the head
    return image


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

    @functools.cached_property
    def classes(self) -> Dict[int, List[str]]:
        """The nonempty codes by length, in increasing length, each class in
        sort_words order. One sort serves every reader."""
        classes: Dict[int, List[str]] = {}
        for s in sorted(self.codes, key=lambda s: (len(s), s)):
            if s:
                classes.setdefault(len(s), []).append(s)
        return classes

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

    if depth is None and d.period_length == 1:
        exact = _exact_sample(d, k, max_length)
        if exact is not None:
            return exact

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
    levels = itertools.islice(_tower_texts(subs, alphabet), depth - k, None)
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


def _exact_sample(d: DirectiveSequence, k: int, max_length: int) -> Optional[LanguageSample]:
    """The level-k language truncated to length N = max_length, as a fixed
    point around the period; None when no letter can seed it.

    Let s = max(k, p) and tau = sigma_s . ... . sigma_{s+q-1}. The seed is
    the first letter a with a in tau(a) whose iterated tau-images reach
    every letter, read off tau's incidence matrix, so tau is never built.
    Levels k to s+q-1 must erase no letter, and every letter of levels s+1
    to s+q-1 must occur in an image from the next deeper level: one that
    does not is a letter of infinitely many deeper levels that the seed's
    images never reach.

    Level k+i keeps words of at most c_i letters, where c_0 = N and
    c_{i+1} = ceil((c_i-1)/m_i) + 1 with m_i = min_a |sigma_{k+i}(a)|, and
    level s+q's words are level s's. A round images the words that level s
    gained in the round before through sigma_{s+q-1}, ..., sigma_s, and
    each level keeps only the words it did not hold yet (semi-naive
    evaluation: the step distributes over union). The sets grow, because
    the seed occurs in tau(seed), so the first round that adds nothing at
    level s marks the fixed point; `meta.depth` counts the rounds up to it.
    Then level s's set is pushed down through sigma_{s-1}, ..., sigma_k
    with the same step.
    """
    if d.period is None:
        return None
    s, q = max(k, d.prefix_length), d.period_length
    levels = [d.substitution_at(j) for j in range(k, s + q)]
    # found[i] will hold level k+i's words; level s is found[top].
    top = s - k
    counts = _tower_counts(d, s, s + q)
    seeds = [a for a, out in enumerate(reach(counts)) if counts[a][a] and len(out) == len(counts)]
    unreached = [sig for sig in levels[top + 1 :] if not all(map(any, incidence_counts(sig)))]
    if not seeds or unreached or not all(sig.is_non_erasing() for sig in levels):
        return None
    tables = list(map(_image_table, levels))
    caps = [max_length]
    for table in tables:
        caps.append(-(-(caps[-1] - 1) // min(map(len, table.values()))) + 1)
    found = [set() for _ in levels]
    new = {chr(seeds[0])} if max_length >= 1 else set()
    found[top] |= new
    for rounds in itertools.count(1):
        for i in reversed(range(top, len(levels))):
            new = _image_factors(new, tables[i], caps[i], caps[i + 1]) - found[i]
            found[i] |= new
        if not new:
            break
    for i in reversed(range(top)):
        found[i] = _image_factors(found[i + 1], tables[i], caps[i], caps[i + 1])
    return LanguageSample(
        alphabet=d.level_alphabet(k),
        level=k,
        max_length=max_length,
        codes=frozenset(found[0] | {""}),
        meta=SampleMeta(depth=rounds, window=0, exact=True, saturated=True),
    )


def _image_factors(words: Iterable[str], table: Mapping[int, str], cap: int, longest: int) -> set:
    """The factors of length <= cap of the images of the words that start
    in the image of a word's first letter and end in the image of its last.

    For a factorial set of words, that is every factor of length <= cap of
    their images: any other factor lies inside the image of a shorter
    factor of its word. So a word of more than longest = ceil((cap-1)/m) + 1
    letters, m the shortest image, adds nothing and is skipped.
    """
    out: set = set()
    for w in words:
        if len(w) > longest:
            continue
        image = w.translate(table)
        total = len(image)
        last = total - len(table[ord(w[-1])])
        for i in range(len(table[ord(w[0])])):
            out.update(image[i:j] for j in range(max(i, last) + 1, min(i + cap, total) + 1))
    return out


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
    sigma_[0,p) . H, so all q residues cost about 3q products. Each
    residue is decided exactly by _grows.

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
    growing = True
    for r in range(q):
        growing = growing and _grows(mat_mul(tails[r], head[1:]), head[0])
        head = mat_mul(head, levels[r])
    return GrowthReport(growing=growing, exact=True)


def _grows(counts, weights) -> bool:
    """Does |pi(tau^k(a))| tend to infinity with k for every letter a?

    counts is tau's incidence matrix and weights[b] is |pi(b)|. A terminal
    class is a strongly connected set of letters that no image leaves. The
    answer is yes iff no letter has an empty image, every terminal class
    has a letter whose image has two or more letters, and every cyclic
    class of a terminal class (its breadth-first levels mod h, h the gcd of
    its cycle lengths) holds a letter that pi does not erase. Why:

    1. Every letter reaches a sink (an empty image) or a terminal class,
       and if t is in tau^j(a), the length of a at step k + j is at least
       that of t at step k. So all letters grow iff no sink exists and
       every terminal letter grows.
    2. A terminal class with no two-letter image is one cycle of one-letter
       images, so its lengths stay bounded. Any other is an irreducible
       integer matrix that is not a permutation, so rho > 1: for large k,
       tau^k(c) holds every letter of one cyclic class, in growing counts,
       and the classes take turns. So the length is 0 on the turns whose
       class pi erases entirely, and grows on every other turn.
    """
    images = list(zip(*counts))
    if not all(map(any, images)):
        return False
    reached = reach(counts)
    done: set = set()
    for c, cls in enumerate(reached):
        if c in done or c not in cls or any(c not in reached[t] for t in cls):
            continue
        done |= cls
        if all(sum(images[a]) == 1 for a in cls):
            return False
        if all(weights[a] for a in cls):
            continue
        level, queue, period = {c: 0}, [c], 0
        for u in queue:
            for v in (v for v, n in enumerate(images[u]) if n):
                if v not in level:
                    level[v] = level[u] + 1
                    queue.append(v)
                period = math.gcd(period, level[u] + 1 - level[v])
        if {level[a] % period for a in cls if weights[a]} != set(range(period)):
            return False
    return True
