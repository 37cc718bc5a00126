"""Directive sequences of substitutions and sampled level languages.

A directive sequence d = (sigma_k) chains substitutions between consecutive
levels; the level-k language consists of the words occurring in images of
single letters from infinitely many deeper levels. Samples here are finite
truncations with honest metadata: `exact` marks a provably complete
truncation, `saturated` marks a window-stable approximation.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from .limits import ResourceLimitError, check_budget
from .substitution import Substitution, SubstitutionError
from .words import Alphabet, Symbol, Word, sort_words

MAX_SAMPLE_CHARS = 60_000_000
# Levels the default sampling depth may walk down before giving up.
MAX_DEPTH_LEVELS = 4096


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

    def is_eventually_periodic(self) -> bool:
        return self.period is not None

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

    def tower(self, k: int, n: int) -> Substitution:
        return substitution_tower(self, k, n)

    def describe(self) -> str:
        if self.prefix_names is not None or self.period_names is not None:
            return f"{self.prefix_names or ''}|{self.period_names or ''}"
        p = ",".join(s.to_text() for s in self.prefix)
        q = ",".join(s.to_text() for s in self.period) if self.period else ""
        return f"[{p}]|[{q}]"


def substitution_tower(d: DirectiveSequence, k: int, n: int) -> Substitution:
    """Composition sigma_k . sigma_{k+1} ... sigma_{n-1}; identity when n == k."""
    if n < k:
        raise ValueError("tower needs n >= k")
    alphabet = d.level_alphabet(k)
    levels = _tower_texts(map(d.substitution_at, range(k, n)), _letter_codes(alphabet))
    texts = next(itertools.islice(levels, n - k, None))
    symbols = alphabet.symbols
    images = {a: Word(tuple(symbols[ord(c)] for c in t), alphabet) for a, t in texts.items()}
    return Substitution(d.level_alphabet(n), alphabet, images)


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


@dataclass(frozen=True)
class SampleMeta:
    depth: int
    window: int
    exact: bool
    saturated: bool


@dataclass(frozen=True)
class LanguageSample:
    """Finite factorial truncation of a language: all words up to max_length."""

    alphabet: Alphabet
    level: int
    max_length: int
    words: frozenset
    meta: SampleMeta

    def words_of_length(self, n: int) -> list:
        return sort_words(w for w in self.words if len(w) == n)

    def nonempty_words(self) -> list:
        return sort_words(w for w in self.words if len(w) > 0)

    def __contains__(self, w: Word) -> bool:
        return w in self.words

    def __len__(self) -> int:
        return len(self.words)


def is_factorial(sample: LanguageSample) -> bool:
    """Every factor of every member is a member (and epsilon is present)."""
    pool = {w.symbols for w in sample.words}
    if () not in pool:
        return False
    for syms in pool:
        n = len(syms)
        for i in range(n):
            for j in range(i, n + 1):
                if syms[i:j] not in pool:
                    return False
    return True


def _letter_codes(alphabet: Alphabet) -> Dict[Symbol, str]:
    """One character per letter, in alphabet order: the samplers' word form."""
    return {a: chr(i) for i, a in enumerate(alphabet.symbols)}


def _decode_words(strings: Iterable[str], alphabet: Alphabet) -> frozenset:
    """The Words spelled by letter-code strings, plus the empty word."""
    symbols = alphabet.symbols
    words = {Word(tuple(symbols[ord(c)] for c in w), alphabet) for w in strings}
    words.add(Word((), alphabet))
    return frozenset(words)


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
    words: Iterable[Word],
    max_length: int,
    alphabet: Optional[Alphabet] = None,
    level: int = 0,
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
    return LanguageSample(
        alphabet=alphabet,
        level=level,
        max_length=max_length,
        words=_decode_words(_short_factors(texts, max_length), alphabet),
        meta=SampleMeta(depth=0, window=0, exact=True, saturated=True),
    )


def _exact_mode_letter(d: DirectiveSequence, k: int) -> Optional[Symbol]:
    """Seed letter for the provably exact fixed-point sampler, if admissible.

    Requires: purely periodic at level k with a one-substitution period tau,
    tau non-erasing, some letter a occurring in tau(a), and every alphabet
    letter reachable from a in the occurrence graph. Under these conditions
    the truncated factor sets F_{<=N}(tau^i(a)) increase monotonically and
    S -> F_{<=N}(tau(S)) is a deterministic set map, so a repeated set is a
    true fixed point equal to the truncated level language.
    """
    if d.period is None or len(d.period) != 1 or k < len(d.prefix):
        return None
    tau = d.period[0]
    if tau.domain != tau.codomain or not tau.is_non_erasing():
        return None
    symbols = tau.domain.symbols
    reach = {a: set(tau.image(a).symbols) for a in symbols}
    for a in symbols:
        if a not in reach[a]:
            continue
        seen = {a}
        frontier = [a]
        while frontier:
            b = frontier.pop()
            for c in reach[b]:
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
        if seen == set(symbols):
            return a
    return None


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

    seed = _exact_mode_letter(d, k)
    if seed is not None and depth is None:
        return _exact_fixed_point_sample(d, k, max_length, seed, alphabet)

    q = d.period_length
    if window is None:
        window = max(3, q)
    if depth is None:
        depth = _default_depth(d, k, max_length)
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
    factor_sets = [_short_factors(texts.values(), max_length) for texts in levels]

    core = set.intersection(*factor_sets[: window + 1])
    shifted = set.intersection(*factor_sets[step : step + window + 1])
    return LanguageSample(
        alphabet=alphabet,
        level=k,
        max_length=max_length,
        words=_decode_words(core, alphabet),
        meta=SampleMeta(depth=depth, window=window, exact=False, saturated=core == shifted),
    )


def _default_depth(d: DirectiveSequence, k: int, max_length: int) -> int:
    """k + j for the first j where every letter image of sigma_[k,k+j) has
    at least max(max_length, 1) characters, and at least k + 1; k + 12 when
    the directive is not everywhere growing."""
    if not is_everywhere_growing(d).growing:
        return k + 12
    subs = map(d.substitution_at, itertools.count(k))
    walk = _tower_lengths(subs, d.level_alphabet(k))
    for j, lengths in enumerate(itertools.islice(walk, MAX_DEPTH_LEVELS)):
        if lengths and min(lengths.values()) >= max(max_length, 1):
            return k + max(j, 1)
    raise ResourceLimitError(
        f"growth too slow: sample depth needs more than {MAX_DEPTH_LEVELS} levels, "
        f"limit {MAX_DEPTH_LEVELS}"
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
    image of a shorter factor of u. Words are strings of one character per
    letter inside this function.
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
        if iterations > max_length + 64:
            raise ResourceLimitError("fixed-point sampling failed to stabilize")
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
        words=_decode_words(current, alphabet),
        meta=SampleMeta(depth=iterations, window=0, exact=True, saturated=True),
    )


@dataclass(frozen=True)
class GrowthReport:
    growing: bool
    exact: bool
    certificate: dict


def is_everywhere_growing(
    d: DirectiveSequence, horizon: int = 40, threshold: int = 32
) -> GrowthReport:
    """Does the tower's shortest letter image tend to infinity?

    Eventually periodic directives reduce, per residue class modulo the
    period, to iterating one endomorphism with letter weights given by the
    prefix tower. Two decision tiers:

    * Everything non-erasing: image lengths under the endomorphism are
      monotone, and a letter stalls exactly when its letter-set orbit falls
      inside the stable non-expanding letters. Exact both ways.
    * Otherwise: a capped orbit. A coordinate observed below the cap on the
      orbit's cycle equals its true value there (capping only lowers values,
      and a below-cap sum forces below-cap summands), so it recurs forever
      and growth provably fails; an all-capped cycle, cross-checked at a
      second larger cap, is reported as growing but flagged inexact.

    Finite directives get an empirical report at the horizon.
    """
    if d.period is None:
        walk = _tower_lengths(d.prefix[:horizon], d.level_alphabet(0))
        curve = [min(lengths.values(), default=0) for lengths in walk]
        growing = bool(curve) and curve[-1] >= threshold
        return GrowthReport(
            growing=growing,
            exact=False,
            certificate={
                "mode": "empirical",
                "horizon": len(curve) - 1,
                "threshold": threshold,
                "min_image_lengths": curve,
            },
        )

    p, q = d.prefix_length, d.period_length
    residues = []
    overall = True
    overall_exact = True
    for r in range(q):
        pi = d.tower(0, p + r)
        tau = d.tower(p + r, p + r + q)
        symbols = tau.domain.symbols
        weights = {b: len(pi.image(b)) for b in symbols}
        if tau.is_non_erasing() and all(w >= 1 for w in weights.values()):
            verdict, data = _monotone_growth_verdict(tau, symbols)
            exact = True
        else:
            verdict, data, exact = _capped_growth_verdict(tau, symbols, weights)
        residues.append({"residue": r, "verdict": verdict, **data})
        overall = overall and verdict
        overall_exact = overall_exact and exact
    return GrowthReport(
        growing=overall,
        exact=overall_exact,
        certificate={"mode": "periodic-residue-reduction", "residues": residues},
    )


def _monotone_growth_verdict(tau: Substitution, symbols) -> Tuple[bool, dict]:
    """Exact growth test for a non-erasing endomorphism with positive weights.

    Image lengths are monotone under a non-erasing map, so a letter fails to
    grow exactly when some iterate's letters all sit in E, the largest set of
    length-one-image letters closed under the map; once inside E the word is
    frozen in length forever, and any letter outside E forces an increase
    within one sweep of its orbit.
    """
    stable = {a for a in symbols if len(tau.image(a)) == 1}
    changed = True
    while changed:
        changed = False
        for a in list(stable):
            if tau.image(a).symbols[0] not in stable:
                stable.discard(a)
                changed = True
    stalled = []
    for a in symbols:
        letter_set = frozenset([a])
        seen = set()
        while letter_set not in seen:
            seen.add(letter_set)
            if letter_set <= stable:
                stalled.append(a)
                break
            letter_set = frozenset(
                c for b in letter_set for c in tau.image(b).symbols
            )
    return not stalled, {
        "tier": "monotone-stable-set",
        "non_expanding_core_size": len(stable),
        "stalled_letters": sorted(map(str, stalled)),
    }


def _capped_growth_verdict(tau: Substitution, symbols, weights) -> Tuple[bool, dict, bool]:
    entry = {a: {b: 0 for b in symbols} for a in symbols}
    for a in symbols:
        for b in tau.image(a).symbols:
            entry[a][b] += 1
    max_entry = max((c for row in entry.values() for c in row.values()), default=0)
    cap = max(64, max(weights.values(), default=1) + 1, (len(symbols) * max_entry + 2) ** 2)
    verdict, data = _capped_orbit(symbols, entry, weights, cap)
    for _ in range(5):
        bigger = cap * cap + 17
        verdict2, data2 = _capped_orbit(symbols, entry, weights, bigger)
        if verdict2 == verdict:
            data["confirm_cap"] = bigger
            data["tier"] = "capped-cycle"
            return verdict, data, not verdict
        cap, verdict, data = bigger, verdict2, data2
    raise ResourceLimitError("growth decision did not stabilize under cap escalation")


def _capped_orbit(symbols, entry, weights, cap):
    state = tuple(min(weights[a], cap) for a in symbols)
    seen = {state: 0}
    trajectory = [state]
    while True:
        nxt = tuple(
            min(sum(entry[a][b] * trajectory[-1][i] for i, b in enumerate(symbols)), cap)
            for a in symbols
        )
        if nxt in seen:
            start = seen[nxt]
            cycle = trajectory[start:]
            growing = all(all(v >= cap for v in st) for st in cycle)
            floor = min(min(st) for st in cycle)
            return growing, {
                "cap": cap,
                "preperiod": start,
                "cycle_length": len(trajectory) - start,
                "cycle_floor": floor,
            }
        seen[nxt] = len(trajectory)
        trajectory.append(nxt)
