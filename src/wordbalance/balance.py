"""Empirical balance constants, frequencies, and image decompositions.

A language is C-balanced for length n when any two of its equal-length
members contain every length-n factor with counts differing by at most C.
This module measures that constant exhaustively on finite samples (with
deterministic witnesses), computes exact rational letter frequencies and
deviations, decomposes factors of substitution images into aligned pieces,
and lifts frequencies backwards through invertible incidence matrices.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .exactmat import RationalMatrix, integer_eigenvalues, invert, kernel_basis, mat_vec
from .language import LanguageSample
from .substitution import Substitution, incidence_matrix
from .words import Alphabet, Symbol, Word, sort_words


@dataclass(frozen=True)
class Witness:
    """Equal-length sample pair realizing an imbalance on one factor."""

    high: Word
    low: Word
    factor: Word
    count_high: int
    count_low: int

    @property
    def imbalance(self) -> int:
        return self.count_high - self.count_low


@dataclass(frozen=True)
class BalanceEntry:
    """Exhaustive imbalance measurement for one factor length."""

    factor_length: int
    empirical_c: int
    witness: Optional[Witness]
    curve: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class BalanceReport:
    level: int
    max_length: int
    sample_size: int
    exact: bool
    saturated: bool
    entries: Tuple[BalanceEntry, ...]


def imbalance(
    sample: LanguageSample, n: int, length_cap: Optional[int] = None
) -> BalanceEntry:
    """Exact max over equal-length sample pairs and length-n factors of the
    count difference, with the lexicographically first witness.

    The curve maps each word length to the largest imbalance among words of
    exactly that length; empirical_c is the curve's maximum. Singleton
    length classes contribute zero.
    """
    if n < 1:
        raise ValueError("factor length must be >= 1")
    return _imbalance(_length_classes(sample), n, _length_cap(sample, length_cap))


def _length_cap(sample: LanguageSample, length_cap: Optional[int]) -> int:
    return sample.max_length if length_cap is None else min(length_cap, sample.max_length)


def _length_classes(sample: LanguageSample) -> Dict[int, List[Word]]:
    """Nonempty sample words by length, in increasing length, each class in
    sort_words order. One sort serves every factor length."""
    classes: Dict[int, List[Word]] = {}
    for w in sample.nonempty_words():
        classes.setdefault(len(w), []).append(w)
    return classes


def _imbalance(classes: Dict[int, List[Word]], n: int, cap: int) -> BalanceEntry:
    factors = classes.get(n, [])
    best: Optional[Witness] = None
    curve: List[Tuple[int, int]] = []
    for length, cls in classes.items():
        if length > cap:
            break
        class_best: Optional[Witness] = None
        if len(cls) >= 2 and factors:
            tallies = [_tally(w.symbols, n) for w in cls]
            for v in factors:
                row = tuple(t.get(v.symbols, 0) for t in tallies)
                hi, lo = max(row), min(row)
                if class_best is None or hi - lo > class_best.imbalance:
                    class_best = Witness(
                        high=cls[row.index(hi)],
                        low=cls[row.index(lo)],
                        factor=v,
                        count_high=hi,
                        count_low=lo,
                    )
        curve.append((length, class_best.imbalance if class_best else 0))
        if class_best and (best is None or class_best.imbalance > best.imbalance):
            best = class_best
    return BalanceEntry(
        factor_length=n,
        empirical_c=best.imbalance if best else 0,
        witness=best,
        curve=tuple(curve),
    )


def _tally(symbols: Tuple[Symbol, ...], n: int) -> Dict[Tuple[Symbol, ...], int]:
    """Occurrence count of every length-n factor of a symbol tuple."""
    tally: Dict[Tuple[Symbol, ...], int] = {}
    for i in range(len(symbols) - n + 1):
        key = symbols[i : i + n]
        tally[key] = tally.get(key, 0) + 1
    return tally


def balance_report(
    sample: LanguageSample, n_max: int, length_cap: Optional[int] = None
) -> BalanceReport:
    classes = _length_classes(sample)
    cap = _length_cap(sample, length_cap)
    entries = tuple(_imbalance(classes, n, cap) for n in range(1, n_max + 1))
    return BalanceReport(
        level=sample.level,
        max_length=sample.max_length,
        sample_size=len(sample.words),
        exact=sample.meta.exact,
        saturated=sample.meta.saturated,
        entries=entries,
    )


@dataclass(frozen=True)
class FrequencyVector:
    """Exact letter frequencies: nonnegative rationals summing to one."""

    alphabet: Alphabet
    values: Tuple[Fraction, ...]
    mode: str = "given"

    def __post_init__(self):
        if len(self.values) != len(self.alphabet):
            raise ValueError("one frequency per letter required")
        if any(v < 0 for v in self.values):
            raise ValueError("frequencies must be nonnegative")
        if sum(self.values, Fraction(0)) != 1:
            raise ValueError("frequencies must sum to 1")

    def __getitem__(self, symbol: Symbol) -> Fraction:
        return self.values[self.alphabet.index(symbol)]

    def items(self) -> Tuple[Tuple[Symbol, Fraction], ...]:
        return tuple(zip(self.alphabet.symbols, self.values))


def frequency_vector(
    sample: LanguageSample,
    mode: str = "empirical",
    substitution: Optional[Substitution] = None,
) -> FrequencyVector:
    """Letter frequencies of a sample, by one of two surrogates.

    empirical: average frequencies over all words of the maximal length
    present in the sample (exact rational).
    perron: normalized kernel vector of (M - lambda I) for the largest
    integer eigenvalue lambda of the substitution's incidence matrix;
    requires a substitution whose incidence is square with an integer
    dominant eigenvalue whose eigenspace is spanned by one nonnegative
    eigenvector.
    """
    if mode == "empirical":
        lengths = [len(w) for w in sample.words if len(w) > 0]
        if not lengths:
            raise ValueError("sample has no nonempty words")
        top = max(lengths)
        longest = [w for w in sample.words if len(w) == top]
        total = Fraction(top * len(longest))
        values = tuple(
            Fraction(sum(w.symbols.count(a) for w in longest)) / total
            for a in sample.alphabet.symbols
        )
        return FrequencyVector(sample.alphabet, values, mode="empirical")
    if mode == "perron":
        if substitution is None:
            raise ValueError("perron mode needs the generating substitution")
        return perron_frequency(substitution)
    raise ValueError(f"unknown frequency mode: {mode}")


def perron_frequency(substitution: Substitution) -> FrequencyVector:
    """Dominant-eigenvector frequencies of a substitution's incidence matrix.

    Refused (ValueError) unless the dominant eigenspace is one-dimensional:
    otherwise no single eigenvector, hence no single frequency vector, is
    determined by the matrix.
    """
    m = incidence_matrix(substitution)
    if not m.is_square():
        raise ValueError("perron frequencies need an endomorphism")
    eigs = integer_eigenvalues(m)
    if not eigs:
        raise ValueError("incidence matrix has no integer eigenvalue")
    lam = max(eigs)
    shifted = RationalMatrix.from_rows(
        [
            [m.entry(i, j) - (lam if i == j else 0) for j in range(m.shape[1])]
            for i in range(m.shape[0])
        ]
    )
    basis = kernel_basis(shifted)
    if not basis:
        raise ValueError("dominant eigenvalue has trivial kernel")
    if len(basis) > 1:
        raise ValueError(f"dominant eigenspace has dimension {len(basis)}: frequencies not unique")
    kern = basis[0]
    total = sum(kern, Fraction(0))
    if total == 0:
        raise ValueError("dominant eigenvector sums to zero")
    values = tuple(v / total for v in kern)
    if any(v < 0 for v in values):
        raise ValueError("dominant eigenvector is not nonnegative")
    return FrequencyVector(substitution.codomain, values, mode="perron")


def frequency_deviation(sample: LanguageSample, f: FrequencyVector) -> Fraction:
    """Exact max over sample words w and letters a of ||w|_a - f_a |w||."""
    if f.alphabet != sample.alphabet:
        raise ValueError("frequency vector alphabet does not match the sample")
    # |x - c| is convex in x, so per (length, letter) only the least and the
    # largest count can attain the maximum.
    extremes: Dict[Tuple[int, Symbol], Tuple[int, int]] = {}
    for w in sample.words:
        length = len(w)
        if length == 0:
            continue
        for a in sample.alphabet.symbols:
            c = w.symbols.count(a)
            lo, hi = extremes.get((length, a), (c, c))
            extremes[length, a] = (min(lo, c), max(hi, c))
    worst = Fraction(0)
    for (length, a), (lo, hi) in extremes.items():
        target = f[a] * length
        worst = max(worst, abs(Fraction(lo) - target), abs(Fraction(hi) - target))
    return worst


@dataclass(frozen=True)
class LiftedFrequency:
    """Preimage frequency candidate from an exact incidence solve.

    Normalization is checked, never forced: `normalized` and `nonnegative`
    report whether the solution is a genuine frequency vector.
    """

    alphabet: Alphabet
    values: Tuple[Fraction, ...]
    total: Fraction
    normalized: bool
    nonnegative: bool

    def __getitem__(self, symbol: Symbol) -> Fraction:
        return self.values[self.alphabet.index(symbol)]

    def items(self) -> Tuple[Tuple[Symbol, Fraction], ...]:
        return tuple(zip(self.alphabet.symbols, self.values))


def lift_frequency(f: FrequencyVector, substitution: Substitution) -> LiftedFrequency:
    """Solve M_sigma f' = f exactly; raises NotInvertibleError when singular.

    f lives over the substitution's codomain; the solution lives over its
    domain and is the unique candidate for the preimage letter frequencies.
    """
    if f.alphabet != substitution.codomain:
        raise ValueError("frequency vector must live over the substitution codomain")
    m = incidence_matrix(substitution)
    inv = invert(m)
    lifted = mat_vec(inv, list(f.values))
    total = sum(lifted, Fraction(0))
    return LiftedFrequency(
        alphabet=substitution.domain,
        values=tuple(lifted),
        total=total,
        normalized=total == 1,
        nonnegative=all(v >= 0 for v in lifted),
    )


class NotRepresentable(Exception):
    """The word admits no aligned decomposition over the given sample."""

    def __init__(self, word: Word, substitution: Substitution):
        self.word = word
        self.substitution = substitution
        super().__init__(
            f"word {word.render()!r} is not an aligned factor of the image language"
        )


@dataclass(frozen=True)
class ImageDecomposition:
    """w = head . sigma(core) . tail with head a strict suffix of a letter
    image (or empty), core a sample member, and tail a strict prefix of a
    letter image, possibly extended by whole letter images."""

    head: Word
    core: Word
    tail: Word

    def reassemble(self, substitution: Substitution) -> Word:
        return self.head.concat(substitution.apply(self.core)).concat(self.tail)


def _aligned_occurrences(
    w: Word, sigma: Substitution, v: Word
) -> Iterable[Tuple[Word, Word, Word]]:
    image = sigma.apply(v)
    if len(image) < len(w):
        return
    cum = [0]
    for a in v.symbols:
        cum.append(cum[-1] + len(sigma.image(a)))
    text, target = image.symbols, w.symbols
    for p in range(len(text) - len(w) + 1):
        if text[p : p + len(w)] != target:
            continue
        e = p + len(w)
        i0 = bisect_left(cum, p)
        j0 = bisect_right(cum, e) - 1
        if j0 < i0:
            continue
        head = Word(text[p : cum[i0]], sigma.codomain)
        core = v.sub(i0, j0)
        tail = Word(text[cum[j0] : e], sigma.codomain)
        yield (head, core, tail)


def decompose_in_image(
    w: Word, sigma: Substitution, sample: LanguageSample
) -> ImageDecomposition:
    """Aligned decomposition w = head sigma(core) tail, core from the sample.

    Among all alignments found in images of sample words, returns the one
    with minimal |head|, ties broken by maximal |core|, then
    lexicographically smallest (head, core, tail). Raises NotRepresentable
    when no image of a sample word contains w with a boundary-compatible
    alignment.
    """
    if w.alphabet != sigma.codomain:
        raise ValueError("word must live over the substitution codomain")
    if sample.alphabet != sigma.domain:
        raise ValueError("sample must live over the substitution domain")
    seen = set()
    found: List[Tuple[int, int, tuple, tuple, tuple, ImageDecomposition]] = []
    for v in sort_words(sample.words):
        for head, core, tail in _aligned_occurrences(w, sigma, v):
            key = (head.symbols, core.symbols, tail.symbols)
            if key in seen:
                continue
            seen.add(key)
            found.append(
                (
                    len(head),
                    -len(core),
                    head.key(),
                    core.key(),
                    tail.key(),
                    ImageDecomposition(head, core, tail),
                )
            )
    if not found:
        raise NotRepresentable(w, sigma)
    found.sort(key=lambda t: t[:5])
    return found[0][5]


def decompose_pair_in_image(
    w: Word, w2: Word, sigma: Substitution, sample: LanguageSample
) -> Tuple[ImageDecomposition, ImageDecomposition]:
    """Joint decomposition of an equal-length pair with equal core lengths.

    Both words are decomposed with maximal cores, then the longer core is
    truncated to the shorter one's length, moving the images of the cut
    letters into the tail. The combined head+tail lengths then satisfy
    max over the pair <= (2 + C #A) ||sigma|| - 2 for any letter-imbalance
    constant C of the sample.
    """
    if len(w) != len(w2):
        raise ValueError("pair decomposition needs equal-length words")
    d1 = decompose_in_image(w, sigma, sample)
    d2 = decompose_in_image(w2, sigma, sample)
    n1, n2 = len(d1.core), len(d2.core)
    if n1 > n2:
        return _truncate_core(d1, n2, sigma), d2
    if n2 > n1:
        return d1, _truncate_core(d2, n1, sigma)
    return d1, d2


def _truncate_core(d: ImageDecomposition, target: int, sigma: Substitution) -> ImageDecomposition:
    kept = d.core.sub(0, target)
    cut = d.core.sub(target, len(d.core))
    return ImageDecomposition(d.head, kept, sigma.apply(cut).concat(d.tail))


def coarsening_bound(c_n: int, n: int, k: int, alphabet_size: int) -> int:
    """Balance bound transfer from factor length n down to k < n."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    return alphabet_size ** (n - k) * c_n + n - 1


def pair_tail_bound(letter_c: int, alphabet_size: int, norm: int) -> int:
    """Bound on the larger combined head+tail length in a joint decomposition."""
    return (2 + letter_c * alphabet_size) * norm - 2


def image_letter_bound(letter_c: int, alphabet_size: int, norm: int) -> int:
    """Letter imbalance bound for the factor set of a substitution image."""
    return 2 * (1 + letter_c * alphabet_size) * norm - 2


def image_window_bound_constant(
    c_1: int, c_n: int, n: int, alphabet_size: int, norm: int
) -> int:
    """Balance constant for admissible window lengths of an image language.

    When the source language is letter-c_1-balanced and c_n-balanced for
    factor length n, the factor closure of its image under a substitution
    of norm ``norm`` is balanced for every admissible window length with
    constant at most
    (size*c_1 + 2)*norm - 2 + (n-1)*norm + size^(n-1)*c_n*norm.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return (
        (alphabet_size * c_1 + 2) * norm
        - 2
        + (n - 1) * norm
        + alphabet_size ** (n - 1) * c_n * norm
    )
