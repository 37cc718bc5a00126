"""Empirical balance constants, frequencies, and image decompositions.

A language is C-balanced for length n when any two of its equal-length
members contain every length-n factor with counts differing by at most C.
This module measures that constant exhaustively on finite samples (with
deterministic witnesses), computes exact rational letter frequencies and
deviations, decomposes factors of substitution images into aligned pieces,
and lifts frequencies backwards through invertible incidence matrices.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Tuple

from .exactmat import invert, kernel_basis, mat_vec, radius_below, reach, shifted
from .language import LanguageSample, _decode, _image_table, _letter_codes
from .substitution import Substitution, incidence_counts
from .words import Alphabet, Symbol, Word, _Record


class Witness(NamedTuple):
    """Equal-length sample pair realizing an imbalance on one factor."""

    high: Word
    low: Word
    factor: Word
    count_high: int
    count_low: int

    @property
    def imbalance(self) -> int:
        return self.count_high - self.count_low


class BalanceEntry(NamedTuple):
    """Exhaustive imbalance measurement for one factor length."""

    factor_length: int
    empirical_c: int
    witness: Optional[Witness]
    curve: Tuple[Tuple[int, int], ...]


def imbalance(sample: LanguageSample, n: int) -> BalanceEntry:
    """Exact max over equal-length sample pairs and length-n factors of the
    count difference, with the lexicographically first witness.

    The curve maps each word length to the largest imbalance among words of
    exactly that length; empirical_c is the curve's maximum. Singleton
    length classes contribute zero.
    """
    if n < 1:
        raise ValueError("factor length must be >= 1")
    classes = sample.classes
    factors = classes.get(n, [])
    column = {v: j for j, v in enumerate(factors)}
    zeros = [0] * len(factors)
    # (imbalance, high, low, factor, count_high, count_low), words as codes.
    best: Optional[tuple] = None
    curve: List[Tuple[int, int]] = []
    # Count rows of the previous class, by word.
    parents: Dict[str, List[int]] = {}
    for length, cls in classes.items():
        class_best: Optional[tuple] = None
        if factors:
            # Prefix extension: s counts each factor as often as s[:-1] does,
            # plus one for the factor s[-n:] that ends s (none while s is
            # shorter than n). A word whose prefix is not in the sample
            # tallies its own slices.
            rows = []
            for s in cls:
                parent = parents.get(s[:-1])
                if parent is None:
                    row = zeros.copy()
                    for i in range(length - n + 1):
                        j = column.get(s[i : i + n])
                        if j is not None:
                            row[j] += 1
                else:
                    row = parent.copy()
                    j = column.get(s[-n:])
                    if j is not None:
                        row[j] += 1
                rows.append(row)
            parents = dict(zip(cls, rows))
            if len(cls) >= 2:
                for v, counts in zip(factors, zip(*rows)):
                    hi, lo = max(counts), min(counts)
                    if class_best is None or hi - lo > class_best[0]:
                        high, low = cls[counts.index(hi)], cls[counts.index(lo)]
                        class_best = (hi - lo, high, low, v, hi, lo)
        curve.append((length, class_best[0] if class_best else 0))
        if class_best and (best is None or class_best[0] > best[0]):
            best = class_best
    witness = None
    if best is not None:
        high, low, factor = (_decode(s, sample.alphabet) for s in best[1:4])
        witness = Witness(high, low, factor, best[4], best[5])
    return BalanceEntry(
        factor_length=n,
        empirical_c=best[0] if best else 0,
        witness=witness,
        curve=tuple(curve),
    )


def balance_report(sample: LanguageSample, n_max: int) -> Tuple[BalanceEntry, ...]:
    """The imbalance entries of factor lengths 1..n_max, in that order."""
    return tuple(imbalance(sample, n) for n in range(1, n_max + 1))


class FrequencyVector(_Record):
    """Exact letter frequencies: nonnegative rationals summing to one."""

    _fields = ("alphabet", "values")

    def __init__(self, alphabet: Alphabet, values: Tuple[Fraction, ...]):
        if len(values) != len(alphabet):
            raise ValueError("one frequency per letter required")
        if any(v < 0 for v in values):
            raise ValueError("frequencies must be nonnegative")
        if sum(values, Fraction(0)) != 1:
            raise ValueError("frequencies must sum to 1")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "values", values)

    def __getitem__(self, symbol: Symbol) -> Fraction:
        return self.values[self.alphabet.index(symbol)]

    def items(self) -> Tuple[Tuple[Symbol, Fraction], ...]:
        return tuple(zip(self.alphabet.symbols, self.values))


def frequency_vector(sample: LanguageSample) -> FrequencyVector:
    """Letter frequencies averaged over all words of the maximal length
    present in the sample (exact rational)."""
    if not sample.classes:
        raise ValueError("sample has no nonempty words")
    text = "".join(sample.classes[max(sample.classes)])
    total = Fraction(len(text))
    values = tuple(Fraction(text.count(chr(i))) / total for i in range(len(sample.alphabet)))
    return FrequencyVector(sample.alphabet, values)


def perron_frequency(rows, letters) -> FrequencyVector:
    """Dominant-eigenvector frequencies of an incidence matrix, such as
    `incidence_counts(sigma)` or a product of them, whose rows are these
    letters.

    Refused (ValueError) unless the matrix is nonnegative, as the radius
    test needs, and its spectral radius rho is a positive integer whose
    eigenspace is one-dimensional: otherwise no single eigenvector, hence
    no single frequency vector, is determined by the matrix.
    """
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("perron frequencies need an endomorphism")
    if any(x < 0 for row in rows for x in row):
        raise ValueError("perron frequencies need a nonnegative matrix")
    # lam = floor(rho) by bisection, as rho is at most the largest column sum.
    lam, hi = 0, math.floor(max(map(sum, zip(*rows)), default=0)) + 1
    while hi - lam > 1:
        mid = (lam + hi) // 2
        lam, hi = (lam, mid) if radius_below(rows, mid) else (mid, hi)
    if not _is_spectral_radius(rows, lam):
        raise ValueError(f"spectral radius is not an integer (it lies between {lam} and {lam + 1})")
    if lam == 0:
        raise ValueError("spectral radius is 0: every letter is erased in some power")
    basis = kernel_basis(shifted(rows, lam))
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
    return FrequencyVector(Alphabet(letters), values)


def _is_spectral_radius(rows, lam: int) -> bool:
    """Is lam the spectral radius of the nonnegative matrix with these rows?

    The spectral radius is the largest rho(B) over the diagonal blocks B of
    the strongly connected letter classes, the mutual-reach sets, so lam
    >= 0 is it iff no class has rho(B) > lam; a letter on no cycle is a
    block [0]. Per class, exactly: rho(B) < lam by radius_below, and
    rho(B) = lam iff the kernel of lam*I - B is spanned by one strictly
    positive vector (Perron-Frobenius).
    """
    reached = reach(rows)
    classes = {
        tuple(sorted(j for j in out if i in reached[j]))
        for i, out in enumerate(reached)
        if i in out
    }
    for cls in sorted(classes):
        block = [[rows[i][j] for j in cls] for i in cls]
        if radius_below(block, lam):
            continue
        # kernel_basis sets a free coordinate to 1, so a strictly positive
        # spanning vector is returned as one.
        basis = kernel_basis(shifted(block, lam))
        if len(basis) != 1 or any(v <= 0 for v in basis[0]):
            return False
    return True


def frequency_deviation(sample: LanguageSample, f: FrequencyVector) -> Fraction:
    """Exact max over sample words w and letters a of ||w|_a - f_a |w||."""
    if f.alphabet != sample.alphabet:
        raise ValueError("frequency vector alphabet does not match the sample")
    # |x - c| is convex in x, so per (length, letter) only the least and the
    # largest count can attain the maximum.
    worst = Fraction(0)
    for length, cls in sample.classes.items():
        for i, fa in enumerate(f.values):
            a = chr(i)
            counts = [s.count(a) for s in cls]
            target = fa * length
            lo, hi = Fraction(min(counts)), Fraction(max(counts))
            worst = max(worst, abs(lo - target), abs(hi - target))
    return worst


class LiftedFrequency(NamedTuple):
    """Preimage frequency candidate from an exact incidence solve.

    Normalization is checked, never forced: `normalized` and `nonnegative`
    report whether the solution is a genuine frequency vector.
    """

    alphabet: Alphabet
    values: Tuple[Fraction, ...]
    total: Fraction
    normalized: bool
    nonnegative: bool



def lift_frequency(f: FrequencyVector, substitution: Substitution) -> LiftedFrequency:
    """Solve M_sigma f' = f exactly; raises NotInvertibleError when singular.

    f lives over the substitution's codomain; the solution lives over its
    domain and is the unique candidate for the preimage letter frequencies.
    """
    if f.alphabet != substitution.codomain:
        raise ValueError("frequency vector must live over the substitution codomain")
    lifted = mat_vec(invert(incidence_counts(substitution)), f.values)
    total = sum(lifted, Fraction(0))
    return LiftedFrequency(
        alphabet=substitution.domain,
        values=lifted,
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


class ImageDecomposition(NamedTuple):
    """w = head . sigma(core) . tail with head a strict suffix of a letter
    image (or empty), core a sample member, and tail a strict prefix of a
    letter image, possibly extended by whole letter images."""

    head: Word
    core: Word
    tail: Word

    def reassemble(self, substitution: Substitution) -> Word:
        return self.head.concat(substitution.apply(self.core)).concat(self.tail)


def decompose_in_image(
    w: Word, sigma: Substitution, sample: LanguageSample
) -> ImageDecomposition:
    """Aligned decomposition w = head sigma(core) tail, core from the sample.

    Among all alignments found in images of sample words, returns the one
    with minimal |head|, ties broken by maximal |core|, then
    lexicographically smallest (head, core, tail). Raises NotRepresentable
    when no image of a sample word contains w with a boundary-compatible
    alignment.

    Works on letter-code strings: the sample's codes, joined by a separator,
    are imaged once by one translate table and searched with str.find, and
    since code point i is alphabet position i, comparing code strings is
    comparing Word keys. Only the winner is decoded.
    """
    if w.alphabet != sigma.codomain:
        raise ValueError("word must live over the substitution codomain")
    if sample.alphabet != sigma.domain:
        raise ValueError("sample must live over the substitution domain")
    code = _letter_codes(sigma.codomain)
    target = "".join(map(code.__getitem__, w.symbols))
    table = _image_table(sigma)
    # The separator is no domain code, so translate keeps it, and no codomain
    # code, so no image and no target holds it: a hit lies in one word's
    # image, and an empty target's hit at a separator ends the image before.
    sep = chr(max(len(sigma.domain), len(sigma.codomain)))
    source = sep.join(sample.codes)
    image = source.translate(table)
    # cum[i] = |image of source[:i]|; the separator's image is itself, so the
    # offsets next to a hit are the image boundaries of the word it lies in.
    lengths = {chr(i): len(t) for i, t in table.items()}
    lengths[sep] = 1
    cum = list(accumulate(map(lengths.__getitem__, source), initial=0))
    # (len(head), -len(core), head, core, tail), words as codes.
    best: Optional[tuple] = None
    p = image.find(target) if sample.codes else -1
    while p >= 0:
        e = p + len(target)
        i0 = bisect_left(cum, p)
        j0 = bisect_right(cum, e) - 1
        if j0 >= i0:
            key = (cum[i0] - p, i0 - j0, image[p : cum[i0]], source[i0:j0], image[cum[j0] : e])
            if best is None or key < best:
                best = key
        p = image.find(target, p + 1)
    if best is None:
        raise NotRepresentable(w, sigma)
    head, core, tail = best[2:]
    return ImageDecomposition(
        _decode(head, sigma.codomain), _decode(core, sigma.domain), _decode(tail, sigma.codomain)
    )


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
