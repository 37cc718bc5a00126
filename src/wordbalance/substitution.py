"""Substitutions (free-monoid morphisms), their matrices, and block liftings.

A substitution maps each domain letter to a word over the codomain. The block
lifting turns a substitution into one acting on sliding-window codings: given
an anchor word u with u a prefix of sigma(a)u for every letter a (or the
mirrored suffix condition), length-n blocks map to words of length-m blocks so
that coding then substituting agrees with substituting then coding.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .words import (
    Alphabet,
    AlphabetError,
    Symbol,
    Word,
    block_alphabet,
    n_coding,
    prefix,
    render_symbol,
    sort_words,
    suffix,
)


class SubstitutionError(ValueError):
    """Malformed substitution: bad images, bad text, or chain mismatch."""


class BlockCodingError(ValueError):
    """Block lifting rejected: anchor condition or window bound violated."""


class Substitution:
    """Morphism A* -> B* given by letter images; composition is exact."""

    def __init__(self, domain: Alphabet, codomain: Alphabet, images: Mapping[Symbol, Word]):
        missing = [a for a in domain.symbols if a not in images]
        if missing:
            raise SubstitutionError(f"missing images for {missing!r}")
        extra = [a for a in images if a not in domain]
        if extra:
            raise SubstitutionError(f"images for letters outside the domain: {extra!r}")
        for a, w in images.items():
            if w.alphabet != codomain:
                raise SubstitutionError(
                    f"image of {a!r} is over the wrong alphabet"
                )
        self.domain = domain
        self.codomain = codomain
        self._images = {a: images[a] for a in domain.symbols}

    def image(self, letter: Symbol) -> Word:
        try:
            return self._images[letter]
        except KeyError:
            raise AlphabetError(f"letter {letter!r} not in domain") from None

    @property
    def images(self) -> Dict[Symbol, Word]:
        return dict(self._images)

    def apply(self, w: Word) -> Word:
        if w.alphabet != self.domain:
            raise AlphabetError("word alphabet differs from substitution domain")
        images = self._images
        return Word._from_checked(
            tuple(chain.from_iterable(images[a].symbols for a in w.symbols)), self.codomain
        )

    def norm(self) -> int:
        """Largest letter-image length."""
        return max((len(w) for w in self._images.values()), default=0)

    def min_image_len(self) -> int:
        """Smallest letter-image length."""
        return min((len(w) for w in self._images.values()), default=0)

    def is_non_erasing(self) -> bool:
        return self.min_image_len() >= 1

    def is_identity(self) -> bool:
        return self.domain == self.codomain and all(
            w.symbols == (a,) for a, w in self._images.items()
        )

    def _key(self):
        return (
            self.domain.symbols,
            self.codomain.symbols,
            tuple((a, self._images[a].symbols) for a in self.domain.symbols),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Substitution) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Substitution({self.to_text()!r})"

    def to_text(self) -> str:
        """Serialize as 'a->image;b->image' in domain order."""
        parts = []
        for a in self.domain.symbols:
            parts.append(f"{render_symbol(a)}->{self._images[a].render()}")
        return ";".join(parts)

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Substitution":
        return cls(alphabet, alphabet, {a: Word((a,), alphabet) for a in alphabet.symbols})

    @classmethod
    def from_text(cls, text: str, codomain: Optional[Alphabet] = None) -> "Substitution":
        """Parse 'a->image;b->image' with single-character symbols.

        Whitespace is ignored everywhere; an empty right side ('a->') is an
        erasing image. Domain order follows the order rules are written in;
        the codomain defaults to the domain plus any extra image symbols in
        order of first appearance.
        """
        compact = "".join(text.split())
        if not compact:
            raise SubstitutionError("empty substitution text")
        rules = []
        for chunk in compact.split(";"):
            if not chunk:
                continue
            if "->" not in chunk:
                raise SubstitutionError(f"rule {chunk!r} lacks '->'")
            left, right = chunk.split("->", 1)
            if len(left) != 1:
                raise SubstitutionError(f"rule {chunk!r} must map a single symbol")
            rules.append((left, right))
        if not rules:
            raise SubstitutionError("no rules in substitution text")
        domain_syms = []
        for a, _ in rules:
            if a in domain_syms:
                raise SubstitutionError(f"duplicate rule for {a!r}")
            domain_syms.append(a)
        domain = Alphabet(tuple(domain_syms))
        if codomain is None:
            seen = list(domain_syms)
            for _, right in rules:
                for c in right:
                    if c not in seen:
                        seen.append(c)
            codomain = Alphabet(tuple(seen))
        images = {a: Word.from_text(right, codomain) for a, right in rules}
        return cls(domain, codomain, images)


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """outer after inner: (outer . inner)(a) = outer(inner(a))."""
    if inner.codomain != outer.domain:
        raise SubstitutionError("composition chain mismatch")
    return Substitution(
        inner.domain,
        outer.codomain,
        {a: outer.apply(inner.image(a)) for a in inner.domain.symbols},
    )


class PropernessProfile(NamedTuple):
    """Whether all letter images share their first (left) or last (right) letter."""

    left_proper: bool
    right_proper: bool
    common_first: Optional[Symbol]
    common_last: Optional[Symbol]


def properness_profile(sigma: Substitution) -> PropernessProfile:
    images = [sigma.image(a) for a in sigma.domain.symbols]
    if not images or any(len(w) == 0 for w in images):
        return PropernessProfile(False, False, None, None)
    firsts = {w.symbols[0] for w in images}
    lasts = {w.symbols[-1] for w in images}
    left = len(firsts) == 1
    right = len(lasts) == 1
    return PropernessProfile(
        left_proper=left,
        right_proper=right,
        common_first=next(iter(firsts)) if left else None,
        common_last=next(iter(lasts)) if right else None,
    )


def incidence_counts(sigma: Substitution) -> List[List[int]]:
    """The integer incidence matrix: entry [i][j] counts the i-th codomain
    letter in the image of the j-th domain letter. Composition turns into
    the matrix product: incidence(outer . inner) = incidence(outer) *
    incidence(inner)."""
    return [
        [sigma.image(a).symbols.count(b) for a in sigma.domain.symbols]
        for b in sigma.codomain.symbols
    ]


class BlockSubstitution(NamedTuple):
    """A substitution lifted to sliding-window block letters.

    `substitution` maps the restricted block alphabet (the admissible length-n
    blocks) into words over the full length-m block alphabet, each image as
    long as the base image of the block's first letter (last letter for the
    suffix-anchored form).
    """

    base: Substitution
    block_len_in: int
    block_len_out: int
    anchor: Word
    side: str
    domain_blocks: Tuple[Word, ...]
    substitution: Substitution
    window_bound: int

    def apply_to_coding(self, coded: Word) -> Word:
        """Apply to an n-coding (a word over the full block alphabet).

        Rebuilding the coding over the admissible blocks checks every symbol,
        so an inadmissible block raises AlphabetError.
        """
        restricted = Word(coded.symbols, self.substitution.domain)
        return self.substitution.apply(restricted)


def window_bound(
    sigma: Substitution, n: int, anchor: Word, domain_blocks: Iterable[Sequence[Symbol]]
) -> int:
    """Largest admissible output window: min |sigma(w)| over length-(n-1)
    contexts w (block prefixes and suffixes; epsilon for n=1), plus
    |anchor| + 1. Blocks may be words or symbol tuples."""
    size = {a: len(w) for a, w in sigma._images.items()}
    shortest = 0 if n == 1 else min(
        sum(size[a] for a in context)
        for b in domain_blocks
        for context in (b[: n - 1], b[len(b) - n + 1 :])
    )
    return shortest + len(anchor) + 1


def induced_block_substitution(
    sigma: Substitution,
    n: int,
    m: int,
    anchor: Word,
    side: str = "prefix",
    domain_blocks: Optional[Iterable[Word]] = None,
) -> BlockSubstitution:
    """Lift sigma to length-n input blocks and length-m output blocks.

    Prefix side: requires the anchor u to be a prefix of sigma(a)u for every
    letter a; the image of block (a1...an) is the m-coding of
    sigma(a1) . first_{m-1}(sigma(a2...an) u), which has exactly |sigma(a1)|
    blocks. The suffix side is realized by reversing all images, the anchor
    and the blocks, applying the prefix construction, and reversing back.

    The window m must satisfy 1 <= m <= window_bound(...); otherwise a
    BlockCodingError reports the computed bound.
    """
    if side not in ("prefix", "suffix"):
        raise ValueError(f"side must be 'prefix' or 'suffix', got {side!r}")
    if n < 1:
        raise ValueError("input block length must be >= 1")
    if anchor.alphabet != sigma.codomain:
        raise AlphabetError("anchor must be a word over the codomain")

    # Blocks, images and the anchor are symbol tuples from here on; their
    # symbols come from checked words, so no Word is rebuilt per step.
    if domain_blocks is None:
        blocks = block_alphabet(sigma.domain, n).symbols
    else:
        words = sort_words(set(domain_blocks))
        for b in words:
            if len(b) != n:
                raise ValueError(f"domain block {b.render()!r} does not have length {n}")
            if b.alphabet != sigma.domain:
                raise AlphabetError("domain blocks must be words over the domain")
        blocks = tuple(b.symbols for b in words)
    if not blocks:
        raise BlockCodingError("empty set of admissible blocks")

    bound = window_bound(sigma, n, anchor, blocks)
    if not 1 <= m <= bound:
        raise BlockCodingError(
            f"output window {m} outside [1, {bound}] for this anchor and block set"
        )

    u = anchor.symbols
    images = {a: w.symbols for a, w in sigma._images.items()}
    if side == "prefix":
        if not all((img + u)[: len(u)] == u for img in images.values()):
            raise BlockCodingError(
                f"anchor {anchor.render()!r} is not a prefix of every sigma(a)u"
            )
        lifted_raw = _prefix_block_images(images, m, u, blocks)
    else:
        if not all((u + img)[len(img) :] == u for img in images.values()):
            raise BlockCodingError(
                f"anchor {anchor.render()!r} is not a suffix of every u sigma(a)"
            )
        rev_images = {a: img[::-1] for a, img in images.items()}
        rev_lifted = _prefix_block_images(rev_images, m, u[::-1], [b[::-1] for b in blocks])
        lifted_raw = {
            b[::-1]: tuple(t[::-1] for t in reversed(seq)) for b, seq in rev_lifted.items()
        }

    in_alpha = Alphabet(blocks)
    out_alpha = block_alphabet(sigma.codomain, m)
    lifted = Substitution(
        in_alpha, out_alpha, {b: Word._from_checked(lifted_raw[b], out_alpha) for b in blocks}
    )
    return BlockSubstitution(
        base=sigma,
        block_len_in=n,
        block_len_out=m,
        anchor=anchor,
        side=side,
        domain_blocks=tuple(Word._from_checked(b, sigma.domain) for b in blocks),
        substitution=lifted,
        window_bound=bound,
    )


def _prefix_block_images(
    images: Dict[Symbol, Tuple[Symbol, ...]],
    m: int,
    anchor: Tuple[Symbol, ...],
    blocks: Iterable[Tuple[Symbol, ...]],
) -> Dict[Tuple[Symbol, ...], Tuple[Tuple[Symbol, ...], ...]]:
    """Block (a1...an) -> the m-blocks of sigma(a1) . first_{m-1}(sigma(a2...an) u)."""
    out = {}
    for b in blocks:
        tail = tuple(chain.from_iterable(images[a] for a in b[1:])) + anchor
        if len(tail) < m - 1:
            raise BlockCodingError(
                f"block {''.join(map(render_symbol, b))!r}: continuation shorter than window - 1"
            )
        syms = images[b[0]] + tail[: m - 1]
        out[b] = tuple(syms[i : i + m] for i in range(len(syms) - m + 1))
    return out


def coding_identity_sides(bs: BlockSubstitution, w: Word) -> Tuple[Word, Word]:
    """Both sides of the coding-exchange identity for w (|w| >= n-1 required).

    Prefix side:  (sigma(w) u)^(m)  vs  hat(w^(n)) . (sigma(last_{n-1}(w)) u)^(m)
    Suffix side:  (u sigma(w))^(m)  vs  (u sigma(first_{n-1}(w)))^(m) . hat(w^(n))
    """
    sigma, n, m, u = bs.base, bs.block_len_in, bs.block_len_out, bs.anchor
    if len(w) < n - 1:
        raise ValueError("word shorter than n-1")
    coded = n_coding(w, n)
    lifted = bs.apply_to_coding(coded)
    if bs.side == "prefix":
        lhs = n_coding(sigma.apply(w).concat(u), m)
        rest = n_coding(sigma.apply(suffix(w, n - 1)).concat(u), m)
        rhs = lifted.concat(rest)
    else:
        lhs = n_coding(u.concat(sigma.apply(w)), m)
        rest = n_coding(u.concat(sigma.apply(prefix(w, n - 1))), m)
        rhs = rest.concat(lifted)
    return lhs, rhs
