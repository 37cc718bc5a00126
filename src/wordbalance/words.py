"""Finite words over ordered alphabets, occurrence counting, and block codings.

Symbols are opaque hashable tokens ordered by their alphabet position. Letters
of a block alphabet are n-tuples of base symbols, ordered lexicographically by
base position, so sliding-window codings stay exact and comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Hashable, Iterable, Iterator, Mapping, Tuple

from .limits import check_budget

Symbol = Hashable

MAX_BLOCK_ALPHABET = 1 << 20


class AlphabetError(ValueError):
    """Symbol set problem: duplicates, unknown symbols, or mixed alphabets."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of symbols; the order drives all tie-breaking."""

    symbols: Tuple[Symbol, ...]
    _index: Mapping[Symbol, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )
    _hash: int = field(init=False, repr=False, compare=False, hash=False, default=0)

    def __post_init__(self) -> None:
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        index = {s: i for i, s in enumerate(symbols)}
        if len(index) != len(symbols):
            raise AlphabetError(f"duplicate symbols in alphabet: {symbols!r}")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_hash", hash(symbols))

    def __hash__(self) -> int:
        # Cached: a block alphabet has up to 2^20 symbols, and every hash of
        # a Word over it would otherwise re-hash them all.
        return self._hash

    @classmethod
    def from_text(cls, text: str) -> "Alphabet":
        """Alphabet of single-character symbols, in the order written."""
        return cls(tuple(text))

    def index(self, symbol: Symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise AlphabetError(f"symbol {symbol!r} not in alphabet {self.symbols!r}") from None

    def __contains__(self, symbol: Symbol) -> bool:
        return symbol in self._index

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class Word:
    """Immutable word over a fixed alphabet. The empty word is valid."""

    symbols: Tuple[Symbol, ...]
    alphabet: Alphabet

    def __post_init__(self) -> None:
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        for s in symbols:
            if s not in self.alphabet:
                raise AlphabetError(
                    f"symbol {s!r} not in alphabet {self.alphabet.symbols!r}"
                )

    @classmethod
    def from_text(cls, text: str, alphabet: Alphabet) -> "Word":
        """Word from one character per symbol (single-character alphabets)."""
        return cls(tuple(text), alphabet)

    @classmethod
    def empty(cls, alphabet: Alphabet) -> "Word":
        return cls((), alphabet)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __getitem__(self, i: int) -> Symbol:
        return self.symbols[i]

    def key(self) -> Tuple[int, ...]:
        """Lexicographic sort key via alphabet positions."""
        idx = self.alphabet.index
        return tuple(idx(s) for s in self.symbols)

    def sub(self, start: int, stop: int) -> "Word":
        return Word(self.symbols[start:stop], self.alphabet)

    def concat(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise AlphabetError("cannot concatenate words over different alphabets")
        return Word(self.symbols + other.symbols, self.alphabet)

    def reverse(self) -> "Word":
        return Word(self.symbols[::-1], self.alphabet)

    def render(self) -> str:
        return "".join(render_symbol(s) for s in self.symbols)

    def __str__(self) -> str:
        return self.render()


def render_symbol(symbol: Symbol) -> str:
    """Base symbols print as themselves, block letters as (a1...an)."""
    if isinstance(symbol, tuple):
        return "(" + "".join(render_symbol(s) for s in symbol) + ")"
    return str(symbol)


def _require_same_alphabet(w: Word, v: Word) -> None:
    if w.alphabet != v.alphabet:
        raise AlphabetError("words over different alphabets")


def count_occurrences(w: Word, v: Word) -> int:
    """Number of (possibly overlapping) occurrences of v in w; v must be nonempty."""
    _require_same_alphabet(w, v)
    m = len(v)
    if m == 0:
        raise ValueError("occurrence counting requires a nonempty factor")
    ws, vs = w.symbols, v.symbols
    return sum(1 for i in range(len(ws) - m + 1) if ws[i : i + m] == vs)


def prefix(w: Word, n: int) -> Word:
    if not 0 <= n <= len(w):
        raise ValueError(f"prefix length {n} out of range for word of length {len(w)}")
    return w.sub(0, n)


def suffix(w: Word, n: int) -> Word:
    if not 0 <= n <= len(w):
        raise ValueError(f"suffix length {n} out of range for word of length {len(w)}")
    return w.sub(len(w) - n, len(w))


@lru_cache(maxsize=None)
def block_alphabet(alphabet: Alphabet, n: int) -> Alphabet:
    """Alphabet of all n-tuples over `alphabet`, in lexicographic order."""
    if n < 1:
        raise ValueError("block length must be >= 1")
    check_budget("block alphabet", len(alphabet) ** n, MAX_BLOCK_ALPHABET, "symbols")
    return Alphabet(tuple(product(alphabet.symbols, repeat=n)))


def n_coding(w: Word, n: int) -> Word:
    """Sliding-window coding: the word of all length-n blocks of w, in order.

    Empty when |w| < n. Occurrence counts transfer: |w|_v = |n_coding(w,n)|_b
    for the block letter b built from a length-n word v.
    """
    if n < 1:
        raise ValueError("coding window must be >= 1")
    blocks = block_alphabet(w.alphabet, n)
    ws = w.symbols
    return Word(tuple(ws[i : i + n] for i in range(len(ws) - n + 1)), blocks)


def recast(w: Word, alphabet: Alphabet) -> Word:
    """Same symbol sequence as a word over another alphabet containing them."""
    return Word(w.symbols, alphabet)


def sort_words(words: Iterable[Word]) -> list:
    """Deterministic order: by length, then lexicographic."""
    return sorted(words, key=lambda w: (len(w), w.key()))
