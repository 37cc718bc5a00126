"""Finite words over ordered alphabets, and block codings.

Symbols are opaque hashable tokens ordered by their alphabet position. Letters
of a block alphabet are n-tuples of base symbols, ordered lexicographically by
base position, so sliding-window codings stay exact and comparable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Hashable, Iterable, Iterator, Tuple

from .limits import check_budget

Symbol = Hashable

MAX_BLOCK_ALPHABET = 1 << 20


class AlphabetError(ValueError):
    """Symbol set problem: duplicates, unknown symbols, or mixed alphabets."""


class _Record:
    """Immutable value object. Each field named in _fields is set once, in
    __init__, through object.__setattr__; equality, hash and repr follow
    the fields, and objects of two different classes never compare equal."""

    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(_Record):
    """Ordered finite set of symbols; the order drives all tie-breaking."""

    _fields = ("symbols",)

    def __init__(self, symbols: Iterable[Symbol]) -> None:
        symbols = tuple(symbols)
        index = {s: i for i, s in enumerate(symbols)}
        if len(index) != len(symbols):
            raise AlphabetError(f"duplicate symbols in alphabet: {symbols!r}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "_index", index)
        # Cached: a block alphabet has up to 2^20 symbols, and every hash of
        # a Word over it would otherwise re-hash them all.
        object.__setattr__(self, "_hash", hash(symbols))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.symbols == other.symbols

    def __hash__(self) -> int:
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


class Word(_Record):
    """Immutable word over a fixed alphabet. The empty word is valid."""

    _fields = ("symbols", "alphabet")

    def __init__(self, symbols: Iterable[Symbol], alphabet: Alphabet) -> None:
        symbols = tuple(symbols)
        for s in symbols:
            if s not in alphabet:
                raise AlphabetError(f"symbol {s!r} not in alphabet {alphabet.symbols!r}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "alphabet", alphabet)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.symbols, self.alphabet) == (other.symbols, other.alphabet)

    def __hash__(self) -> int:
        return hash((self.symbols, self.alphabet))

    @classmethod
    def from_text(cls, text: str, alphabet: Alphabet) -> "Word":
        """Word from one character per symbol (single-character alphabets)."""
        return cls(tuple(text), alphabet)

    @classmethod
    def empty(cls, alphabet: Alphabet) -> "Word":
        return cls((), alphabet)

    @classmethod
    def _from_checked(cls, symbols: Tuple[Symbol, ...], alphabet: Alphabet) -> "Word":
        """Word from a tuple whose symbols are already known to lie in the
        alphabet (parts of checked words): skips __init__ and its check."""
        w = object.__new__(cls)
        object.__setattr__(w, "symbols", symbols)
        object.__setattr__(w, "alphabet", alphabet)
        return w

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
        return Word._from_checked(self.symbols[start:stop], self.alphabet)

    def concat(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise AlphabetError("cannot concatenate words over different alphabets")
        return Word._from_checked(self.symbols + other.symbols, self.alphabet)

    def render(self) -> str:
        return "".join(render_symbol(s) for s in self.symbols)

    def __str__(self) -> str:
        return self.render()


def render_symbol(symbol: Symbol) -> str:
    """Base symbols print as themselves, block letters as (a1...an)."""
    if isinstance(symbol, tuple):
        return "(" + "".join(render_symbol(s) for s in symbol) + ")"
    return str(symbol)


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
    return Word._from_checked(tuple(ws[i : i + n] for i in range(len(ws) - n + 1)), blocks)


def sort_words(words: Iterable[Word]) -> list:
    """Deterministic order: by length, then lexicographic."""
    return sorted(words, key=lambda w: (len(w), w.key()))
