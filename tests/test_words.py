"""Words, alphabets, factors, and block codings."""

import pickle
import random
from fractions import Fraction

import pytest

from wordbalance import language
from wordbalance.balance import FrequencyVector
from wordbalance.language import parse_directive, sample_level_language
from wordbalance.limits import ResourceLimitError
from wordbalance.words import (
    Alphabet,
    AlphabetError,
    Word,
    block_alphabet,
    n_coding,
    prefix,
    recast,
    render_symbol,
    sort_words,
    suffix,
)

BIN = Alphabet.from_text("01")


def brute_count(text: str, pat: str) -> int:
    """Independent overlapping-occurrence oracle on strings or tuples."""
    return sum(
        1 for i in range(len(text) - len(pat) + 1) if text[i : i + len(pat)] == pat
    )


class TestAlphabet:
    def test_order_and_index(self):
        a = Alphabet.from_text("abc")
        assert a.symbols == ("a", "b", "c")
        assert [a.index(s) for s in "abc"] == [0, 1, 2]
        assert "b" in a and "z" not in a
        assert len(a) == 3
        assert list(a) == ["a", "b", "c"]

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(AlphabetError):
            Alphabet.from_text("aa")

    def test_unknown_symbol_lookup_rejected(self):
        with pytest.raises(AlphabetError):
            BIN.index("x")

    def test_hash_computed_once_per_alphabet(self):
        calls = []

        class Sym:
            def __init__(self, name):
                self.name = name

            def __eq__(self, other):
                return isinstance(other, Sym) and other.name == self.name

            def __hash__(self):
                calls.append(self.name)
                return hash(self.name)

        symbols = tuple(Sym(c) for c in "abcd")
        a = Alphabet(symbols)
        built = len(calls)
        for _ in range(3):
            hash(a)
        assert len(calls) == built
        w = Word(symbols[:1], a)
        before = len(calls)
        hash(w)
        assert len(calls) == before + 1  # the word's own symbol, not the alphabet's
        b = Alphabet(tuple(Sym(c) for c in "abcd"))
        assert a == b and hash(a) == hash(b) == hash(symbols)
        assert a != Alphabet(tuple(Sym(c) for c in "abdc"))


class TestWord:
    def test_text_round_trip(self):
        w = Word.from_text("0110", BIN)
        assert w.render() == "0110"
        assert str(w) == "0110"
        assert len(w) == 4
        assert w[0] == "0" and w[3] == "0"
        assert list(w) == ["0", "1", "1", "0"]

    def test_empty_word(self):
        e = Word.empty(BIN)
        assert len(e) == 0
        assert e.render() == ""

    def test_symbols_outside_alphabet_rejected(self):
        with pytest.raises(AlphabetError):
            Word.from_text("012", BIN)

    def test_sub_concat_reverse(self):
        w = Word.from_text("0110", BIN)
        assert w.sub(1, 3).render() == "11"
        assert w.concat(Word.from_text("01", BIN)).render() == "011001"
        assert w.reverse().render() == "0110"
        assert Word.from_text("001", BIN).reverse().render() == "100"

    def test_concat_requires_same_alphabet(self):
        other = Alphabet.from_text("ab")
        with pytest.raises(AlphabetError):
            Word.from_text("0", BIN).concat(Word.from_text("a", other))

    def test_lexicographic_key_follows_alphabet_order(self):
        a = Alphabet.from_text("ba")
        w = Word.from_text("ab", a)
        assert w.key() == (1, 0)


class TestFactors:
    def test_prefix_suffix(self):
        w = Word.from_text("0110", BIN)
        assert prefix(w, 2).render() == "01"
        assert suffix(w, 2).render() == "10"
        assert prefix(w, 0).render() == ""
        assert suffix(w, 4).render() == "0110"
        with pytest.raises(ValueError):
            prefix(w, 5)
        with pytest.raises(ValueError):
            suffix(w, -1)


class TestBlockCoding:
    def test_block_alphabet_is_lexicographic(self):
        blocks = block_alphabet(BIN, 2)
        assert blocks.symbols == (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))
        assert len(block_alphabet(BIN, 3)) == 8

    def test_block_alphabet_guards(self):
        with pytest.raises(ValueError):
            block_alphabet(BIN, 0)
        with pytest.raises(ResourceLimitError, match="needs 2097152 symbols, limit 1048576"):
            block_alphabet(BIN, 21)  # 2**21 exceeds the size limit

    def test_coding_windows_in_order(self):
        w = Word.from_text("0110", BIN)
        coded = n_coding(w, 2)
        assert coded.symbols == (("0", "1"), ("1", "1"), ("1", "0"))
        assert len(coded) == len(w) - 1
        assert coded.render() == "(01)(11)(10)"

    def test_coding_shorter_than_window_is_empty(self):
        assert len(n_coding(Word.from_text("0", BIN), 2)) == 0
        with pytest.raises(ValueError):
            n_coding(Word.from_text("0", BIN), 0)

    def test_coding_preserves_counts(self):
        rng = random.Random(202)
        for _ in range(100):
            text = "".join(rng.choice("01") for _ in range(rng.randint(2, 25)))
            n = rng.randint(1, 3)
            pat = "".join(rng.choice("01") for _ in range(n))
            w = Word.from_text(text, BIN)
            coded = n_coding(w, n)
            assert brute_count(coded.symbols, (tuple(pat),)) == brute_count(text, pat)

    def test_recast(self):
        bigger = Alphabet.from_text("012")
        w = recast(Word.from_text("01", BIN), bigger)
        assert w.alphabet == bigger
        with pytest.raises(AlphabetError):
            recast(Word.from_text("2", Alphabet.from_text("2")), BIN)


class TestRendering:
    def test_tuple_symbols_render_with_parentheses(self):
        assert render_symbol(("0", "1")) == "(01)"
        assert render_symbol("a") == "a"
        assert render_symbol((("0", "1"), ("1", "1"))) == "((01)(11))"


class TestSorting:
    def test_sort_by_length_then_lex(self):
        ws = [Word.from_text(t, BIN) for t in ["10", "0", "1", "01", "", "00"]]
        assert [w.render() for w in sort_words(ws)] == ["", "0", "1", "00", "01", "10"]


# The immutable value classes: a factory for two equal objects, and the one
# field read by hand (the rest are checked through _fields).
RECORDS = {
    "Alphabet": lambda: Alphabet(("0", "1")),
    "Word": lambda: Word(("0", "1", "1"), Alphabet.from_text("01")),
    "FrequencyVector": lambda: FrequencyVector(
        Alphabet.from_text("01"), (Fraction(1, 3), Fraction(2, 3)), mode="perron"
    ),
    "LanguageSample": lambda: sample_level_language(parse_directive("|M"), 0, 6),
}


def twin(x):
    """x's fields in an instance of a subclass, built without __init__."""
    y = object.__new__(type("Twin", (type(x),), {}))
    y.__dict__.update(x.__dict__)
    return y


@pytest.mark.parametrize("make", list(RECORDS.values()), ids=list(RECORDS))
class TestRecordSemantics:
    def test_equal_values_give_equal_objects_and_hashes(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert pickle.loads(pickle.dumps(a)) == a

    def test_hash_and_repr_follow_the_fields(self, make):
        x = make()
        values = tuple(getattr(x, name) for name in x._fields)
        # The same hashes and reprs as frozen dataclasses with these fields;
        # an Alphabet hashes as its symbols (cached).
        assert hash(x) == (hash(x.symbols) if isinstance(x, Alphabet) else hash(values))
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(x._fields, values))
        assert repr(x) == f"{type(x).__name__}({fields})"

    def test_assignment_and_deletion_raise(self, make):
        x = make()
        before = dict(vars(x))
        for name in x._fields + ("unknown",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert vars(x) == before

    def test_two_classes_never_compare_equal(self, make):
        x = make()
        y = twin(x)
        assert x.__eq__(y) is NotImplemented
        assert x != y and y != x
        assert x != tuple(getattr(x, name) for name in x._fields)
        assert all(x != other() for name, other in RECORDS.items() if name != type(x).__name__)


class TestRecordFields:
    def test_fields_are_the_constructor_arguments(self):
        assert {name: make()._fields for name, make in RECORDS.items()} == {
            "Alphabet": ("symbols",),
            "Word": ("symbols", "alphabet"),
            "FrequencyVector": ("alphabet", "values", "mode"),
            "LanguageSample": ("alphabet", "level", "max_length", "codes", "meta"),
        }

    def test_words_over_two_alphabets_differ(self):
        w = Word(("0", "1"), Alphabet.from_text("01"))
        v = Word(("0", "1"), Alphabet.from_text("012"))
        assert w != v
        assert hash(w) == hash((w.symbols, w.alphabet)) != hash(w.symbols)

    def test_alphabets_in_another_order_differ(self):
        assert Alphabet.from_text("01") != Alphabet.from_text("10")

    def test_frequency_vectors_differ_by_mode(self):
        values = (Fraction(1, 2), Fraction(1, 2))
        assert FrequencyVector(BIN, values) != FrequencyVector(BIN, values, mode="perron")
        assert FrequencyVector(BIN, values).mode == "given"

    def test_language_sample_words_are_decoded_once(self, monkeypatch):
        decoded = []
        real = language._decode
        monkeypatch.setattr(language, "_decode", lambda s, a: decoded.append(s) or real(s, a))
        sample = sample_level_language(parse_directive("|M"), 0, 6)
        fresh = sample_level_language(parse_directive("|M"), 0, 6)
        words = sample.words
        assert sorted(decoded) == sorted(sample.codes)
        assert sample.words is words and len(decoded) == len(sample.codes)
        # Decoded words are a cache, not a field.
        assert "words" not in sample._fields
        assert sample == fresh and hash(sample) == hash(fresh)
