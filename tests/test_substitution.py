"""Substitutions, incidence matrices, and induced block substitutions."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordbalance.exactmat import mat_mul
from wordbalance.substitution import (
    BlockCodingError,
    Substitution,
    SubstitutionError,
    coding_identity_sides,
    compose,
    incidence_counts,
    induced_block_substitution,
    properness_profile,
    window_bound,
)
from wordbalance.words import (
    Alphabet,
    AlphabetError,
    Word,
    block_alphabet,
    n_coding,
    prefix,
    sort_words,
    suffix,
)

BIN = Alphabet.from_text("01")
L = Substitution.from_text("0->0;1->10")
M = Substitution.from_text("0->01;1->10")
R = Substitution.from_text("0->01;1->1")


def binary_words(min_len, max_len):
    for n in range(min_len, max_len + 1):
        for tup in product("01", repeat=n):
            yield Word.from_text("".join(tup), BIN)


class TestParsing:
    def test_round_trip(self):
        assert Substitution.from_text(L.to_text()) == L
        assert L.to_text() == "0->0;1->10"

    def test_whitespace_ignored(self):
        assert Substitution.from_text(" 0 -> 01 ;\n1->10 ") == M

    def test_codomain_defaults_to_appearance_order(self):
        s = Substitution.from_text("0->ab;1->ba")
        assert s.domain.symbols == ("0", "1")
        assert s.codomain.symbols == ("0", "1", "a", "b")

    def test_erasing_image_allowed(self):
        s = Substitution.from_text("0->;1->0")
        assert len(s.image("0")) == 0
        assert not s.is_non_erasing()
        assert s.min_image_len() == 0 and s.norm() == 1

    def test_malformed_rejected(self):
        for bad in ["", ";;", "0:01", "01->0", "0->0;0->1"]:
            with pytest.raises(SubstitutionError):
                Substitution.from_text(bad)

    def test_constructor_guards(self):
        with pytest.raises(SubstitutionError):
            Substitution(BIN, BIN, {"0": Word.from_text("0", BIN)})
        with pytest.raises(SubstitutionError):
            Substitution(
                Alphabet.from_text("0"),
                BIN,
                {"0": Word.from_text("0", BIN), "1": Word.from_text("1", BIN)},
            )
        other = Alphabet.from_text("ab")
        with pytest.raises(SubstitutionError):
            Substitution(
                BIN, BIN,
                {"0": Word.from_text("a", other), "1": Word.from_text("b", other)},
            )


class TestApplication:
    def test_apply_concatenates_images(self):
        assert M.apply(Word.from_text("011", BIN)).render() == "011010"
        assert L.apply(Word.empty(BIN)).render() == ""

    def test_apply_requires_domain_word(self):
        with pytest.raises(AlphabetError):
            M.apply(Word.from_text("a", Alphabet.from_text("a")))

    def test_identity(self):
        ident = Substitution.identity(BIN)
        assert ident.is_identity()
        assert not M.is_identity()

    def test_norms(self):
        assert L.norm() == 2 and L.min_image_len() == 1
        assert M.norm() == 2 and R.min_image_len() == 1


class TestComposition:
    def test_inner_applied_first(self):
        lm = compose(L, M)
        assert lm.image("0").render() == "010"  # L(M(0)) = L(01)
        assert lm.image("1").render() == "100"  # L(M(1)) = L(10)

    def test_chain_mismatch_rejected(self):
        t = Substitution.from_text("a->ab;b->a")
        with pytest.raises(SubstitutionError):
            compose(L, t)

    def test_incidence_multiplicativity(self):
        got = incidence_counts(compose(L, M))
        want = mat_mul(incidence_counts(L), incidence_counts(M))
        assert got == want


class TestIncidence:
    def test_builtin_family_tables(self):
        assert incidence_counts(L) == [[1, 1], [0, 1]]
        assert incidence_counts(M) == [[1, 1], [1, 1]]
        assert incidence_counts(R) == [[1, 0], [1, 1]]

    def test_labels_are_letters(self):
        # Row i counts the i-th codomain letter, column j is the image of
        # the j-th domain letter.
        s = Substitution.from_text("0->ba;1->bbb")
        assert s.codomain.symbols == ("0", "1", "b", "a")
        assert incidence_counts(s) == [[0, 0], [0, 0], [1, 3], [1, 0]]

    def test_non_endomorphism_shape(self):
        s = Substitution.from_text("0->ab;1->ba")
        m = incidence_counts(s)
        assert (len(m), len(m[0])) == (4, 2)


class TestProperness:
    def test_builtin_profiles(self):
        pl = properness_profile(L)
        assert (pl.left_proper, pl.right_proper, pl.common_last) == (False, True, "0")
        pm = properness_profile(M)
        assert (pm.left_proper, pm.right_proper) == (False, False)
        pr = properness_profile(R)
        assert (pr.left_proper, pr.right_proper, pr.common_last) == (False, True, "1")

    def test_left_proper_example(self):
        s = Substitution.from_text("0->01;1->011")
        p = properness_profile(s)
        assert p.left_proper and p.common_first == "0"

    def test_erasing_images_are_never_proper(self):
        s = Substitution.from_text("0->;1->0")
        p = properness_profile(s)
        assert not p.left_proper and not p.right_proper


class TestWindowBound:
    def test_known_bounds(self):
        eps = Word.empty(BIN)
        blocks2 = tuple(Word.from_text(t, BIN) for t in ("00", "01", "10", "11"))
        blocks1 = tuple(Word.from_text(t, BIN) for t in ("0", "1"))
        assert window_bound(M, 2, eps, blocks2) == 3
        assert window_bound(L, 2, eps, blocks2) == 2
        assert window_bound(L, 1, eps, blocks1) == 1
        anchor = Word.from_text("0", BIN)
        assert window_bound(L, 2, anchor, blocks2) == 3


class TestInducedBlockSubstitution:
    def test_doubling_two_block_table(self):
        bs = induced_block_substitution(M, 2, 2, Word.empty(BIN))
        sub = bs.substitution
        table = {
            "".join(b): tuple("".join(s) for s in sub.image(b).symbols)
            for b in sub.domain.symbols
        }
        assert table == {
            "00": ("01", "10"),
            "01": ("01", "11"),
            "10": ("10", "00"),
            "11": ("10", "01"),
        }
        assert bs.window_bound == 3
        assert bs.side == "prefix"
        assert tuple(map(tuple, incidence_counts(sub))) == (
            (0, 0, 1, 0),
            (1, 1, 0, 1),
            (1, 0, 1, 1),
            (0, 1, 0, 0),
        )

    def test_prefix_image_length_is_first_letter_image(self):
        bs = induced_block_substitution(R, 2, 2, Word.empty(BIN))
        for b in bs.substitution.domain.symbols:
            assert len(bs.substitution.image(b)) == len(R.image(b[0]))

    def test_suffix_image_length_is_last_letter_image(self):
        anchor = Word.from_text("1", BIN)
        bs = induced_block_substitution(R, 2, 2, anchor, side="suffix")
        for b in bs.substitution.domain.symbols:
            assert len(bs.substitution.image(b)) == len(R.image(b[-1]))

    def test_window_out_of_range_reports_bound(self):
        with pytest.raises(BlockCodingError, match=r"\[1, 3\]"):
            induced_block_substitution(M, 2, 4, Word.empty(BIN))
        with pytest.raises(BlockCodingError):
            induced_block_substitution(M, 2, 0, Word.empty(BIN))

    def test_invalid_anchor_rejected(self):
        with pytest.raises(BlockCodingError):
            induced_block_substitution(M, 2, 2, Word.from_text("0", BIN))
        with pytest.raises(BlockCodingError):
            induced_block_substitution(L, 2, 2, Word.from_text("0", BIN), side="prefix")

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            induced_block_substitution(M, 0, 1, Word.empty(BIN))
        with pytest.raises(ValueError):
            induced_block_substitution(M, 2, 2, Word.empty(BIN), side="middle")
        with pytest.raises(AlphabetError):
            induced_block_substitution(
                M, 2, 2, Word.from_text("a", Alphabet.from_text("a"))
            )

    def test_restricted_domain_blocks(self):
        blocks = [Word.from_text("00", BIN), Word.from_text("10", BIN)]
        bs = induced_block_substitution(
            L, 2, 2, Word.from_text("0", BIN), side="suffix", domain_blocks=blocks
        )
        assert len(bs.substitution.domain) == 2
        coded = n_coding(Word.from_text("100", BIN), 2)
        assert bs.apply_to_coding(coded)  # both blocks admissible
        bad = n_coding(Word.from_text("011", BIN), 2)
        with pytest.raises(AlphabetError):
            bs.apply_to_coding(bad)

    def test_restricted_domain_guards(self):
        with pytest.raises(ValueError):
            induced_block_substitution(
                M, 2, 2, Word.empty(BIN), domain_blocks=[Word.from_text("0", BIN)]
            )
        with pytest.raises(BlockCodingError):
            induced_block_substitution(M, 2, 2, Word.empty(BIN), domain_blocks=[])


class TestCodingIdentity:
    def test_prefix_identity_exhaustive_small(self):
        bs = induced_block_substitution(M, 2, 2, Word.empty(BIN))
        for w in binary_words(1, 6):
            lhs, rhs = coding_identity_sides(bs, w)
            assert lhs == rhs

    def test_suffix_identity_exhaustive_small(self):
        anchor = Word.from_text("0", BIN)
        bs = induced_block_substitution(L, 2, 2, anchor, side="suffix")
        for w in binary_words(1, 6):
            lhs, rhs = coding_identity_sides(bs, w)
            assert lhs == rhs

    def test_single_letter_blocks(self):
        bs = induced_block_substitution(R, 1, 1, Word.empty(BIN))
        for w in binary_words(0, 5):
            lhs, rhs = coding_identity_sides(bs, w)
            assert lhs == rhs

    def test_word_shorter_than_context_rejected(self):
        bs = induced_block_substitution(M, 2, 2, Word.empty(BIN))
        with pytest.raises(ValueError):
            coding_identity_sides(bs, Word.empty(BIN))


def reference_block_lifting(sigma, n, m, anchor, side="prefix", domain_blocks=None):
    """The Word-based block lifting, kept as an oracle: every block, context
    and image is a checked Word. Returns (window bound, domain blocks,
    lifted substitution)."""
    if side not in ("prefix", "suffix"):
        raise ValueError(f"side must be 'prefix' or 'suffix', got {side!r}")
    if n < 1:
        raise ValueError("input block length must be >= 1")
    if anchor.alphabet != sigma.codomain:
        raise AlphabetError("anchor must be a word over the codomain")
    if domain_blocks is None:
        blocks = tuple(Word(sym, sigma.domain) for sym in block_alphabet(sigma.domain, n))
    else:
        blocks = tuple(sort_words(set(domain_blocks)))
        for b in blocks:
            if len(b) != n:
                raise ValueError(f"domain block {b.render()!r} does not have length {n}")
            if b.alphabet != sigma.domain:
                raise AlphabetError("domain blocks must be words over the domain")
    if not blocks:
        raise BlockCodingError("empty set of admissible blocks")
    if n == 1:
        contexts = [Word.empty(sigma.domain)]
    else:
        contexts = {prefix(b, n - 1) for b in blocks} | {suffix(b, n - 1) for b in blocks}
    bound = min(len(sigma.apply(w)) for w in contexts) + len(anchor) + 1
    if not 1 <= m <= bound:
        raise BlockCodingError(
            f"output window {m} outside [1, {bound}] for this anchor and block set"
        )
    u = anchor.symbols
    for a in sigma.domain:
        if side == "prefix" and sigma.image(a).concat(anchor).symbols[: len(u)] != u:
            raise BlockCodingError(
                f"anchor {anchor.render()!r} is not a prefix of every sigma(a)u"
            )
        us = anchor.concat(sigma.image(a)).symbols
        if side == "suffix" and us[len(us) - len(u) :] != u:
            raise BlockCodingError(
                f"anchor {anchor.render()!r} is not a suffix of every u sigma(a)"
            )
    if side == "suffix":
        sigma = Substitution(
            sigma.domain, sigma.codomain, {a: w.reverse() for a, w in sigma.images.items()}
        )
        anchor = anchor.reverse()
    out_alpha = block_alphabet(sigma.codomain, m)
    images = {}
    for b in blocks:
        read = b.reverse() if side == "suffix" else b
        head = sigma.image(read[0])
        tail = sigma.apply(read.sub(1, n)).concat(anchor)
        stretched = head.concat(prefix(tail, m - 1))
        coded = n_coding(stretched, m).symbols
        if side == "suffix":
            coded = tuple(tuple(reversed(t)) for t in reversed(coded))
        images[b.symbols] = Word(coded, out_alpha)
    domain = Alphabet(tuple(b.symbols for b in blocks))
    return bound, blocks, Substitution(domain, out_alpha, images)


PAIR = Alphabet((("x", 0), ("y", 1)))  # tuple symbols, as block letters are
LIFTING_ALPHABETS = (Alphabet.from_text("ab"), Alphabet.from_text("abc"), PAIR)


@st.composite
def lifting_cases(draw):
    dom = draw(st.sampled_from(LIFTING_ALPHABETS))
    cod = draw(st.sampled_from(LIFTING_ALPHABETS))
    side = draw(st.sampled_from(["prefix", "suffix"]))
    letters = st.lists(st.sampled_from(cod.symbols), max_size=3)
    anchor = Word(tuple(draw(st.lists(st.sampled_from(cod.symbols), max_size=2))), cod)
    images = {}
    for a in dom:
        extra = tuple(draw(letters))
        # Mostly images that satisfy the anchor condition, sometimes not.
        glued = draw(st.integers(0, 3))
        if glued:
            extra = anchor.symbols + extra if side == "prefix" else extra + anchor.symbols
        images[a] = Word(extra, cod)
    sigma = Substitution(dom, cod, images)
    n = draw(st.integers(1, 3))
    domain_blocks = None
    if draw(st.booleans()):
        all_blocks = [Word(b, dom) for b in block_alphabet(dom, n)]
        domain_blocks = draw(st.lists(st.sampled_from(all_blocks), max_size=5))
    m = draw(st.integers(0, 5))
    return sigma, n, m, anchor, side, domain_blocks


def refusal(build, case):
    """The exception type and message that build(*case) raises, or None."""
    try:
        build(*case)
    except (BlockCodingError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return None


class TestLiftingOracle:
    @given(lifting_cases())
    def test_matches_the_word_based_construction(self, case):
        want = refusal(reference_block_lifting, case)
        assert refusal(induced_block_substitution, case) == want
        if want is not None:
            return
        bound, blocks, lifted = reference_block_lifting(*case)
        got = induced_block_substitution(*case)
        assert (got.window_bound, got.domain_blocks, got.substitution) == (bound, blocks, lifted)
        assert got.substitution.images == lifted.images
        sigma, n, _, anchor, _, _ = case
        assert window_bound(sigma, n, anchor, blocks) == bound
        assert window_bound(sigma, n, anchor, tuple(b.symbols for b in blocks)) == bound

    def test_inadmissible_block_is_refused(self):
        blocks = [Word.from_text("00", BIN), Word.from_text("01", BIN)]
        bs = induced_block_substitution(M, 2, 2, Word.empty(BIN), domain_blocks=blocks)
        assert bs.apply_to_coding(n_coding(Word.from_text("001", BIN), 2))
        with pytest.raises(AlphabetError, match=r"symbol \('1', '1'\) not in alphabet"):
            bs.apply_to_coding(n_coding(Word.from_text("011", BIN), 2))
