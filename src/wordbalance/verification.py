"""Self-verification suite: every check recomputes a mathematical fact.

Each check regenerates its objects from scratch, compares them against
frozen expectations or against bounds that hold for arbitrary
factorial languages (finite samples included), and reports a CheckResult
with JSON-native details. Randomized checks use a fixed seed, so the whole
suite is deterministic. The EXPECTED_* constants double as fault-injection
targets: tampering with any of them must turn the suite red. A reference
construction that only one check uses is defined next to that check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import report as report_mod
from .balance import (
    balance_report,
    coarsening_bound,
    decompose_pair_in_image,
    frequency_vector,
    image_letter_bound,
    image_window_bound_constant,
    imbalance,
    lift_frequency,
    pair_tail_bound,
    perron_frequency,
)
from .exactmat import eigencheck, integer_eigenvalues, mat_mul, mat_vec
from .language import (
    SUB_M,
    LanguageSample,
    _code_closure,
    _decode,
    _image_table,
    _letter_codes,
    factorial_closure,
    is_everywhere_growing,
    is_factorial,
    parse_directive,
    sample_level_language,
)
from .scan import (
    _occurrence_indicator,
    level_scan_texts,
    window_imbalance_curve,
    window_spreads,
)
from .substitution import (
    BlockSubstitution,
    Substitution,
    coding_identity_sides,
    incidence_counts,
    induced_block_substitution,
)
from .tms import (
    BINARY,
    BLOCK_EIGENPAIRS,
    block_abelianization,
    builtin,
    classify,
    composition,
    factor_spans,
    imbalance_milestones,
    witness_pair,
    witness_strings,
)
from .words import Alphabet, Word, n_coding

if TYPE_CHECKING:
    import numpy as np

SEED = 20260816

_BLOCK_ORDER = ("00", "01", "10", "11")
# The blocks in the letter codes that level_scan_texts spells its texts in.
_BLOCK_CODES = tuple(b.translate(str.maketrans(_letter_codes(BINARY))) for b in _BLOCK_ORDER)

# ---------------------------------------------------------------------------
# Frozen expectations. These are the tamper targets for fault injection:
# every value below is recomputed from scratch by its check.
# ---------------------------------------------------------------------------

EXPECTED_BLOCK_TABLE: Dict[str, Tuple[str, ...]] = {
    "00": ("01", "10"),
    "01": ("01", "11"),
    "10": ("10", "00"),
    "11": ("10", "01"),
}

EXPECTED_BLOCK_INCIDENCE: Tuple[Tuple[int, ...], ...] = (
    (0, 0, 1, 0),
    (1, 1, 0, 1),
    (1, 0, 1, 1),
    (0, 1, 0, 0),
)

EXPECTED_EIGENPAIRS: Tuple[Tuple[int, Tuple[int, int, int, int]], ...] = (
    (2, (1, 2, 2, 1)),
    (-1, (1, -1, -1, 1)),
    (0, (1, 0, 0, -1)),
    (1, (1, -1, 1, -1)),
)

EXPECTED_WITNESS_PAIR_2: Tuple[str, str] = ("110011", "011010")

# (index, window length, observed scan imbalance)
EXPECTED_SCAN_MILESTONES: Tuple[Tuple[int, int, int], ...] = (
    (1, 6, 2),
    (2, 86, 3),
    (3, 1366, 4),
)

EXPECTED_PERRON: Dict[str, Tuple[Fraction, Fraction]] = {
    "M": (Fraction(1, 2), Fraction(1, 2)),
    "L": (Fraction(1), Fraction(0)),
    "R": (Fraction(0), Fraction(1)),
}


class CheckResult(NamedTuple):
    """Outcome of one verification check, with JSON-native details."""

    check_id: str
    passed: bool
    details: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "check_id": self.check_id,
            "passed": self.passed,
            "details": self.details,
        }


def _frac_str(x) -> Any:
    return report_mod.rational_str(Fraction(x))


def _random_directive_text(rng: random.Random) -> str:
    prefix = "".join(rng.choice("LMR") for _ in range(rng.randint(0, 8)))
    period = "".join(rng.choice("LMR") for _ in range(rng.randint(1, 3)))
    return f"{prefix}|{period}"


def _random_factorial_sample(
    rng: random.Random, alphabet_text: str, max_length: int
) -> LanguageSample:
    alphabet = Alphabet.from_text(alphabet_text)
    words = [
        Word.from_text(
            "".join(rng.choice(alphabet_text) for _ in range(rng.randint(8, 30))),
            alphabet,
        )
        for _ in range(rng.randint(2, 4))
    ]
    return factorial_closure(words, max_length)


def _image_closure(source: LanguageSample, sigma: Substitution) -> LanguageSample:
    """All factors of the images of the source's nonempty words."""
    table = _image_table(sigma)
    images = [s.translate(table) for s in source.codes if s]
    cap = max(map(len, images), default=0)
    return _code_closure(images, cap, sigma.codomain)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def block_substitution() -> BlockSubstitution:
    """The induced action of the doubling substitution on 2-block codings."""
    return induced_block_substitution(SUB_M, 2, 2, Word.empty(BINARY))


def check_block_coding_table() -> CheckResult:
    """The induced 2-block substitution table and its incidence matrix."""
    bs = block_substitution()
    sub = bs.substitution
    table = {
        "".join(b): tuple("".join(s) for s in sub.image(b).symbols)
        for b in sub.domain.symbols
    }
    rows = tuple(map(tuple, incidence_counts(sub)))
    row_labels = tuple("".join(s) for s in sub.codomain.symbols)
    passed = (
        table == EXPECTED_BLOCK_TABLE
        and rows == EXPECTED_BLOCK_INCIDENCE
        and row_labels == _BLOCK_ORDER
    )
    return CheckResult(
        "block-coding-table",
        passed,
        {
            "table": {k: list(v) for k, v in sorted(table.items())},
            "incidence": [list(r) for r in rows],
            "block_order": list(row_labels),
        },
    )


def check_block_eigenpairs() -> CheckResult:
    """All four integer eigenpairs of the block incidence matrix, exactly."""
    mat = incidence_counts(block_substitution().substitution)
    ok_pairs = all(eigencheck(mat, v, lam) for lam, v in BLOCK_EIGENPAIRS)
    spectrum = tuple(sorted(integer_eigenvalues(mat)))
    passed = (
        ok_pairs
        and BLOCK_EIGENPAIRS == EXPECTED_EIGENPAIRS
        and spectrum == (-1, 0, 1, 2)
    )
    return CheckResult(
        "block-eigenpairs",
        passed,
        {
            "eigenpairs": [[lam, list(v)] for lam, v in BLOCK_EIGENPAIRS],
            "integer_spectrum": list(spectrum),
        },
    )


def check_witness_pairs() -> CheckResult:
    """Certified witness pairs: length law, linear drift, membership."""
    drift = dict(BLOCK_EIGENPAIRS)[-1]
    rows = []
    passed = True
    for n in range(1, 5):
        wp = witness_pair(2 * n)
        want_len = (4 ** (2 * n) + 2) // 3
        ok = (
            wp.length == want_len
            and wp.block_difference == tuple(n * v for v in drift)
            and wp.position >= 0
            and wp.position_prime >= 0
        )
        if n == 1:
            ok = ok and (wp.word, wp.word_prime) == EXPECTED_WITNESS_PAIR_2
        passed = passed and ok
        rows.append(
            {
                "n": n,
                "length": wp.length,
                "difference": list(wp.block_difference),
                "certificate_depth": wp.certificate_depth,
                "positions": [wp.position, wp.position_prime],
                "ok": ok,
            }
        )
    return CheckResult("witness-pairs-certified", passed, {"pairs": rows})


def witness_closed_forms(n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Exact block-count vectors of the index-2n witness pair, in closed form.

    Both are rational combinations of the block-incidence eigenvectors for
    eigenvalues 2, -1, 0 that happen to be integral: the dominant
    coefficient (4^{2n}-1)/18 and null coefficient -1/2 are shared, while
    the drift coefficient is 2n/3 for the first word and -n/3 for the
    second, so the pair's difference is n times the drift eigenvector.
    """
    vectors = dict(BLOCK_EIGENPAIRS)
    lead = Fraction(4 ** (2 * n) - 1, 18)
    out = []
    for drift in (Fraction(2 * n, 3), Fraction(-n, 3)):
        vec = tuple(
            lead * a + drift * b - Fraction(1, 2) * c
            for a, b, c in zip(vectors[2], vectors[-1], vectors[0])
        )
        if any(v.denominator != 1 for v in vec):
            raise RuntimeError("closed form is not integral")
        out.append(tuple(int(v) for v in vec))
    return out[0], out[1]


def check_witness_closed_forms() -> CheckResult:
    """Closed-form block counts equal direct recounts for n = 1..4."""
    rows = []
    passed = True
    for n in range(1, 5):
        w, wprime = witness_strings(2 * n)
        direct = (block_abelianization(w), block_abelianization(wprime))
        formula = witness_closed_forms(n)
        ok = direct == formula
        passed = passed and ok
        rows.append(
            {
                "n": n,
                "counts": list(direct[0]),
                "counts_prime": list(direct[1]),
                "ok": ok,
            }
        )
    return CheckResult("witness-closed-forms", passed, {"rows": rows})


def block_recursion_checks(index_max: int) -> List[dict]:
    """Verify the block-coding recursions of the witness words.

    For the 2-codings under the squared induced block substitution:
    squared(code(w_k)) framed by (01)(11) / (10)(00) reproduces code(w_{k+1})
    shifted by one block, and squared(code(w'_k)) equals code(w'_{k+1}) with
    a two-letter block appended.
    """
    sub = block_substitution().substitution

    def code(s: str) -> Word:
        return Word(n_coding(Word.from_text(s, BINARY), 2).symbols, sub.domain)

    def blocks(*pairs: str) -> Word:
        return Word(tuple(tuple(p) for p in pairs), sub.codomain)

    results = []
    for k in range(1, index_max + 1):
        wk, wpk = witness_strings(k)
        wk1, wpk1 = witness_strings(k + 1)
        sq = sub.apply(sub.apply(code(wk)))
        sqp = sub.apply(sub.apply(code(wpk)))
        if k % 2 == 1:
            lhs = sq.concat(blocks("01", "11"))
            rhs = blocks("01").concat(code(wk1))
            tail = blocks("10")
        else:
            lhs = sq.concat(blocks("10", "00"))
            rhs = blocks("10").concat(code(wk1))
            tail = blocks("01")
        results.append(
            {
                "index": k,
                "word_recursion": lhs == rhs,
                "prime_recursion": sqp.concat(tail) == code(wpk1),
            }
        )
    return results


def check_witness_block_recursions() -> CheckResult:
    """Framed 2-coding recursions and abelian recursions of the witnesses."""
    rows = block_recursion_checks(5)
    coding_ok = all(r["word_recursion"] and r["prime_recursion"] for r in rows)

    mat = incidence_counts(block_substitution().substitution)
    sq = mat_mul(mat, mat)
    unit = {
        "00": (1, 0, 0, 0),
        "01": (0, 1, 0, 0),
        "10": (0, 0, 1, 0),
        "11": (0, 0, 0, 1),
    }
    abelian_ok = True
    for k in range(1, 6):
        w, wprime = witness_strings(k)
        w1, wprime1 = witness_strings(k + 1)
        add_w = unit["11"] if k % 2 == 1 else unit["00"]
        add_p = unit["10"] if k % 2 == 1 else unit["01"]
        lhs_w = tuple(
            x + y
            for x, y in zip(mat_vec(sq, block_abelianization(w)), add_w)
        )
        lhs_p = tuple(
            x + y
            for x, y in zip(mat_vec(sq, block_abelianization(wprime)), add_p)
        )
        if lhs_w != block_abelianization(w1):
            abelian_ok = False
        if lhs_p != block_abelianization(wprime1):
            abelian_ok = False
    passed = coding_ok and abelian_ok
    return CheckResult(
        "witness-block-recursions",
        passed,
        {"coding_recursions": rows, "abelian_recursions_ok": abelian_ok},
    )


def check_scan_milestones() -> CheckResult:
    """Window scans at the witness lengths: growing, certified imbalance."""
    ms = imbalance_milestones()
    observed = tuple((i, w.window_len, w.imbalance) for i, w in ms)
    values = [w.imbalance for _, w in ms]
    passed = (
        observed == EXPECTED_SCAN_MILESTONES
        and all(w.imbalance >= i for i, w in ms)
        and all(a < b for a, b in zip(values, values[1:]))
    )
    return CheckResult(
        "witness-scan-milestones",
        passed,
        {
            "milestones": [
                {
                    "index": i,
                    "window_len": w.window_len,
                    "imbalance": w.imbalance,
                    "pattern": w.pattern,
                }
                for i, w in ms
            ]
        },
    )


def check_letter_balance_sweep() -> CheckResult:
    """Letter imbalance <= 2 across 50 random directives (cap 200 windows)."""
    rng = random.Random(SEED)
    directives = []
    seen = set()
    while len(directives) < 50:
        text = _random_directive_text(rng)
        if text in seen:
            continue
        seen.add(text)
        directives.append(text)
    worst = 0
    worst_directive = None
    passed = True
    for text in directives:
        d = parse_directive(text)
        windows = range(1, 201)
        texts, _, stops = level_scan_texts(d, min_chars=4800, clip=20000, window_lens=windows)
        spreads = window_spreads(texts, list(_letter_codes(BINARY).values()), windows, stops=stops)
        spread = max(spreads.values(), default=0)
        if spread > worst:
            worst, worst_directive = spread, text
        if spread > 2:
            passed = False
    return CheckResult(
        "letter-balance-sweep",
        passed,
        {
            "directives": len(directives),
            "window_cap": 200,
            "max_spread": worst,
            "max_spread_directive": worst_directive,
        },
    )


def check_coding_identity_randomized() -> CheckResult:
    """The block-coding exchange identity on 1000 random instances."""
    rng = random.Random(SEED + 1)
    total, per_side = 0, {"prefix": 0, "suffix": 0}
    passed = True
    alphabets = [Alphabet.from_text("ab"), Alphabet.from_text("abc")]
    for i in range(1000):
        side = "prefix" if i % 2 == 0 else "suffix"
        dom = rng.choice(alphabets)
        cod = rng.choice(alphabets)
        anchor = Word.from_text(
            "".join(rng.choice(cod.symbols) for _ in range(rng.randint(0, 2))), cod
        )
        images = {}
        for a in dom.symbols:
            extra = "".join(rng.choice(cod.symbols) for _ in range(rng.randint(0, 3)))
            if side == "prefix":
                images[a] = anchor.concat(Word.from_text(extra, cod))
            else:
                images[a] = Word.from_text(extra, cod).concat(anchor)
        sigma = Substitution(dom, cod, images)
        n = rng.randint(1, 3)
        m = rng.randint(1, len(anchor) + 1)
        w = Word.from_text(
            "".join(rng.choice(dom.symbols) for _ in range(rng.randint(max(n - 1, 0), 8))),
            dom,
        )
        bs = induced_block_substitution(sigma, n, m, anchor, side=side)
        lhs, rhs = coding_identity_sides(bs, w)
        pivot = 0 if side == "prefix" else -1
        img_len_ok = all(
            len(bs.substitution.image(b)) == len(sigma.image(b[pivot]))
            for b in bs.substitution.domain.symbols
        )
        if lhs != rhs or not img_len_ok:
            passed = False
            break
        total += 1
        per_side[side] += 1
    return CheckResult(
        "block-coding-identity-randomized",
        passed,
        {"instances": total, "prefix_anchored": per_side["prefix"], "suffix_anchored": per_side["suffix"]},
    )


def check_coarsening_bound() -> CheckResult:
    """Empirical constants obey the length-coarsening inequality."""
    rng = random.Random(SEED + 2)
    samples = [
        ("tm", sample_level_language(parse_directive("|M"), 0, 10)),
        ("left-sturmian", sample_level_language(parse_directive("|L"), 0, 12)),
        ("right-sturmian", sample_level_language(parse_directive("|R"), 0, 12)),
        ("random-binary", _random_factorial_sample(rng, "01", 12)),
        ("random-binary-2", _random_factorial_sample(rng, "01", 12)),
        ("random-ternary", _random_factorial_sample(rng, "abc", 12)),
    ]
    rows = []
    passed = True
    for name, sample in samples:
        size = len(sample.alphabet.symbols)
        # One report sorts the sample once for all four factor lengths.
        cs = {e.factor_length: e.empirical_c for e in balance_report(sample, 4)}
        ok = all(
            cs[k] <= coarsening_bound(cs[n], n, k, size)
            for n in range(2, 5)
            for k in range(1, n)
        )
        passed = passed and ok
        rows.append({"sample": name, "constants": [cs[n] for n in range(1, 5)], "ok": ok})
    return CheckResult("coarsening-bound", passed, {"samples": rows})


def check_pair_decomposition_bound() -> CheckResult:
    """Joint decompositions meet the head+tail length bound (valid for any
    finite factorial sample with its exact letter constant)."""
    rng = random.Random(SEED + 3)
    sources = [
        ("tm", sample_level_language(parse_directive("|M"), 0, 8)),
        ("left-sturmian", sample_level_language(parse_directive("|L"), 0, 10)),
    ]
    pairs_checked = 0
    passed = True
    worst_margin = None
    for name, source in sources:
        c_1 = imbalance(source, 1).empirical_c
        size = len(source.alphabet.symbols)
        for s_name in ("L", "M", "R"):
            sigma = builtin(s_name)
            closure = _image_closure(source, sigma)
            bound = pair_tail_bound(c_1, size, sigma.norm())
            by_len = closure.classes
            lengths = [n for n, ws in by_len.items() if n >= 2 and len(ws) >= 2]
            for _ in range(40):
                if not lengths:
                    break
                n = rng.choice(lengths)
                w, w2 = (_decode(s, closure.alphabet) for s in rng.sample(by_len[n], 2))
                d1, d2 = decompose_pair_in_image(w, w2, sigma, source)
                if d1.reassemble(sigma) != w or d2.reassemble(sigma) != w2:
                    passed = False
                if len(d1.core) != len(d2.core):
                    passed = False
                tails = max(
                    len(d1.head) + len(d1.tail), len(d2.head) + len(d2.tail)
                )
                if tails > bound:
                    passed = False
                margin = bound - tails
                if worst_margin is None or margin < worst_margin:
                    worst_margin = margin
                pairs_checked += 1
    return CheckResult(
        "pair-decomposition-bound",
        passed,
        {"pairs": pairs_checked, "smallest_bound_margin": worst_margin},
    )


def check_image_balance_bounds() -> CheckResult:
    """Images of balanced samples obey the explicit preservation bounds."""
    rng = random.Random(SEED + 4)
    sources = [
        ("tm", sample_level_language(parse_directive("|M"), 0, 8)),
        ("left-sturmian", sample_level_language(parse_directive("|L"), 0, 10)),
        ("random-binary", _random_factorial_sample(rng, "01", 10)),
    ]
    sigmas: List[Tuple[str, Substitution]] = [
        (name, builtin(name)) for name in ("L", "M", "R")
    ]
    for _ in range(3):
        a, b = rng.choice("LMR"), rng.choice("LMR")
        sigmas.append((a + b, composition(a + b)))
    rows = []
    passed = True
    for src_name, source in sources:
        size = len(source.alphabet.symbols)
        c_1, c_2 = (e.empirical_c for e in balance_report(source, 2))
        for s_name, sigma in sigmas:
            closure = _image_closure(source, sigma)
            letter_bound = image_letter_bound(c_1, size, sigma.norm())
            img_c1, img_c2 = (e.empirical_c for e in balance_report(closure, 2))
            ok = img_c1 <= letter_bound
            window_bound_c = image_window_bound_constant(c_1, c_2, 2, size, sigma.norm())
            ok = ok and img_c2 <= window_bound_c
            passed = passed and ok
            rows.append(
                {
                    "source": src_name,
                    "substitution": s_name,
                    "image_letter_imbalance": img_c1,
                    "letter_bound": letter_bound,
                    "image_window2_imbalance": img_c2,
                    "window2_bound": window_bound_c,
                    "ok": ok,
                }
            )
    return CheckResult("image-balance-bounds", passed, {"cases": rows})


def padded_compositions(depth: int) -> List[Tuple[str, Substitution]]:
    """Compositions of 1..depth factors drawn from {identity, L, M, R}.

    Identity slots (written I) are allowed, so each arity contributes
    4^arity named expressions; many expressions share the same underlying
    substitution. For depth 3 this yields 4 + 16 + 64 = 84 compositions.
    """
    names = ("".join(p) for k in range(1, depth + 1) for p in itertools.product("ILMR", repeat=k))
    return [(name, composition(name.replace("I", ""))) for name in names]


def _span_counts(text: str, pattern: str, lo: "np.ndarray", hi: "np.ndarray") -> "np.ndarray":
    """Occurrences of pattern in text[lo[i] : hi[i]] for each i, read from
    one occurrence prefix sum over text (lo <= hi <= len(text))."""
    import numpy as np

    ind = _occurrence_indicator(text, pattern)
    occ = np.zeros(len(ind) + 1, dtype=np.int64)  # occurrences starting before i
    np.cumsum(ind, dtype=np.int64, out=occ[1:])
    # Clipping lo to len(ind) only touches spans too short to hold pattern.
    lo = np.minimum(lo, len(ind))
    return occ[np.maximum(lo, hi - len(pattern) + 1)] - occ[lo]


def image_pattern_counts(
    sub: Substitution,
    text: str,
    starts: Sequence[int],
    lengths: Sequence[int],
    pattern: str = "011",
) -> "np.ndarray":
    """|sigma(w)|_{sigma(pattern)} for each factor w = text[p : p + n].

    With P[j] = |sigma(text[:j])|, the image sigma(w) is exactly the
    substring sigma(text)[P[p] : P[p + n]], so its occurrences of
    sigma(pattern) are the occurrences in sigma(text) that start in
    [P[p], P[p + n] - |sigma(pattern)|]. One occurrence prefix sum over
    sigma(text) therefore answers every factor in O(1); the text is
    translated once, not once per factor. The domain's symbols must be
    single latin-1 characters, and sigma(pattern) must be nonempty.
    """
    import numpy as np

    table = {ord(a): "".join(sub.image(a).symbols) for a in sub.domain.symbols}
    image_len = np.zeros(256, dtype=np.int64)
    for a, img in table.items():
        image_len[a] = len(img)
    letters = np.frombuffer(text.encode("latin-1"), dtype=np.uint8)
    offsets = np.concatenate([[0], np.cumsum(image_len[letters])])
    starts = np.asarray(starts, dtype=np.int64)
    ends = starts + np.asarray(lengths, dtype=np.int64)
    return _span_counts(
        text.translate(table), pattern.translate(table), offsets[starts], offsets[ends]
    )


def preservation_violations(
    comps: Sequence[Tuple[str, Substitution]],
    text: str,
    starts: Sequence[int],
    lengths: Sequence[int],
) -> Tuple[List[dict], int]:
    """Factors w = text[p : p + n] with |sigma(w)|_{sigma(011)} != |w|_{011},
    for p, n in zip(starts, lengths).

    Image counts come from image_pattern_counts' numpy prefix sums; the
    factor's own count is str.count over text[p : p + n], which shares no
    counting code with them and is exact because 011 has no border, so two
    of its occurrences cannot overlap. Functionally identical compositions
    are evaluated once and the result reused for each expression naming
    them. Returns the violations, one {"composition", "word"} entry per
    pair, and the number of distinct substitutions evaluated.
    """
    import numpy as np

    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    expected = np.fromiter(
        (text.count("011", p, p + n) for p, n in zip(starts, lengths)),
        dtype=np.int64,
        count=len(starts),
    )
    violations: List[dict] = []
    cache: Dict[Substitution, List[str]] = {}
    for name, sub in comps:
        if sub not in cache:
            got = image_pattern_counts(sub, text, starts, lengths)
            bad = np.flatnonzero(got != expected)
            cache[sub] = [text[starts[i] : starts[i] + lengths[i]] for i in bad]
        violations.extend({"composition": name, "word": w} for w in cache[sub])
    return violations, len(cache)


def count_preservation_violations(
    max_word_len: int = 100, composition_depth: int = 3
) -> dict:
    """Check |sigma(w)|_{sigma(011)} = |w|_{011} over Thue-Morse factors.

    The block 111 never occurs in the Thue-Morse language, which forces
    every occurrence of the image of 011 to align with an occurrence of
    011; this holds for every composition of the builtin family (identity
    slots included, via padded_compositions). Returns a summary with any
    violations (expected none); `checked` counts (expression, factor) pairs.

    Every factor w is a substring of the Thue-Morse expansion T whose
    factors were collected, say w = T[p : p + |w|]. Then sigma(w) is the
    substring sigma(T)[P[p] : P[p + |w|]] with P[j] = |sigma(T[:j])|, so
    |sigma(w)|_{sigma(011)} equals the number of occurrences of sigma(011)
    in sigma(T) starting in [P[p], P[p + |w|] - |sigma(011)|], which a
    prefix sum over sigma(T) gives directly (image_pattern_counts).
    """
    starts, lengths, text, depth, stable = factor_spans(max_word_len)
    comps = padded_compositions(composition_depth)
    violations, distinct = preservation_violations(comps, text, starts, lengths)
    return {
        "compositions": len(comps),
        "distinct_substitutions": distinct,
        "factors": len(starts),
        "factor_depth": depth,
        "factor_set_stable": stable,
        "checked": len(comps) * len(starts),
        "violations": violations,
    }


def check_occurrence_preservation() -> CheckResult:
    """Zero violations of the image-count identity over 84 compositions."""
    summary = count_preservation_violations(max_word_len=100, composition_depth=3)
    passed = (
        not summary["violations"]
        and summary["compositions"] == 84
        and summary["factor_set_stable"]
    )
    details = dict(summary)
    details["violations"] = len(summary["violations"])
    return CheckResult("occurrence-preservation", passed, details)


def eleven_count_range(
    text: str, starts: Sequence[int], lengths: Sequence[int]
) -> Tuple[int, int]:
    """Range of |w|_11 - |w|_011 over the factors w = text[p : p + n] of a
    binary text, for p, n in zip(starts, lengths) (expected within [0, 1]).

    Each count is read from one occurrence prefix sum over the text. (0, 0)
    when there is no factor.
    """
    import numpy as np

    if not len(starts):
        return 0, 0
    starts = np.asarray(starts, dtype=np.int64)
    ends = starts + np.asarray(lengths, dtype=np.int64)
    d = _span_counts(text, "11", starts, ends) - _span_counts(text, "011", starts, ends)
    return int(d.min()), int(d.max())


def check_eleven_count_window() -> CheckResult:
    """0 <= |w|_11 - |w|_011 <= 1 over stabilized factors up to length 100."""
    starts, lengths, text, depth, stable = factor_spans(100)
    lo, hi = eleven_count_range(text, starts, lengths)
    passed = stable and 0 <= lo and hi <= 1
    return CheckResult(
        "eleven-count-window",
        passed,
        {"factors": len(starts), "depth": depth, "range": [lo, hi]},
    )


def check_classifier_sweep() -> CheckResult:
    """Exhaustive periods of length <= 3: verdicts and curve consistency."""
    periods = []
    for p in range(1, 4):
        level = [""]
        for _ in range(p):
            level = [s + c for s in level for c in "LMR"]
        periods.extend(level)
    rows = []
    passed = True
    for period in periods:
        d = parse_directive("|" + period)
        verdict = classify(d).verdict
        want = "NotFactorBalanced" if set(period) == {"M"} else "FactorBalanced"
        ok = verdict == want
        entry: Dict[str, Any] = {"period": period, "verdict": verdict}
        if set(period) == {"M"}:
            windows = [6, 86, 1366]
            texts, _, stops = level_scan_texts(
                d, min_chars=24 * 1366 + 16, clip=60000, window_lens=windows
            )
            curve = window_imbalance_curve(texts, _BLOCK_CODES, windows, stops=stops)
            vals = [curve[n].imbalance for n in (6, 86, 1366) if n in curve]
            growing = len(vals) == 3 and vals[0] < vals[1] < vals[2]
            ok = ok and growing
            entry["milestones"] = vals
        else:
            windows = range(2, 401)
            texts, _, stops = level_scan_texts(d, min_chars=9600, clip=24000, window_lens=windows)
            spreads = window_spreads(texts, _BLOCK_CODES, windows, stops=stops)
            head = max((v for m, v in spreads.items() if m <= 300), default=0)
            tail = max((v for m, v in spreads.items() if m > 300), default=0)
            ok = ok and tail <= head
            entry["curve_head_max"] = head
            entry["curve_tail_max"] = tail
        entry["ok"] = ok
        passed = passed and ok
        rows.append(entry)
    return CheckResult(
        "classifier-sweep",
        passed,
        {"periods": len(periods), "cases": rows},
    )


def check_frequency_lift() -> CheckResult:
    """Exact lifting through invertible incidence matrices, both routes."""
    swap = Substitution.from_text("0->1;1->0")
    tm = sample_level_language(parse_directive("|M"), 0, 8)
    image = _image_closure(tm, swap)
    f_img = frequency_vector(image)
    lifted = lift_frequency(f_img, swap)
    f_src = frequency_vector(tm)
    swap_ok = lifted.normalized and lifted.values == f_src.values

    sub_l = builtin("L")
    f_perron = perron_frequency(incidence_counts(sub_l), sub_l.codomain.symbols)
    lifted_l = lift_frequency(f_perron, sub_l)
    perron_ok = lifted_l.normalized and lifted_l.values == f_perron.values

    half = frequency_vector(factorial_closure([Word.from_text("010101", BINARY)], 6))
    lifted_half = lift_frequency(half, sub_l)
    example_ok = (
        not lifted_half.normalized
        and lifted_half.total == Fraction(1, 2)
        and lifted_half.values == (Fraction(0), Fraction(1, 2))
    )
    passed = swap_ok and perron_ok and example_ok
    return CheckResult(
        "frequency-lift",
        passed,
        {
            "swap_route_exact": swap_ok,
            "perron_route_exact": perron_ok,
            "non_normalized_example_ok": example_ok,
            "source_frequency": [_frac_str(v) for v in f_src.values],
            "perron_frequency": [_frac_str(v) for v in f_perron.values],
        },
    )


def shared_image_tail(prefix_names: str) -> Word:
    """Common tail w with sigma(01) = 01.w and sigma(10) = 10.w.

    Here sigma is the composition of the named one-sided substitutions
    (L or R only) in directive order, rightmost applied first. Such a
    common tail always exists: both builtins fix the leading block of 01
    and 10 and append the same suffix, and composition preserves that
    shape. Raises if the identity fails (it must never fire).
    """
    if any(name not in ("L", "R") for name in prefix_names):
        raise ValueError("shared-tail identity applies to L/R prefixes only")
    sigma = composition(prefix_names)
    im01 = sigma.apply(Word.from_text("01", BINARY))
    im10 = sigma.apply(Word.from_text("10", BINARY))
    tail01 = im01.sub(2, len(im01))
    tail10 = im10.sub(2, len(im10))
    if (
        im01.sub(0, 2) != Word.from_text("01", BINARY)
        or im10.sub(0, 2) != Word.from_text("10", BINARY)
        or tail01 != tail10
    ):
        raise RuntimeError("shared-tail identity violated")
    return tail01


def check_shared_prefix_tail() -> CheckResult:
    """Common image tail of 01 and 10 for one-sided prefixes."""
    rng = random.Random(SEED + 5)
    prefixes = ["", "L", "R", "LL", "LR", "RL", "RR"]
    for _ in range(40):
        prefixes.append("".join(rng.choice("LR") for _ in range(rng.randint(3, 12))))
    pinned = {"": "", "L": "0", "R": "1"}
    passed = True
    for names in prefixes:
        tail = shared_image_tail(names)
        rendered = tail.render()
        if names in pinned and rendered != pinned[names]:
            passed = False
    return CheckResult(
        "shared-prefix-tail",
        passed,
        {"prefixes": len(prefixes), "pinned": pinned},
    )


def check_image_window_final() -> CheckResult:
    """Window balance of one-step-delayed images of the doubling language.

    For each small composition sigma, the language generated by
    sigma . L . (doubling forever) is balanced for window length
    |sigma(0)| + 1; the sampled imbalance must respect the chain constant
    computed from the letter constants of the doubling language.
    """
    cases = ["", "L", "M", "R", "ML"]
    rows = []
    passed = True
    for names in cases:
        sigma = composition(names)
        sigma_l = composition(names + "L")
        m = len(sigma.apply(Word.from_text("0", BINARY))) + 1
        d = parse_directive(names + "L|M")
        sample = sample_level_language(d, 0, m + 10)
        observed = imbalance(sample, m).empirical_c
        bound = image_window_bound_constant(2, 2, 1, 2, sigma_l.norm())
        ok = observed <= bound
        passed = passed and ok
        rows.append(
            {
                "composition": names or "identity",
                "window": m,
                "observed": observed,
                "bound": bound,
                "ok": ok,
            }
        )
    return CheckResult("image-window-final", passed, {"cases": rows})


def check_sampler_fixed_points() -> CheckResult:
    """Exact sampler outputs equal their independently constructed languages."""
    sl = sample_level_language(parse_directive("|L"), 0, 10)
    expected_l = {""}
    expected_l.update("0" * j for j in range(1, 11))
    expected_l.update("1" + "0" * j for j in range(0, 10))
    got_l = {w.render() for w in sl.words}
    l_ok = sl.meta.exact and got_l == expected_l

    sr = sample_level_language(parse_directive("|R"), 0, 10)
    expected_r = {""}
    expected_r.update("1" * j for j in range(1, 11))
    expected_r.update("0" + "1" * j for j in range(0, 10))
    got_r = {w.render() for w in sr.words}
    r_ok = sr.meta.exact and got_r == expected_r

    sm = sample_level_language(parse_directive("|M"), 0, 8)
    m_ok = (
        sm.meta.exact
        and is_factorial(sm)
        and Word.from_text("110011", BINARY) in sm
        and len(sm) == 93
    )

    sw = sample_level_language(parse_directive("RL|LR"), 0, 8)
    w_ok = (not sw.meta.exact) and sw.meta.saturated and is_factorial(sw)

    passed = l_ok and r_ok and m_ok and w_ok
    return CheckResult(
        "sampler-fixed-points",
        passed,
        {
            "left_exact": l_ok,
            "right_exact": r_ok,
            "doubling_exact_size": len(sm),
            "windowed_saturated": w_ok,
        },
    )


def check_growth_decision() -> CheckResult:
    """Everywhere-growing verdicts on pinned directives, all exact."""
    expectations = [
        ("|M", True),
        ("|L", False),
        ("|R", False),
        ("|LR", True),
        ("|ML", True),
        ("R|L", False),
        ("LML|M", True),
    ]
    rows = []
    passed = True
    for text, want in expectations:
        rep = is_everywhere_growing(parse_directive(text))
        ok = rep.growing == want and rep.exact
        passed = passed and ok
        rows.append({"directive": text, "growing": rep.growing, "exact": rep.exact, "ok": ok})
    return CheckResult("growth-decision", passed, {"cases": rows})


def check_perron_frequencies() -> CheckResult:
    """Dominant-eigenvector frequencies of the builtin family, exactly."""
    rows = []
    passed = True
    for name, want in sorted(EXPECTED_PERRON.items()):
        sub = builtin(name)
        got = perron_frequency(incidence_counts(sub), sub.codomain.symbols).values
        ok = got == want
        passed = passed and ok
        rows.append({"name": name, "frequency": [_frac_str(v) for v in got], "ok": ok})
    spectrum = tuple(sorted(integer_eigenvalues(incidence_counts(builtin("M")))))
    passed = passed and spectrum == (0, 2)
    return CheckResult(
        "perron-frequencies",
        passed,
        {"cases": rows, "doubling_spectrum": list(spectrum)},
    )


def check_report_round_trip() -> CheckResult:
    """Serialized reports re-parse to equal values in both formats."""
    rep = report_mod.build_report(
        "verify",
        {"directive": "|M", "grid": [1, 2, 3], "empty": {}},
        {
            "frequency": {"0": _frac_str(Fraction(1, 2)), "1": _frac_str(Fraction(1, 2))},
            "flag": True,
            "note": None,
        },
        checks=[{"check_id": "demo", "passed": True, "details": {}}],
    )
    js = report_mod.to_json(rep)
    cs = report_mod.to_csv(rep)
    passed = (
        report_mod.from_json(js) == rep
        and report_mod.from_csv(cs) == rep
        and report_mod.to_json(report_mod.from_csv(cs)) == js
    )
    return CheckResult("report-round-trip", passed, {"json_bytes": len(js), "csv_bytes": len(cs)})


CHECKS: Tuple[Tuple[str, Callable[[], CheckResult]], ...] = (
    ("block-coding-table", check_block_coding_table),
    ("block-eigenpairs", check_block_eigenpairs),
    ("witness-pairs-certified", check_witness_pairs),
    ("witness-closed-forms", check_witness_closed_forms),
    ("witness-block-recursions", check_witness_block_recursions),
    ("witness-scan-milestones", check_scan_milestones),
    ("letter-balance-sweep", check_letter_balance_sweep),
    ("block-coding-identity-randomized", check_coding_identity_randomized),
    ("coarsening-bound", check_coarsening_bound),
    ("pair-decomposition-bound", check_pair_decomposition_bound),
    ("image-balance-bounds", check_image_balance_bounds),
    ("occurrence-preservation", check_occurrence_preservation),
    ("eleven-count-window", check_eleven_count_window),
    ("classifier-sweep", check_classifier_sweep),
    ("frequency-lift", check_frequency_lift),
    ("shared-prefix-tail", check_shared_prefix_tail),
    ("image-window-final", check_image_window_final),
    ("sampler-fixed-points", check_sampler_fixed_points),
    ("growth-decision", check_growth_decision),
    ("perron-frequencies", check_perron_frequencies),
    ("report-round-trip", check_report_round_trip),
)


def run_checks(only: Optional[str] = None) -> List[CheckResult]:
    """Run all checks, or those whose id contains the given substring."""
    selected = [
        (check_id, fn)
        for check_id, fn in CHECKS
        if only is None or only in check_id
    ]
    if only is not None and not selected:
        raise ValueError(f"no check id contains {only!r}")
    return [fn() for _, fn in selected]
