"""Acceptance gate: thirteen pinned criteria, one PASS/FAIL line each.

Every numeric claim is exact (integers and rationals); there are no float
tolerances anywhere. Wall-clock budgets are asserted only where a criterion
pins one. Each test prints a single summary line even under -q, via
capsys.disabled().
"""

import contextlib
import json
import random
import time
from fractions import Fraction

import pytest

from wordbalance.balance import (
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
from wordbalance.cli import main
from wordbalance.exactmat import eigencheck
from wordbalance.language import factorial_closure, parse_directive, sample_level_language
from wordbalance.scan import level_scan_texts, window_imbalance_curve
from wordbalance.substitution import (
    Substitution,
    coding_identity_sides,
    compose,
    incidence_counts,
    induced_block_substitution,
    window_bound,
)
from wordbalance.tms import (
    builtin,
    classify,
    expand_text,
    imbalance_milestones,
    witness_pair,
    witness_strings,
)
from wordbalance.verification import count_preservation_violations, witness_closed_forms
from wordbalance.words import Alphabet, Word, block_alphabet, sort_words

BIN = Alphabet.from_text("01")
BLOCKS2 = ("00", "01", "10", "11")


def blocks4(s: str):
    """Independent overlapping counter for the four binary length-2 blocks."""
    return tuple(
        sum(1 for i in range(len(s) - 1) if s[i : i + 2] == b) for b in BLOCKS2
    )


@contextlib.contextmanager
def criterion(capsys, number, description, budget=None):
    start = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.monotonic() - start
        overtime = budget is not None and elapsed >= budget
        verdict = "PASS" if ok and not overtime else "FAIL"
        with capsys.disabled():
            print(f"{verdict} criterion {number:02d} ({elapsed:7.2f}s): {description}")
    if budget is not None:
        assert elapsed < budget, f"budget {budget}s exceeded: {elapsed:.2f}s"


def test_criterion_01_block_table(capsys):
    with criterion(
        capsys,
        1,
        "induced 2-to-2 block action of the doubling map matches the frozen "
        "table and incidence",
        budget=1.0,
    ):
        bs = induced_block_substitution(builtin("M"), 2, 2, Word.empty(BIN))
        table = {
            "".join(sym): tuple(
                "".join(s) for s in bs.substitution.image(sym).symbols
            )
            for sym in bs.substitution.domain.symbols
        }
        assert table == {
            "00": ("01", "10"),
            "01": ("01", "11"),
            "10": ("10", "00"),
            "11": ("10", "01"),
        }
        rows = tuple(map(tuple, incidence_counts(bs.substitution)))
        assert rows == (
            (0, 0, 1, 0),
            (1, 1, 0, 1),
            (1, 0, 1, 1),
            (0, 1, 0, 0),
        )
        assert ["".join(s) for s in bs.substitution.domain.symbols] == list(BLOCKS2)
        assert bs.window_bound == 3


def test_criterion_02_block_eigenpairs(capsys):
    with criterion(
        capsys,
        2,
        "four integer eigenpairs of the block incidence verify exactly",
        budget=1.0,
    ):
        bs = induced_block_substitution(builtin("M"), 2, 2, Word.empty(BIN))
        m = incidence_counts(bs.substitution)
        claims = (
            ((1, 2, 2, 1), 2),
            ((1, -1, -1, 1), -1),
            ((1, 0, 0, -1), 0),
            ((1, -1, 1, -1), 1),
        )
        for vector, value in claims:
            assert eigencheck(m, vector, value)


def test_criterion_03_witness_drift_and_certificates(capsys):
    with criterion(
        capsys,
        3,
        "even-index witness pairs: pinned lengths, exact n-fold drift of the "
        "block counts, and membership certificates",
        budget=10.0,
    ):
        drift = (1, -1, -1, 1)
        expected_lengths = (6, 86, 1366, 21846)
        for n in (1, 2, 3, 4):
            w, wp = witness_strings(2 * n)
            assert len(w) == len(wp) == (4 ** (2 * n) + 2) // 3
            assert len(w) == expected_lengths[n - 1]
            cw, cp = blocks4(w), blocks4(wp)
            assert tuple(a - b for a, b in zip(cw, cp)) == tuple(
                n * d for d in drift
            )
            pair = witness_pair(2 * n)
            assert (pair.word, pair.word_prime) == (w, wp)
            assert pair.block_counts == cw
            assert pair.block_counts_prime == cp
            text = expand_text("0", pair.certificate_depth)
            assert text[pair.position : pair.position + len(w)] == w
            assert text[pair.position_prime : pair.position_prime + len(wp)] == wp


def test_criterion_04_closed_forms(capsys):
    with criterion(
        capsys,
        4,
        "closed-form block-count vectors hold exactly for the first four "
        "even-index pairs",
    ):
        growth = (1, 2, 2, 1)
        drift = (1, -1, -1, 1)
        null = (1, 0, 0, -1)
        for n in (1, 2, 3, 4):
            w, wp = witness_strings(2 * n)
            claim_w, claim_p = witness_closed_forms(n)
            lead = Fraction(4 ** (2 * n) - 1, 18)
            for claim, coeff, s in (
                (claim_w, Fraction(2 * n, 3), w),
                (claim_p, Fraction(-n, 3), wp),
            ):
                derived = tuple(
                    lead * g + coeff * d - Fraction(1, 2) * z
                    for g, d, z in zip(growth, drift, null)
                )
                assert all(f.denominator == 1 for f in derived)
                assert tuple(int(f) for f in derived) == claim
                assert claim == blocks4(s)


def test_criterion_05_analysis_pipeline_milestones(capsys, tmp_path):
    with criterion(
        capsys,
        5,
        "analyze pipeline on the pure doubling directive certifies strictly "
        "growing length-2 imbalances at the three witness lengths",
        budget=60.0,
    ):
        out = tmp_path / "analyze.json"
        code = main(
            [
                "analyze",
                "--directive",
                "|M",
                "--max-length",
                "1366",
                "--nmax",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rep = json.loads(out.read_text(encoding="utf-8"))
        letter_entry = rep["results"]["balance"][0]
        assert letter_entry["factor_length"] == 1
        assert letter_entry["imbalance"] <= 2
        curve = rep["results"]["scan"]["curves"]["2"]
        by_window = {e["window"]: e for e in curve}
        previous = 0
        for n, window in ((1, 6), (2, 86), (3, 1366)):
            entry = by_window[window]
            assert len(entry["pattern"]) == 2
            assert len(entry["high_window"]) == window
            assert len(entry["low_window"]) == window
            block = BLOCKS2.index(entry["pattern"])
            recount = blocks4(entry["high_window"])[block] - blocks4(entry["low_window"])[block]
            assert recount == entry["imbalance"]
            assert entry["imbalance"] >= n
            assert entry["imbalance"] > previous
            previous = entry["imbalance"]


def test_criterion_06_letter_balance_sweep(capsys):
    with criterion(
        capsys,
        6,
        "fifty random eventually periodic directives over the builtin family "
        "stay letter-2-balanced on scanned level-0 words up to length 200",
        budget=300.0,
    ):
        rng = random.Random(13)
        checked = 0
        while checked < 50:
            prefix = "".join(rng.choice("LMR") for _ in range(rng.randint(0, 8)))
            period = "".join(rng.choice("LMR") for _ in range(rng.randint(1, 3)))
            d = parse_directive(f"{prefix}|{period}")
            texts, alphabet, _ = level_scan_texts(d, 4800, 20000)
            assert alphabet.symbols == ("0", "1")
            texts = [t.translate(dict(enumerate(alphabet.symbols))) for t in texts]
            curve = window_imbalance_curve(texts, ["0", "1"], range(1, 201))
            assert curve, "no window fits the scanned expansions"
            spread = max(sw.imbalance for sw in curve.values())
            assert spread <= 2, f"{prefix}|{period}: letter spread {spread}"
            checked += 1
        assert checked == 50


def test_criterion_07_randomized_block_coding_identity(capsys):
    with criterion(
        capsys,
        7,
        "a thousand randomized block-coding instances satisfy the exchange "
        "identity, prefix- and suffix-anchored",
    ):
        rng = random.Random(777)
        for i in range(1000):
            side = "prefix" if i % 2 == 0 else "suffix"
            letters = rng.choice(("ab", "abc"))
            alpha = Alphabet.from_text(letters)
            anchor_text = "".join(
                rng.choice(letters) for _ in range(rng.randint(0, 2))
            )
            images = {}
            for a in letters:
                body = "".join(
                    rng.choice(letters) for _ in range(rng.randint(1, 3))
                )
                glued = anchor_text + body if side == "prefix" else body + anchor_text
                images[a] = glued
            sigma = Substitution.from_text(
                ";".join(f"{a}->{img}" for a, img in images.items())
            )
            anchor = Word.from_text(anchor_text, alpha)
            n = rng.randint(1, 3)
            blocks = tuple(
                Word(sym, alpha) for sym in block_alphabet(alpha, n).symbols
            )
            bound = window_bound(sigma, n, anchor, blocks)
            assert bound >= 1
            m = rng.randint(1, min(bound, 4))
            bs = induced_block_substitution(sigma, n, m, anchor, side=side)
            length = rng.randint(max(n - 1, 1), 8)
            w = Word.from_text(
                "".join(rng.choice(letters) for _ in range(length)), alpha
            )
            lhs, rhs = coding_identity_sides(bs, w)
            assert lhs == rhs


def test_criterion_08_coarsening_inequality(capsys, tm_sample, left_sample):
    with criterion(
        capsys,
        8,
        "shorter-window imbalances obey the coarsening inequality on sampled "
        "languages, for every window pair below five",
    ):
        rng = random.Random(88)
        samples = [
            tm_sample,
            left_sample,
            sample_level_language(parse_directive("|R"), 0, 10),
        ]
        for _ in range(3):
            seeds = [
                Word.from_text(
                    "".join(rng.choice("01") for _ in range(rng.randint(8, 30))),
                    BIN,
                )
                for _ in range(rng.randint(2, 4))
            ]
            samples.append(factorial_closure(seeds, 10))
        for sample in samples:
            measured = {n: imbalance(sample, n).empirical_c for n in (1, 2, 3, 4)}
            size = len(sample.alphabet)
            for n in (2, 3, 4):
                for k in range(1, n):
                    assert measured[k] <= coarsening_bound(measured[n], n, k, size)


def test_criterion_09_pair_decomposition_bound(capsys, tm_sample, left_sample):
    with criterion(
        capsys,
        9,
        "joint decompositions of random equal-length image pairs respect the "
        "head-plus-tail bound",
    ):
        rng = random.Random(99)
        for source in (tm_sample, left_sample):
            letter_c = imbalance(source, 1).empirical_c
            size = len(source.alphabet)
            for name in ("L", "M", "R"):
                sigma = builtin(name)
                images = [sigma.apply(w) for w in sort_words(w for w in source.words if w)]
                image_sample = factorial_closure(
                    images, max(len(v) for v in images)
                )
                bound = pair_tail_bound(letter_c, size, sigma.norm())
                by_len = {}
                for v in sort_words(w for w in image_sample.words if w):
                    by_len.setdefault(len(v), []).append(v)
                pools = [cls for cls in by_len.values() if len(cls) >= 2]
                assert pools
                for _ in range(40):
                    cls = rng.choice(pools)
                    w1, w2 = rng.sample(cls, 2)
                    d1, d2 = decompose_pair_in_image(w1, w2, sigma, source)
                    assert d1.reassemble(sigma) == w1
                    assert d2.reassemble(sigma) == w2
                    assert len(d1.core) == len(d2.core)
                    worst = max(
                        len(d1.head) + len(d1.tail), len(d2.head) + len(d2.tail)
                    )
                    assert worst <= bound


def test_criterion_10_image_balance_bounds(capsys, tm_sample, left_sample):
    with criterion(
        capsys,
        10,
        "letter and length-2 imbalance of substitution images stay within "
        "the transfer bounds, single maps and random two-fold compositions",
    ):
        rng = random.Random(55)
        subs = [builtin(name) for name in ("L", "M", "R")]
        for _ in range(3):
            outer, inner = rng.choice("LMR"), rng.choice("LMR")
            subs.append(compose(builtin(outer), builtin(inner)))
        sources = [
            tm_sample,
            left_sample,
            sample_level_language(parse_directive("|R"), 0, 10),
        ]
        for source in sources:
            c1 = imbalance(source, 1).empirical_c
            c2 = imbalance(source, 2).empirical_c
            size = len(source.alphabet)
            for sigma in subs:
                images = [sigma.apply(w) for w in sort_words(w for w in source.words if w)]
                image_sample = factorial_closure(
                    images, max(len(v) for v in images)
                )
                assert imbalance(image_sample, 1).empirical_c <= image_letter_bound(
                    c1, size, sigma.norm()
                )
                assert imbalance(
                    image_sample, 2
                ).empirical_c <= image_window_bound_constant(
                    c1, c2, 2, size, sigma.norm()
                )


def test_criterion_11_count_preservation(capsys):
    with criterion(
        capsys,
        11,
        "the designated length-3 block count is preserved by all 84 padded "
        "compositions of depth three on factors up to length 100",
        budget=120.0,
    ):
        summary = count_preservation_violations(
            max_word_len=100, composition_depth=3
        )
        assert summary["compositions"] == 84
        assert summary["factor_set_stable"] is True
        assert summary["violations"] == []
        assert summary["checked"] == 84 * summary["factors"]


def test_criterion_12_classifier_exactness(capsys):
    with criterion(
        capsys,
        12,
        "classifier: doubling-only tails are exactly the unbalanced ones; "
        "balanced tails show bounded curves, doubling shows growing witnesses",
    ):
        import itertools

        periods = [
            "".join(p)
            for r in (1, 2, 3)
            for p in itertools.product("LMR", repeat=r)
        ]
        assert len(periods) == 39
        for period in periods:
            doubling_only = set(period) == {"M"}
            for prefix in ("", "LR"):
                verdict = classify(parse_directive(f"{prefix}|{period}"))
                assert (verdict.verdict == "FactorBalanced") is (not doubling_only)

        patterns = list(BLOCKS2)
        for period in periods:
            if set(period) == {"M"}:
                continue
            d = parse_directive(f"|{period}")
            texts, alphabet, _ = level_scan_texts(d, 9600, 24000)
            assert alphabet.symbols == ("0", "1")
            texts = [t.translate(dict(enumerate(alphabet.symbols))) for t in texts]
            curve = window_imbalance_curve(texts, patterns, range(2, 401))
            assert curve
            head = [sw.imbalance for m, sw in curve.items() if m <= 300]
            tail = [sw.imbalance for m, sw in curve.items() if m > 300]
            assert head and tail
            assert max(tail) <= max(head), f"|{period}: length-2 curve still rising"

        milestones = imbalance_milestones()
        values = []
        for index, sw in milestones:
            assert sw.window_len == (4 ** (2 * index) + 2) // 3
            assert sw.imbalance >= index
            values.append(sw.imbalance)
        assert values == sorted(set(values)), "witness imbalances must be strictly growing"


def test_criterion_13_frequency_lifting(capsys, tm_sample):
    with criterion(
        capsys,
        13,
        "lifting image frequencies through an invertible incidence recovers "
        "the source frequencies exactly",
    ):
        swap = Substitution.from_text("0->1;1->0")
        images = [swap.apply(w) for w in sort_words(w for w in tm_sample.words if w)]
        image_sample = factorial_closure(images, max(len(v) for v in images))
        lifted = lift_frequency(frequency_vector(image_sample), swap)
        source_freq = frequency_vector(tm_sample)
        assert lifted.normalized
        assert tuple(lifted.values) == tuple(source_freq.values)

        sub_l = builtin("L")
        perron = perron_frequency(incidence_counts(sub_l), sub_l.codomain.symbols)
        lifted_l = lift_frequency(perron, sub_l)
        assert lifted_l.normalized
        assert tuple(lifted_l.values) == tuple(perron.values)
