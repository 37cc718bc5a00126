"""Command-line surface: analyze, classify, witness, and verify.

Reports are deterministic trees of exact values (rationals as "p/q"
strings, never floats) with top-level keys schema_version / command /
config / results / checks, rendered as JSON, CSV, or indented text. Exit
codes: 0 success, 1 verification failure, 2 usage or parse error, 3
resource limit.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from .balance import (
    FrequencyVector,
    balance_report,
    frequency_deviation,
    frequency_vector,
    perron_frequency,
)
from .exactmat import mat_vec
from .language import (
    DirectiveSequence,
    ResourceLimitError,
    _letter_codes,
    _tower_counts,
    is_everywhere_growing,
    parse_directive,
    sample_level_language,
)
from .limits import check_budget
from .report import FORMATS, build_report, rational_str, render_report
from .substitution import Substitution
from .words import MAX_BLOCK_ALPHABET, render_symbol


def _deferred(module: str, name: str):
    """A stand-in for module.name that imports the module when called.

    An exact analyze calls nothing from tms or scan, so it skips loading
    (and, without a bytecode cache, compiling) them. Each stand-in is a
    cli global, looked up at call time, so a caller can wrap it here.
    """

    def call(*args, **kwargs):
        return getattr(importlib.import_module(module, __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


level_scan_texts = _deferred(".scan", "level_scan_texts")
witness_pair = _deferred(".tms", "witness_pair")
witness_growth_curve = _deferred(".tms", "witness_growth_curve")
window_imbalance_curve = _deferred(".scan", "window_imbalance_curve")

EXIT_SUCCESS = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE_LIMIT = 3

# Largest cap at which analyze enumerates the factor language exhaustively;
# beyond it the report adds certified window scans over deep expansions.
EXHAUSTIVE_CAP = 48


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordbalance",
        description=(
            "Balance analysis of substitution-generated languages: exact "
            "imbalance measurements, balancedness classification, "
            "unbalancedness witness pairs, and a self-verification suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=FORMATS, default="json", help="report format"
        )
        p.add_argument(
            "--out", default=None, help="write the report to this path instead of stdout"
        )

    def add_directive(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--directive",
            required=True,
            help="substitution directive 'PREFIX|PERIOD' over single-letter names",
        )
        p.add_argument(
            "--register",
            action="append",
            default=[],
            metavar="NAME=SPEC",
            help="register substitution NAME (one letter) as SPEC, e.g. S=0->01;1->0",
        )

    p_analyze = sub.add_parser(
        "analyze", help="sample a directive's language and measure its balance"
    )
    add_directive(p_analyze)
    p_analyze.add_argument(
        "--max-length",
        type=_positive_int,
        default=40,
        help="largest factor length to analyze (default 40)",
    )
    p_analyze.add_argument(
        "--nmax",
        type=_positive_int,
        default=None,
        help="measure imbalance for factor lengths 1..nmax (default 2, capped at --max-length)",
    )
    p_analyze.add_argument(
        "--depth", type=_positive_int, default=None, help="sampling depth override"
    )
    p_analyze.add_argument(
        "--window", type=_positive_int, default=None, help="sampling window override"
    )
    add_output(p_analyze)

    p_classify = sub.add_parser(
        "classify", help="decide factor-balancedness of an {L,M,R} directive"
    )
    add_directive(p_classify)
    add_output(p_classify)

    p_witness = sub.add_parser(
        "witness", help="emit a certified equal-length unbalancedness witness pair"
    )
    p_witness.add_argument(
        "--n",
        type=_positive_int,
        required=True,
        help="witness index (word length (4^n + 2)/3)",
    )
    add_output(p_witness)

    p_verify = sub.add_parser(
        "verify", help="run the self-verification suite"
    )
    p_verify.add_argument(
        "--only",
        default=None,
        help="run only checks whose id contains this substring",
    )
    add_output(p_verify)

    return parser


def _parse_registry(items: List[str]) -> Dict[str, Substitution]:
    registry: Dict[str, Substitution] = {}
    for item in items:
        name, sep, spec = item.partition("=")
        if not sep or len(name) != 1 or name == "|":
            raise ValueError(
                f"--register expects NAME=SPEC with a single-letter name, got {item!r}"
            )
        registry[name] = Substitution.from_text(spec)
    return registry


def _frequency_map(f: FrequencyVector) -> Dict[str, Any]:
    return {render_symbol(a): rational_str(v) for a, v in f.items()}


def _level0_perron(d: DirectiveSequence) -> Optional[FrequencyVector]:
    """Exact level-0 letter frequencies of an eventually periodic directive.

    The Perron frequencies of the period read from level p, tau =
    sigma_[p,p+q), are pushed forward through the incidence matrix of the
    prefix, pi = sigma_[0,p), and renormalized. Both matrices are integer
    incidence products (no tower is composed). None when the period is
    missing or has no usable dominant eigenpair.
    """
    if d.period is None:
        return None
    p, q = d.prefix_length, d.period_length
    try:
        f_p = perron_frequency(_tower_counts(d, p, p + q), d.level_alphabet(p).symbols)
    except ValueError:
        return None
    if p == 0:
        return f_p
    pushed = mat_vec(_tower_counts(d, 0, p), f_p.values)
    total = sum(pushed, Fraction(0))
    if total <= 0:
        return None
    return FrequencyVector(d.level_alphabet(0), tuple(v / total for v in pushed))


def _window_grid(max_length: int) -> List[int]:
    """Scan window lengths: a geometric ladder plus the witness lengths."""
    grid = {max_length}
    v = 1
    while v < max_length:
        grid.add(v)
        v = max(v + 1, (v * 3) // 2)
    k = 1
    while (4**k + 2) // 3 <= max_length:
        grid.add((4**k + 2) // 3)
        k += 1
    return sorted(grid)


def _witness_dict(w) -> Dict[str, Any]:
    return {
        "high": w.high.render(),
        "low": w.low.render(),
        "factor": w.factor.render(),
        "count_high": w.count_high,
        "count_low": w.count_low,
        "imbalance": w.imbalance,
    }


def _scan_section(
    d: DirectiveSequence, max_length: int, nmax: int
) -> Dict[str, Any]:
    min_chars = 24 * max_length + 16
    windows = _window_grid(max_length)
    texts, alphabet, stops = level_scan_texts(
        d, min_chars=min_chars, clip=min_chars, window_lens=windows
    )
    # Texts can stay shorter than min_chars (a finite directive's last level,
    # a tower that does not grow), and no window longer than them is scanned.
    longest = max(map(len, texts), default=0)
    grid = [m for m in windows if m <= longest]
    codes = list(_letter_codes(alphabet).values())
    # Letter codes to rendered symbols, as _decode(...).render() would.
    render = {ord(c): render_symbol(s) for c, s in zip(codes, alphabet.symbols)}
    # A pattern with a letter no text holds has spread 0, which never beats
    # the first pattern, scanned whatever it holds. So patterns use the first
    # letter and the letters the texts hold, in alphabet order: the order of
    # all |A|^n patterns, which keeps every witness and tie.
    letters = codes[:1] + [c for c in codes[1:] if any(c in t for t in texts)]
    curves: Dict[str, Any] = {}
    for n in range(1, nmax + 1):
        patterns = ["".join(p) for p in itertools.product(letters, repeat=n)]
        curve = window_imbalance_curve(texts, patterns, grid, stops=stops)
        curves[str(n)] = [
            {
                "window": m,
                "imbalance": w.imbalance,
                "pattern": w.pattern.translate(render),
                "high_window": w.high_window.translate(render),
                "low_window": w.low_window.translate(render),
            }
            for m, w in sorted(curve.items())
        ]
    return {
        "text_chars": [len(t) for t in texts],
        "window_lengths": grid,
        "curves": curves,
        "note": (
            "window pairs are factors of letter expansions through the "
            "directive tower, hence certified language members; the spreads "
            "are exact imbalance lower bounds"
        ),
    }


def _cmd_analyze(args: argparse.Namespace) -> Tuple[Dict[str, Any], int]:
    registry = _parse_registry(args.register)
    d = parse_directive(args.directive, registry)
    if args.nmax is None:
        args.nmax = min(2, args.max_length)
    cap = min(args.max_length, EXHAUSTIVE_CAP)
    if args.max_length > cap:
        # A scan pattern is a block of nmax letters, each the first level-0
        # letter or one the texts hold. Every scan text is a sigma_0-image,
        # so the block-alphabet cap is checked, before the sample is drawn,
        # on blocks over the first letter and the letters of those images.
        sigma_0 = d.substitution_at(0)
        letters = {sigma_0.codomain.symbols[0]}.union(
            *(image.symbols for image in sigma_0.images.values())
        )
        check_budget("window scan", len(letters) ** args.nmax, MAX_BLOCK_ALPHABET, "patterns")
    # No word or window is longer than --max-length, so longer factors
    # would only add all-zero entries.
    check_budget("--nmax factor length", args.nmax, args.max_length, "letters")
    sample = sample_level_language(d, 0, cap, depth=args.depth, window=args.window)

    entries = []
    for e in balance_report(sample, args.nmax):
        entry: Dict[str, Any] = {
            "factor_length": e.factor_length,
            "imbalance": e.empirical_c,
            "curve": [[length, value] for length, value in e.curve],
        }
        if e.witness is not None:
            entry["witness"] = _witness_dict(e.witness)
        entries.append(entry)

    frequency: Dict[str, Any] = {}
    if len(sample) > 1:  # a word besides the empty one
        f_emp = frequency_vector(sample)
        frequency["empirical"] = _frequency_map(f_emp)
        frequency["empirical_deviation"] = rational_str(frequency_deviation(sample, f_emp))
    f_per = _level0_perron(d)
    if f_per is not None:
        frequency["perron"] = _frequency_map(f_per)
        frequency["perron_deviation"] = rational_str(
            frequency_deviation(sample, f_per)
        )

    growth = is_everywhere_growing(d)
    results: Dict[str, Any] = {
        "directive": d.describe(),
        "sample": {
            "level": sample.level,
            "max_length": sample.max_length,
            "words": len(sample),
            "exact": sample.meta.exact,
            "saturated": sample.meta.saturated,
        },
        "balance": entries,
        "frequency": frequency,
        "growth": {"growing": growth.growing, "exact": growth.exact},
    }
    if args.max_length > cap:
        results["scan"] = _scan_section(d, args.max_length, args.nmax)

    config = {
        "directive": args.directive,
        "registered": sorted(registry),
        "max_length": args.max_length,
        "exhaustive_cap": cap,
        "nmax": args.nmax,
        "depth": args.depth,
        "window": args.window,
    }
    return build_report("analyze", config, results), EXIT_SUCCESS


def _cmd_classify(args: argparse.Namespace) -> Tuple[Dict[str, Any], int]:
    from .tms import classify

    registry = _parse_registry(args.register)
    d = parse_directive(args.directive, registry)
    c = classify(d)
    results = {
        "directive": d.describe(),
        "verdict": c.verdict,
        "reason": c.reason,
        "primitive": c.primitive,
        "tail_all_doubling": c.tail_all_doubling,
    }
    config = {"directive": args.directive, "registered": sorted(registry)}
    return build_report("classify", config, results), EXIT_SUCCESS


def _cmd_witness(args: argparse.Namespace) -> Tuple[Dict[str, Any], int]:
    wp = witness_pair(args.n)
    curve = witness_growth_curve(args.n // 2) if args.n >= 2 else []
    results = {
        "index": wp.index,
        "length": wp.length,
        "word": wp.word,
        "word_prime": wp.word_prime,
        "block_order": ["00", "01", "10", "11"],
        "block_counts": list(wp.block_counts),
        "block_counts_prime": list(wp.block_counts_prime),
        "block_difference": list(wp.block_difference),
        "certificate": {
            "expansion_depth": wp.certificate_depth,
            "position": wp.position,
            "position_prime": wp.position_prime,
        },
        "growth_curve": [[length, imb] for length, imb in curve],
    }
    config = {"n": args.n}
    return build_report("witness", config, results), EXIT_SUCCESS


def _cmd_verify(args: argparse.Namespace) -> Tuple[Dict[str, Any], int]:
    # Imported here: only verify needs the suite's checks and their imports.
    from . import verification

    outcomes = verification.run_checks(only=args.only)
    failed = [r.check_id for r in outcomes if not r.passed]
    results = {
        "checks_run": len(outcomes),
        "checks_passed": len(outcomes) - len(failed),
        "failed": failed,
    }
    config = {"only": args.only}
    report = build_report(
        "verify", config, results, checks=[r.as_dict() for r in outcomes]
    )
    code = EXIT_VERIFICATION_FAILURE if failed else EXIT_SUCCESS
    return report, code


_HANDLERS = {
    "analyze": _cmd_analyze,
    "classify": _cmd_classify,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_SUCCESS

    try:
        report, code = _HANDLERS[args.command](args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    rendered = render_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
