"""Run one CLI op in-process with benchmark-side spans or memory peaks.

    python3 bench/tracer.py spans  -- analyze --directive '|M' --max-length 40
    python3 bench/tracer.py memory -- witness --n 10

The package is not edited: the public functions the CLI calls are replaced,
in the namespaces that look them up, by wrappers that record a span (name,
start, end, parent, status, counters) or a tracemalloc peak. Spans stay in
memory and are printed as one JSON object when the op ends. Counters come
from public return values and arguments, so they repeat exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import tracemalloc
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

from wordbalance import cli, tms, verification
from wordbalance.language import ResourceLimitError

Count = Callable[[Any, tuple], Dict[str, int]]


def _pattern_windows(result, args) -> Dict[str, int]:
    texts, patterns, window_lens = args[:3]
    return {"scan.pattern_windows": len(patterns) * len(set(window_lens)) * len(texts)}


def _factor_word_pairs(result, args) -> Dict[str, int]:
    sample, n_max = args[:2]
    sizes = Counter(len(w) for w in sample.words)
    return {"balance.factor_word_pairs": sum(sizes[n] for n in range(1, n_max + 1)) * len(sample)}


# (module, attribute, span name, counters). A module attribute is patched
# where the caller looks it up, so only calls from these callers are traced.
SPANS: List[tuple] = [
    (cli, "sample_level_language", "language.sample",
     lambda r, a: {"language.sample_words": len(r), "language.sample_iterations": r.meta.depth}),
    (cli, "is_everywhere_growing", "language.growth", None),
    (cli, "balance_report", "balance.imbalance", _factor_word_pairs),
    (cli, "frequency_vector", "balance.frequency", None),
    (cli, "frequency_deviation", "balance.frequency", None),
    (cli, "perron_frequency", "balance.frequency", None),
    (cli, "level_scan_texts", "scan.texts",
     lambda r, a: {"scan.text_chars": sum(len(t) for t in r[0])}),
    (verification, "level_scan_texts", "scan.texts",
     lambda r, a: {"scan.text_chars": sum(len(t) for t in r[0])}),
    (cli, "window_imbalance_curve", "scan.curve", _pattern_windows),
    (tms, "window_imbalance_curve", "scan.curve", _pattern_windows),
    (verification, "window_imbalance_curve", "scan.curve", _pattern_windows),
    (tms, "expand_text", "scan.expand", lambda r, a: {"scan.expand_chars": len(r)}),
    (cli, "witness_pair", "tms.witness_pair", None),
    (tms, "witness_strings", "tms.witness_strings", None),
    (cli, "witness_growth_curve", "tms.growth_curve", None),
    (cli, "render_report", "report.render", lambda r, a: {"report.bytes": len(r.encode())}),
]

# Layers whose tracemalloc peak is taken in the memory pass.
PEAKS = [
    (cli, "sample_level_language", "language.sample_peak_mb"),
    (tms, "expand_text", "scan.expand_peak_mb"),
]


class Tracer:
    """In-memory span recorder; spans nest through a stack of open indices."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Count] = None) -> Callable:
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "status": "ok",
                "counters": {},
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except ResourceLimitError:
                span["status"] = "refused"
                raise
            except BaseException:
                span["status"] = "error"
                raise
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._open.pop()
            if count is not None:
                span["counters"] = count(result, args)
            return result

        return traced


def _checked_count(result, args) -> Dict[str, int]:
    return {"verification.occurrence-preservation.checked": result.details["checked"]}


def _install_spans(tracer: Tracer, missing: List[str]) -> None:
    for module, attr, name, count in SPANS:
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
        else:
            missing.append(f"{module.__name__}.{attr}")
    verification.CHECKS = tuple(
        (cid, tracer.wrap(
            f"verification.{cid}", fn,
            _checked_count if cid == "occurrence-preservation" else None,
        ))
        for cid, fn in verification.CHECKS
    )


def _install_peaks(peaks: Dict[str, float], missing: List[str]) -> None:
    def measured(name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0.0), peak)

        return wrapper

    for module, attr, name in PEAKS:
        if hasattr(module, attr):
            setattr(module, attr, measured(name, getattr(module, attr)))
        else:
            missing.append(f"{module.__name__}.{attr}")


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one span adds to a call, from wrapped versus bare no-op calls."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def main(argv: List[str]) -> int:
    mode, sep, op_argv = argv[0], argv[1], argv[2:]
    if mode not in ("spans", "memory") or sep != "--":
        print("usage: tracer.py spans|memory -- CLI-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    peaks: Dict[str, float] = {}
    # Hooks whose function no longer exists; their layers read 0.
    missing: List[str] = []
    if mode == "spans":
        _install_spans(tracer, missing)
    else:
        _install_peaks(peaks, missing)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tracer.wrap("cli.main", cli.main)(op_argv)
    tail_start = time.perf_counter()
    report = out.getvalue().encode()
    result = {
        "code": code,
        "digest": hashlib.sha256(report).hexdigest(),
        "stderr_lines": len(err.getvalue().splitlines()),
        "spans": tracer.spans,
        "peaks": peaks,
        "missing_hooks": missing,
        "span_cost_s": span_cost_s() if mode == "spans" else 0.0,
    }
    # Time spent here after the op, so the caller can subtract it from the
    # process's wall time and keep only interpreter start, imports and exit.
    result["tail_s"] = time.perf_counter() - tail_start
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
