"""The benchmark tracer's layers still see their calls.

test_tracer_hooks.py checks that every hooked name resolves; this runs the
tracer on verify and on witness in a new interpreter and checks that the
scan layers it hooks are called through those names, so a move that leaves
a hook on a name nothing calls any more reads as a missing layer here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import wordbalance

ROOT = Path(__file__).resolve().parents[1]


def traced_spans(*argv):
    """The tracer's spans report for one CLI op, run in a new interpreter."""
    src = str(Path(wordbalance.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), "spans", "--", *argv],
        env=env, capture_output=True, text=True, check=True, cwd=ROOT,
    )
    result = json.loads(out.stdout)
    assert result["code"] == 0
    assert result["missing_hooks"] == []
    return result["spans"]


def expanded_chars(spans):
    return sum(
        span["counters"].get("scan.expand_chars", 0) for span in spans if span["name"] == "scan.expand"
    )


def test_verify_spans_reach_every_scan_layer():
    spans = traced_spans("verify")
    names = {span["name"] for span in spans}
    assert {"scan.expand", "scan.curve", "scan.texts"} <= names
    assert expanded_chars(spans) > 0


def test_witness_expansion_is_seen_by_the_expand_layer():
    # The witness words and their certificates are read from Thue-Morse
    # prefixes built by tms.expand_text, the name the tracer hooks, so the
    # scan.expand layer sees at least the 2^9-letter certificate prefix.
    sizes = [
        span["counters"]["scan.expand_chars"]
        for span in traced_spans("witness", "--n", "4")
        if span["name"] == "scan.expand"
    ]
    assert 2**9 in sizes
