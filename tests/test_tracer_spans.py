"""The benchmark tracer's layers still see their calls.

test_tracer_hooks.py checks that every hooked name resolves; this runs the
tracer on verify in a new interpreter and checks that the scan layers it
hooks are called through those names, so a move that leaves a hook on a
name nothing calls any more reads as a missing layer here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import wordbalance

ROOT = Path(__file__).resolve().parents[1]


def test_verify_spans_reach_every_scan_layer():
    src = str(Path(wordbalance.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), "spans", "--", "verify"],
        env=env, capture_output=True, text=True, check=True, cwd=ROOT,
    )
    result = json.loads(out.stdout)
    assert result["code"] == 0
    assert result["missing_hooks"] == []
    names = {span["name"] for span in result["spans"]}
    assert {"scan.expand", "scan.curve", "scan.texts"} <= names
    expanded = sum(
        span["counters"].get("scan.expand_chars", 0)
        for span in result["spans"]
        if span["name"] == "scan.expand"
    )
    assert expanded > 0
