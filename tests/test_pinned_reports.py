"""Report bytes against the sha256 digests pinned by the benchmark.

bench/digests.json maps each benchmark op (its CLI arguments joined by
spaces) to the sha256 of the report it prints. Every op, `verify`
included, is rerun here in-process, so a change to any pinned report fails
the suite, not only the benchmark. The file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from wordbalance.cli import EXIT_SUCCESS, main

PINNED = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "digests.json").read_text()
)
OPS = sorted(PINNED)


def test_pinned_ops_cover_every_command_that_builds_texts():
    assert any("--max-length 20000" in key for key in OPS)
    assert "witness --n 10" in OPS
    assert "verify" in OPS


@pytest.mark.parametrize("key", OPS)
def test_report_matches_pinned_digest(key, capsys):
    code = main(key.split(" "))
    captured = capsys.readouterr()
    assert code == EXIT_SUCCESS, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == PINNED[key]
