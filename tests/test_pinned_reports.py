"""Report bytes against the sha256 digests pinned by the benchmark.

bench/digests.json maps each benchmark op (its CLI arguments joined by
spaces) to the sha256 of the report it prints. Every op, `verify`
included, is rerun here in-process, so a change to any pinned report fails
the suite, not only the benchmark. The file is only read; EXTRA pins
served benchmark ops that it does not list.
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


# Served benchmark ops that digests.json does not list, pinned here instead.
# The hex digest is the same under PYTHONHASHSEED 0, 1 and 12345.
EXTRA = {
    "analyze --directive |RLR --max-length 20000 --nmax 3":
        "97d3484f5595d650e60947d95ed6cb7d347d648a61df96029b112f74d0a36a86",
}


def test_extra_pins_are_not_in_digests_json():
    assert not set(EXTRA) & set(PINNED)


@pytest.mark.parametrize("key", OPS + sorted(EXTRA))
def test_report_matches_pinned_digest(key, capsys):
    code = main(key.split(" "))
    captured = capsys.readouterr()
    assert code == EXIT_SUCCESS, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == {**PINNED, **EXTRA}[key]
