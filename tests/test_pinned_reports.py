"""Report bytes against the sha256 digests pinned by the benchmark.

bench/digests.json maps each benchmark op (its CLI arguments joined by
spaces) to the sha256 of the report it prints. Every op, `verify`
included, is rerun here in-process, so a change to any pinned report fails
the suite, not only the benchmark. The file is only read; EXTRA pins
served benchmark ops that it does not list, and WITNESS the witness
reports below the pinned one.
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


# `witness --n k` for every servable k below the `witness --n 10` op that
# digests.json pins.
WITNESS = {
    1: "202f79707fd8164cd4bf2f53ea95db951139753c11b974868c160d080b4a8901",
    2: "e869ba26fcae4b0da669349e82f23100c3de928932e7cc35d19d6d188283b616",
    3: "f47be1df2f934086c92f44c794856928921f17f00c3730f1d48a8f905f245ed8",
    4: "116cb4aeac93ebde93d1e1bb2c1aa3f8fbcc83cc9c21c74dbe822a6ac8e1ca82",
    5: "6fbf521c08ccd70bae4b175f109adbc0d90f2fc3bf8bac79bb62b0301ca3e6f1",
    6: "46015f0b71a06e7437e4fa977f6f9271f634f88d120ab0ea1de4ee689281d6b7",
    7: "46a6d5e0e6b1d1c6e6b52ad06d52307bf69827223bf0107801227a91d1af8cc8",
    8: "4e32b5e6389f1c2fe8c413acfa34adac59c78f74902b4ead004e07ad43074248",
    9: "ba6ecc12020844854b1c28950eb17af4a90f47bc76696718b588bb38fa9492a1",
}


@pytest.mark.parametrize("n", sorted(WITNESS))
def test_witness_report_matches_pinned_digest(n, capsys):
    code = main(["witness", "--n", str(n)])
    captured = capsys.readouterr()
    assert code == EXIT_SUCCESS, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == WITNESS[n]


@pytest.mark.parametrize("key", OPS + sorted(EXTRA))
def test_report_matches_pinned_digest(key, capsys):
    code = main(key.split(" "))
    captured = capsys.readouterr()
    assert code == EXIT_SUCCESS, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == {**PINNED, **EXTRA}[key]
