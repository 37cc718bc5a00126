"""End-to-end command-line behavior: reports, formats, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wordbalance
import wordbalance.verification as verification
from wordbalance import scan
from wordbalance.cli import (
    EXHAUSTIVE_CAP,
    EXIT_RESOURCE_LIMIT,
    EXIT_SUCCESS,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILURE,
    main,
)
from wordbalance.report import from_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_SUCCESS, err
    return json.loads(out)


def assert_no_floats(node):
    assert not isinstance(node, float)
    if isinstance(node, dict):
        for k, v in node.items():
            assert isinstance(k, str)
            assert_no_floats(v)
    elif isinstance(node, list):
        for v in node:
            assert_no_floats(v)


class TestAnalyze:
    def test_report_shape(self, capsys):
        rep = run_json(capsys, "analyze", "--directive", "|M", "--max-length", "12")
        assert set(rep) == {"schema_version", "command", "config", "results", "checks"}
        assert rep["schema_version"] == 1
        assert rep["command"] == "analyze"
        assert rep["config"]["directive"] == "|M"
        assert rep["config"]["max_length"] == 12
        res = rep["results"]
        assert res["sample"]["exact"] is True
        assert res["sample"]["level"] == 0
        assert [e["factor_length"] for e in res["balance"]] == [1, 2]
        assert res["balance"][0]["imbalance"] == 2
        witness = res["balance"][0]["witness"]
        assert witness["imbalance"] == witness["count_high"] - witness["count_low"]
        assert res["frequency"]["empirical"] == {"0": "1/2", "1": "1/2"}
        assert res["frequency"]["perron"] == {"0": "1/2", "1": "1/2"}
        assert res["growth"]["growing"] is True
        assert "scan" not in res  # cap is below the exhaustive threshold
        assert_no_floats(rep)

    def test_perron_omitted_when_not_unique(self, capsys):
        # 0->00, 1->11 has incidence 2I: every vector is a dominant
        # eigenvector, so no frequency vector is reported as the Perron one.
        rep = run_json(
            capsys, "analyze", "--directive", "|S", "--register", "S=0->00;1->11",
            "--max-length", "8",
        )
        assert set(rep["results"]["frequency"]) == {"empirical", "empirical_deviation"}

    def test_letter_balance_of_left_directive(self, capsys):
        rep = run_json(capsys, "analyze", "--directive", "|L", "--max-length", "20")
        assert rep["results"]["balance"][0]["imbalance"] <= 1

    def test_deterministic_output(self, capsys):
        argv = ("analyze", "--directive", "RL|LR", "--max-length", "10")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == EXIT_SUCCESS
        assert out1 == out2

    def test_csv_encodes_identical_tree(self, capsys):
        argv = ("analyze", "--directive", "|M", "--max-length", "10")
        tree = run_json(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == EXIT_SUCCESS
        assert from_csv(out) == tree

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--directive", "|M", "--max-length", "8",
            "--format", "text",
        )
        assert code == EXIT_SUCCESS
        assert "directive: |M" in out
        assert "schema_version: 1" in out

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ("analyze", "--directive", "|M", "--max-length", "8")
        _, out, _ = run(capsys, *argv)
        target = tmp_path / "report.json"
        code, captured, _ = run(capsys, *argv, "--out", str(target))
        assert code == EXIT_SUCCESS
        assert captured == ""
        assert target.read_text(encoding="utf-8") == out

    def test_registered_substitution(self, capsys):
        rep = run_json(
            capsys, "analyze", "--directive", "|S",
            "--register", "S=0->01;1->10", "--max-length", "8",
        )
        assert rep["config"]["registered"] == ["S"]
        assert rep["results"]["balance"][0]["imbalance"] == 2

    def test_scan_appears_beyond_cap(self, capsys):
        rep = run_json(
            capsys, "analyze", "--directive", "|M",
            "--max-length", str(EXHAUSTIVE_CAP + 38),
        )
        scan = rep["results"]["scan"]
        assert scan["window_lengths"]
        assert "2" in scan["curves"]
        assert_no_floats(rep)

    def test_scan_renders_symbols_outside_latin1(self, capsys):
        # Symbols past latin-1 get stand-in codec characters for the scan;
        # the report must show the symbols themselves.
        rep = run_json(
            capsys, "analyze", "--directive", "|S", "--register", "S=\u0100->\u0100\u0101;\u0101->\u0100",
            "--max-length", str(EXHAUSTIVE_CAP + 38), "--nmax", "2",
        )
        entries = [e for curve in rep["results"]["scan"]["curves"].values() for e in curve]
        assert entries
        for e in entries:
            for key in ("pattern", "high_window", "low_window"):
                assert set(e[key]) <= {"\u0100", "\u0101"}
            assert len(e["high_window"]) == len(e["low_window"]) == e["window"]

    def test_unknown_substitution_fails_usage(self, capsys):
        code, _, err = run(capsys, "analyze", "--directive", "|Q")
        assert code == EXIT_USAGE
        assert "Q" in err

    def test_malformed_register(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--directive", "|S", "--register", "NOEQUALS"
        )
        assert code == EXIT_USAGE
        assert "error" in err

    def test_malformed_directive(self, capsys):
        code, _, err = run(capsys, "analyze", "--directive", "LMR")
        assert code == EXIT_USAGE


class TestClassify:
    @pytest.mark.parametrize(
        "directive,verdict",
        [
            ("LMR|ML", "FactorBalanced"),
            ("R|M", "NotFactorBalanced"),
            ("|L", "FactorBalanced"),
        ],
    )
    def test_pinned_verdicts(self, capsys, directive, verdict):
        rep = run_json(capsys, "classify", "--directive", directive)
        assert rep["results"]["verdict"] == verdict
        assert rep["results"]["reason"]
        assert rep["command"] == "classify"

    def test_fields(self, capsys):
        rep = run_json(capsys, "classify", "--directive", "R|M")
        res = rep["results"]
        assert res["tail_all_doubling"] is True
        assert res["primitive"] is True
        assert res["directive"] == "R|M"

    def test_non_family_directive_rejected(self, capsys):
        code, _, err = run(
            capsys, "classify", "--directive", "S|M", "--register", "S=0->1;1->0"
        )
        assert code == EXIT_USAGE
        assert "error" in err

    def test_finite_directive_rejected(self, capsys):
        code, _, _ = run(capsys, "classify", "--directive", "LM|")
        assert code == EXIT_USAGE


class TestWitness:
    def test_smallest_pair(self, capsys):
        rep = run_json(capsys, "witness", "--n", "1")
        res = rep["results"]
        assert res["word"] == "00"
        assert res["word_prime"] == "01"
        assert res["length"] == 2
        assert res["block_order"] == ["00", "01", "10", "11"]

    def test_second_pair_certificate(self, capsys):
        rep = run_json(capsys, "witness", "--n", "2")
        res = rep["results"]
        assert res["word"] == "110011"
        assert res["word_prime"] == "011010"
        assert res["block_difference"] == [1, -1, -1, 1]
        assert res["certificate"]["position"] == 21
        assert res["certificate"]["position_prime"] == 0
        assert res["certificate"]["expansion_depth"] == 8
        assert res["growth_curve"]
        assert_no_floats(rep)

    def test_zero_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "witness", "--n", "0")
        assert code == EXIT_USAGE

    def test_oversized_is_resource_error(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "15")
        assert code == EXIT_RESOURCE_LIMIT
        assert "error" in err

    @pytest.mark.parametrize("n", range(11, 16))
    def test_oversized_refusal_names_the_limit(self, capsys, n):
        code, out, err = run(capsys, "witness", "--n", str(n))
        assert code == EXIT_RESOURCE_LIMIT
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: certification text needs ")
        assert err.endswith(" characters, limit 45000000\n")


class TestSizeGuards:
    def test_text_codec_guard_exits_3(self, capsys):
        # Q adds 199 letters to {0, 1}, and P maps them back to 0, so the
        # level-0 alphabet has 201 symbols while the sampled language stays
        # binary; the scan past the exhaustive cap needs a 201-symbol codec.
        extra = [chr(0x100 + i) for i in range(199)]
        q = "0->0" + "".join(extra) + ";1->1"
        p = "0->0;1->1;" + ";".join(f"{x}->0" for x in extra)
        code, out, err = run(
            capsys, "analyze", "--directive", "PQ|M", "--register", f"P={p}",
            "--register", f"Q={q}", "--max-length", str(EXHAUSTIVE_CAP + 1),
        )
        assert code == EXIT_RESOURCE_LIMIT
        assert out == ""
        assert err == "error: text codec needs 201 symbols, limit 200\n"

    def test_sample_window_guard_exits_3(self, capsys):
        # Levels 26..31 of |MM hold two letter texts of 2^n characters each.
        code, out, err = run(
            capsys, "analyze", "--directive", "|MM", "--max-length", "8", "--depth", "26"
        )
        assert code == EXIT_RESOURCE_LIMIT
        assert out == ""
        assert err == f"error: sample window needs {2 * 63 * 2**26} characters, limit 60000000\n"

    def test_size_too_long_to_print_exits_3(self, capsys):
        # 2 * 63 * 2^20000 characters has more digits than Python converts
        # to a string.
        code, out, err = run(
            capsys, "analyze", "--directive", "|MM", "--max-length", "8", "--depth", "20000"
        )
        assert code == EXIT_RESOURCE_LIMIT
        assert out == ""
        assert err == "error: sample window needs more than 2^20006 characters, limit 60000000\n"

    @staticmethod
    def _wide_directive(extra_letters):
        extra = [chr(0x100 + i) for i in range(extra_letters)]
        q = "0->0" + "".join(extra) + ";1->1"
        p = "0->0;1->1;" + ";".join(f"{x}->0" for x in extra)
        return ["--directive", "PQ|M", "--register", f"P={p}", "--register", f"Q={q}"]

    def test_scan_pattern_guard_exits_3(self, capsys):
        # 200 level-0 symbols: 200^3 patterns of length 3 are past the
        # block-alphabet cap of 2^20.
        code, out, err = run(
            capsys, "analyze", *self._wide_directive(198),
            "--max-length", str(EXHAUSTIVE_CAP + 1), "--nmax", "3",
        )
        assert code == EXIT_RESOURCE_LIMIT
        assert out == ""
        assert err == "error: window scan needs 8000000 patterns, limit 1048576\n"

    def test_scan_builds_indicators_only_for_occurring_patterns(self, capsys, monkeypatch):
        calls = []
        real = scan._occurrence_indicator
        monkeypatch.setattr(
            scan, "_occurrence_indicator", lambda t, p: calls.append(p) or real(t, p)
        )
        rep = run_json(
            capsys, "analyze", *self._wide_directive(198),
            "--max-length", str(EXHAUSTIVE_CAP + 1), "--nmax", "2",
        )
        # 40,200 patterns over 200 symbols, but the scanned texts spell only
        # 0 and 1 (codec characters "!" and '"', as the symbols are not all
        # latin-1): one indicator per binary pattern and text.
        a, b = "!", '"'
        assert len(rep["results"]["scan"]["text_chars"]) == 2
        assert sorted(calls) == sorted([a, b, a + a, a + b, b + a, b + b] * 2)

    def test_scan_beyond_the_old_tower_budget_is_served(self, capsys):
        rep = run_json(
            capsys, "analyze", "--directive", "|RLR", "--max-length", "20000", "--nmax", "1"
        )
        assert rep["results"]["scan"]["text_chars"] == [480016, 480016]


class TestVerify:
    def test_only_eigen_runs_one_check(self, capsys):
        rep = run_json(capsys, "verify", "--only", "eigen")
        assert rep["results"]["checks_run"] == 1
        assert rep["results"]["checks_passed"] == 1
        assert rep["results"]["failed"] == []
        assert rep["checks"][0]["check_id"] == "block-eigenpairs"
        assert rep["checks"][0]["passed"] is True

    def test_only_table_check(self, capsys):
        rep = run_json(capsys, "verify", "--only", "block-coding-table")
        assert rep["results"]["failed"] == []

    def test_unmatched_filter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "bogus-check-name")
        assert code == EXIT_USAGE
        assert "bogus-check-name" in err

    def test_tampered_expectation_fails(self, capsys, monkeypatch):
        tampered = dict(verification.EXPECTED_BLOCK_TABLE)
        tampered["11"] = ("01", "10")
        monkeypatch.setattr(verification, "EXPECTED_BLOCK_TABLE", tampered)
        code, out, _ = run(capsys, "verify", "--only", "block-coding-table")
        assert code == EXIT_VERIFICATION_FAILURE
        rep = json.loads(out)
        assert rep["results"]["failed"] == ["block-coding-table"]
        assert rep["checks"][0]["passed"] is False


class TestUsage:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "analyze", "--directive", "|M", "--bogus")
        assert code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE

    def test_help_exits_cleanly(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == EXIT_SUCCESS
        assert "analyze" in out


class TestImportCost:
    def test_cli_import_does_not_load_numpy(self):
        # numpy is loaded only by the scan functions; importing the CLI must
        # not pull it in, or every exact analyze pays for it.
        src = str(Path(wordbalance.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, wordbalance.cli; print('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
