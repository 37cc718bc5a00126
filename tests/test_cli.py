"""End-to-end command-line behavior: reports, formats, and exit codes."""

import ast
import collections
import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wordbalance
import wordbalance.verification as verification
from wordbalance import cli, language, scan
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

    def test_perron_omitted_when_the_spectral_radius_is_irrational(self, capsys):
        # The incidence of a->abc, b->a, c->c has the integer eigenvalue 1
        # (the class {c}), but the class {a, b} has the golden ratio as its
        # spectral radius; the eigenvector of 1 is no Perron vector.
        rep = run_json(
            capsys, "analyze", "--directive", "|S", "--register", "S=a->abc;b->a;c->c",
            "--max-length", "12",
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

    def test_csv_rows_in_any_order_encode_identical_tree(self, capsys):
        # Out of order, a row can name a list index before the ones below
        # it, so the list is padded first and filled in later.
        argv = ("analyze", "--directive", "|M", "--max-length", "10")
        tree = run_json(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == EXIT_SUCCESS
        header, *rows = out.splitlines(keepends=True)
        for seed in range(20):
            shuffled = random.Random(seed).sample(rows, len(rows))
            assert from_csv(header + "".join(shuffled)) == tree

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
        # Scan texts spell symbols past latin-1 in letter codes; the report
        # must show the symbols themselves.
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

    def test_finite_directive_shorter_than_the_default_depth(self, capsys):
        # Letter images of 40 characters need six M levels; the prefix has five.
        code, _, err = run(capsys, "analyze", "--directive", "MMMMM|", "--max-length", "40")
        assert code == EXIT_USAGE
        assert err == "error: finite directive too short for the requested window\n"

    def test_finite_directive_scan_stops_at_its_last_level(self, capsys):
        # The first 20 levels of both directives are the same tower.
        finite = run_json(capsys, "analyze", "--directive", "M" * 20 + "|", "--max-length", "49")
        periodic = run_json(capsys, "analyze", "--directive", "|M", "--max-length", "49")
        assert finite["results"]["scan"] == periodic["results"]["scan"]
        assert finite["results"]["scan"]["text_chars"] == [1192, 1192]

    @pytest.mark.parametrize(
        "argv, text_chars, longest_window",
        [
            # A finite directive's last level holds texts of 1 and 17 letters.
            (("--directive", "L" * 16 + "|", "--max-length", "49"), [1, 17], 13),
            # The swap keeps both letter images one letter long at every level.
            (
                ("--directive", "|S", "--register", "S=0->1;1->0", "--max-length", "60"),
                [1, 1],
                1,
            ),
        ],
        ids=["finite", "not-growing"],
    )
    def test_window_lengths_are_the_scanned_windows(
        self, capsys, argv, text_chars, longest_window
    ):
        section = run_json(capsys, "analyze", *argv)["results"]["scan"]
        assert section["text_chars"] == text_chars
        assert section["window_lengths"][-1] == longest_window
        for curve in section["curves"].values():
            assert [entry["window"] for entry in curve] == section["window_lengths"]

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

    @pytest.mark.parametrize("max_length", ["8", "60"])
    def test_the_empty_language_is_served(self, capsys, max_length):
        # S erases its only letter, so the language is {epsilon}: no
        # frequency is measured, and the growth verdict is exact.
        rep = run_json(
            capsys, "analyze", "--directive", "|S", "--register", "S=0->",
            "--max-length", max_length,
        )
        res = rep["results"]
        assert res["sample"]["words"] == 1
        assert res["frequency"] == {}
        assert res["growth"] == {"growing": False, "exact": True}

    def test_the_growth_decision_ends_on_a_long_permutation(self):
        # S permutes 100 letters in cycles of lengths 2, 3, 5, ..., 23, whose
        # lcm is over 2 * 10^8; P erases the first letter of each cycle.
        # The language is the 91 letters P keeps, and the empty word.
        letters = iter(chr(0x100 + i) for i in range(100))
        p_rules, s_rules = [], []
        for size in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            cycle = [next(letters) for _ in range(size)]
            for i, a in enumerate(cycle):
                p_rules.append(f"{a}->" + (a if i else ""))
                s_rules.append(f"{a}->{cycle[(i + 1) % size]}")
        argv = [
            "analyze", "--directive", "P|S", "--register", "P=" + ";".join(p_rules),
            "--register", "S=" + ";".join(s_rules), "--max-length", "8",
        ]
        src = str(Path(wordbalance.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "wordbalance.cli", *argv],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert out.returncode == EXIT_SUCCESS, out.stderr
        res = json.loads(out.stdout)["results"]
        assert res["growth"] == {"growing": False, "exact": True}
        assert res["sample"]["words"] == 92

    def test_tracer_hooks_fire_once(self, capsys, monkeypatch):
        # The benchmark tracer times these two layers by wrapping them in the
        # cli namespace, so analyze must call them through it.
        calls = []
        for name in ("is_everywhere_growing", "perron_frequency"):
            original = getattr(cli, name)

            def wrapper(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)
        run_json(capsys, "analyze", "--directive", "|M")
        assert sorted(calls) == ["is_everywhere_growing", "perron_frequency"]

    def test_perron_lists_no_integer_eigenvalues(self, capsys, monkeypatch):
        # Listing integer eigenvalues takes one determinant per integer up
        # to the spectral radius, so analyze must find it by bisection.
        def refuse(*args, **kwargs):
            raise AssertionError("integer_eigenvalues called")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "wordbalance" and hasattr(module, "integer_eigenvalues"):
                monkeypatch.setattr(module, "integer_eigenvalues", refuse)
        exact = run_json(capsys, "analyze", "--directive", "|M")
        windowed = run_json(capsys, "analyze", "--directive", "LMR|ML")
        assert exact["results"]["sample"]["exact"] and not windowed["results"]["sample"]["exact"]
        assert exact["results"]["frequency"]["perron"] == {"0": "1/2", "1": "1/2"}
        assert windowed["results"]["frequency"]["perron"] == {"0": "2/3", "1": "1/3"}


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

    @pytest.mark.parametrize(
        "n,size",
        [
            (11, "67108864"),
            (29, str(2**62)),
            (30, "more than 2^64"),
            (1000, "more than 2^2004"),
            (30_000_000, "more than 2^60000004"),
        ],
    )
    def test_refusal_line_is_pinned(self, capsys, n, size):
        code, out, err = run(capsys, "witness", "--n", str(n))
        assert (code, out) == (EXIT_RESOURCE_LIMIT, "")
        assert err == f"error: certification text needs {size} characters, limit 45000000\n"


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
        # S maps each letter to 16 letters. The default depth for N = 8 is 1,
        # so the widest window, 4096 levels, charges levels 1..4099: about
        # 2^16397 characters, more digits than Python converts to a string.
        code, out, err = run(
            capsys, "analyze", "--directive", "|SS", "--register",
            "S=0->0101010101010101;1->1010101010101010",
            "--max-length", "8", "--window", "4096",
        )
        assert code == EXIT_RESOURCE_LIMIT
        assert out == ""
        assert err == "error: sample window needs more than 2^16397 characters, limit 60000000\n"

    def test_huge_size_is_named_by_its_power_of_two(self, capsys):
        # 1024 periods of ML: the window's size has about 980 digits, which
        # would print in full; any size from 2^64 on is named by a power of 2.
        code, out, err = run(
            capsys, "analyze", "--directive", "|" + "ML" * 1024, "--max-length", "8"
        )
        assert code == EXIT_RESOURCE_LIMIT
        assert out == ""
        assert err == "error: sample window needs more than 2^3252 characters, limit 60000000\n"

    def test_sample_window_level_guard_exits_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the tower was walked")

        monkeypatch.setattr(language, "_tower_lengths", boom)
        # |M takes the exact sampler, which has no window, but the request
        # is refused all the same.
        for directive in ("|MM", "|M"):
            code, out, err = run(
                capsys, "analyze", "--directive", directive, "--max-length", "8",
                "--window", "100000",
            )
            assert code == EXIT_RESOURCE_LIMIT
            assert out == ""
            assert err == "error: sample window needs 100000 levels, limit 4096\n"

    def test_long_period_refused_by_the_sampler_not_the_growth_check(self, capsys):
        # The growth check reads incidence products of the 18-letter period;
        # the windowed sampler then refuses its 2^41-character window.
        code, out, err = run(
            capsys, "analyze", "--directive", "|" + "M" * 18, "--max-length", "8"
        )
        assert code == EXIT_RESOURCE_LIMIT
        assert out == ""
        assert err == "error: sample window needs 2199023255536 characters, limit 60000000\n"

    def test_sample_depth_guard_exits_3(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--directive", "|MM", "--max-length", "8", "--depth", "20000"
        )
        assert code == EXIT_RESOURCE_LIMIT
        assert out == ""
        assert err == "error: sample depth needs 20000 levels, limit 4096\n"

    def test_nmax_past_max_length_exits_3_before_sampling(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the sample was drawn")

        monkeypatch.setattr(cli, "sample_level_language", boom)
        code, out, err = run(
            capsys, "analyze", "--directive", "|M", "--max-length", "40", "--nmax", "41"
        )
        assert code == EXIT_RESOURCE_LIMIT
        assert out == ""
        assert err == "error: --nmax factor length needs 41 letters, limit 40\n"

    def test_nmax_at_max_length_is_served(self, capsys):
        rep = run_json(capsys, "analyze", "--directive", "|M", "--max-length", "40", "--nmax", "40")
        assert [e["factor_length"] for e in rep["results"]["balance"]] == list(range(1, 41))

    def test_default_nmax_fits_max_length_one(self, capsys):
        # The default is 2 only where --max-length allows it; an explicit
        # --nmax past --max-length is still refused.
        rep = run_json(capsys, "analyze", "--directive", "|M", "--max-length", "1")
        assert rep["config"]["nmax"] == 1
        assert [e["factor_length"] for e in rep["results"]["balance"]] == [1]
        rep = run_json(capsys, "analyze", "--directive", "|M", "--max-length", "2")
        assert rep["config"]["nmax"] == 2
        code, out, err = run(
            capsys, "analyze", "--directive", "|M", "--max-length", "1", "--nmax", "2"
        )
        assert code == EXIT_RESOURCE_LIMIT
        assert out == ""
        assert err == "error: --nmax factor length needs 2 letters, limit 1\n"

    @staticmethod
    def _wide_directive(extra_letters, fold=True):
        # Q adds the extra letters to {0, 1}; P maps each to 0 when fold is
        # set, else to itself.
        extra = [chr(0x100 + i) for i in range(extra_letters)]
        q = "0->0" + "".join(extra) + ";1->1"
        p = "0->0;1->1;" + ";".join(f"{x}->{'0' if fold else x}" for x in extra)
        return ["--directive", "PQ|M", "--register", f"P={p}", "--register", f"Q={q}"]

    def test_scan_pattern_guard_exits_3(self, capsys):
        # P maps each of 200 level-0 symbols to itself, so its images hold
        # all 200: 200^3 patterns of length 3 are past the block-alphabet
        # cap of 2^20.
        code, out, err = run(
            capsys, "analyze", *self._wide_directive(198, fold=False),
            "--max-length", str(EXHAUSTIVE_CAP + 1), "--nmax", "3",
        )
        assert code == EXIT_RESOURCE_LIMIT
        assert out == ""
        assert err == "error: window scan needs 8000000 patterns, limit 1048576\n"

    def test_scan_patterns_are_sized_from_level_0_images(self, capsys):
        # 200 level-0 symbols, but P maps 198 of them to 0: the scan texts,
        # P-images, spell 0 and 1 only, so 2^3 patterns are scanned.
        rep = run_json(
            capsys, "analyze", *self._wide_directive(198), "--max-length", "49", "--nmax", "3"
        )
        assert len(rep["results"]["scan"]["curves"]["3"]) > 0

    def test_scan_pattern_guard_runs_before_sampling(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the sample was drawn")

        monkeypatch.setattr(cli, "sample_level_language", boom)
        code, out, err = run(
            capsys, "analyze", "--directive", "|M", "--max-length", "60", "--nmax", "20000"
        )
        assert code == EXIT_RESOURCE_LIMIT
        assert out == ""
        assert err == "error: window scan needs more than 2^20000 patterns, limit 1048576\n"

    def test_scan_builds_indicators_only_for_occurring_patterns(self, capsys, monkeypatch):
        calls = []
        real = scan._match_into
        monkeypatch.setattr(
            scan, "_match_into", lambda t, p, *bufs: calls.append(p) or real(t, p, *bufs)
        )
        rep = run_json(
            capsys, "analyze", *self._wide_directive(198),
            "--max-length", str(EXHAUSTIVE_CAP + 1), "--nmax", "2",
        )
        # The scanned texts spell only 0 and 1 (letter codes "\0" and "\1")
        # of 200 symbols: one indicator per binary pattern and text, except
        # the letter b, whose counts are the window length minus a's.
        a, b = "\0", "\1"
        assert len(rep["results"]["scan"]["text_chars"]) == 2
        assert sorted(calls) == sorted([a, a + a, a + b, b + a, b + b] * 2)

    @pytest.mark.parametrize("wide", [True, False])
    def test_scan_patterns_skip_letters_no_text_holds(self, capsys, monkeypatch, wide):
        # The report equals the one scanned with all |A|^n patterns. With 32
        # level-0 symbols the scan texts are binary; S's texts hold only y,
        # and its report names the patterns x and xx, which no text holds.
        if wide:
            letters, options = 32, [*self._wide_directive(30), "--nmax", "3"]
        else:
            letters = 2
            options = ["--directive", "|S", "--register", "S=x->y;y->yy", "--nmax", "2"]
        argv = ["analyze", *options, "--max-length", "49"]
        _, want, _ = run(capsys, *argv)
        assert wide or '"pattern": "xx"' in want
        real = cli.window_imbalance_curve

        def full_product(texts, patterns, lens, **kwargs):
            codes = map(chr, range(letters))
            patterns = ["".join(p) for p in itertools.product(codes, repeat=len(patterns[0]))]
            return real(texts, patterns, lens, **kwargs)

        monkeypatch.setattr(cli, "window_imbalance_curve", full_product)
        assert run(capsys, *argv) == (EXIT_SUCCESS, want, "")

    def test_scan_passes_only_patterns_over_held_letters(self, capsys, monkeypatch):
        # 32 symbols at --nmax 4 would be 32^4 = 2^20 patterns of length 4;
        # the binary texts need 2^4.
        sizes = {}
        real = cli.window_imbalance_curve

        def counted(texts, patterns, lens, **kwargs):
            sizes[len(patterns[0])] = len(patterns)
            return real(texts, patterns, lens, **kwargs)

        monkeypatch.setattr(cli, "window_imbalance_curve", counted)
        run_json(capsys, "analyze", *self._wide_directive(30), "--max-length", "49", "--nmax", "4")
        assert sizes == {1: 2, 2: 4, 3: 8, 4: 16}

    def test_wide_scan_report_is_hash_seed_independent(self):
        argv = ["analyze", *self._wide_directive(30), "--max-length", "49", "--nmax", "3"]
        # The report must not depend on set or dict order of the letters.
        src = str(Path(wordbalance.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outs = [
            subprocess.run(
                [sys.executable, "-m", "wordbalance.cli", *argv],
                env={**env, "PYTHONHASHSEED": seed},
                capture_output=True,
                check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outs[0] and outs[0] == outs[1]

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

    @pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, target):
        path = str(tmp_path / target)
        code, out, err = run(capsys, "classify", "--directive", "|M", "--out", path)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def run_fresh_python(code):
    """stdout and stderr of `python -c code` in a new interpreter that
    imports this checkout of the package."""
    src = str(Path(wordbalance.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout, out.stderr


class TestImportCost:
    def test_cli_import_does_not_load_numpy(self):
        # numpy is loaded only by the scan functions; importing the CLI must
        # not pull it in, or every exact analyze pays for it.
        out, _ = run_fresh_python("import sys, wordbalance.cli; print('numpy' in sys.modules)")
        assert out.strip() == "False"

    def test_exact_analyze_does_not_load_numpy(self):
        # An exact analyze runs no window scan, so its sampling, balance and
        # frequency work must not load numpy either (about 0.1 s a process).
        code = (
            "import sys; from wordbalance.cli import main; "
            "code = main(['analyze', '--directive', '|M', '--max-length', '40']); "
            "print(code, 'numpy' in sys.modules, file=sys.stderr)"
        )
        out, err = run_fresh_python(code)
        assert json.loads(out)["command"] == "analyze"
        assert err.strip() == "0 False"

    def test_exact_analyze_loads_neither_tms_scan_numpy_nor_dataclasses(self):
        # Every process pays for what it imports (and, without a bytecode
        # cache, compiles); an exact analyze needs none of these.
        code = (
            "import sys\n"
            "unwanted = ('dataclasses', 'wordbalance.tms', 'wordbalance.scan', 'numpy')\n"
            "import wordbalance\n"
            "print(sorted(set(unwanted) & set(sys.modules)), file=sys.stderr)\n"
            "from wordbalance.cli import main\n"
            "code = main(['analyze', '--directive', '|M', '--max-length', '40'])\n"
            "print(code, sorted(set(unwanted) & set(sys.modules)), file=sys.stderr)\n"
        )
        out, err = run_fresh_python(code)
        assert json.loads(out)["results"]["sample"]["exact"] is True
        assert err.splitlines() == ["[]", "0 []"]

    def test_scan_analyze_loads_scan_and_numpy_but_not_tms(self):
        # The scan texts and their window scan both live in scan.py; tms
        # holds only the L/M/R family, which a scan past the cap never reads.
        code = (
            "import sys\n"
            "from wordbalance.cli import main\n"
            "code = main(['analyze', '--directive', 'LMR|ML', '--max-length', '60'])\n"
            "wanted = ('wordbalance.tms', 'wordbalance.scan', 'numpy')\n"
            "print(code, sorted(set(wanted) & set(sys.modules)), file=sys.stderr)\n"
        )
        out, err = run_fresh_python(code)
        assert "scan" in json.loads(out)["results"]
        assert err.strip() == "0 ['numpy', 'wordbalance.scan']"

    def test_no_module_loads_dataclasses(self):
        src = Path(wordbalance.__file__).resolve().parent
        names = sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
        assert "verification" in names and "tms" in names
        code = (
            "import importlib, sys\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module('wordbalance.' + name)\n"
            "print(len([m for m in sys.modules if m.startswith('wordbalance.')]),"
            " 'dataclasses' in sys.modules)\n"
        )
        out, _ = run_fresh_python(code)
        assert out.split() == [str(len(names)), "False"]

    def test_cli_import_does_not_load_verification(self):
        # Only verify needs the suite; every other command skips its imports.
        code = "import sys, wordbalance.cli; print('wordbalance.verification' in sys.modules)"
        out, _ = run_fresh_python(code)
        assert out.strip() == "False"

    def test_witness_loads_neither_numpy_nor_verification(self):
        # The witness recursion and its certificates are string work on the
        # M kernel; neither needs numpy or the verify suite.
        code = (
            "import sys\n"
            "from wordbalance.cli import main\n"
            "code = main(['witness', '--n', '4'])\n"
            "unwanted = ('numpy', 'wordbalance.verification')\n"
            "print(code, sorted(set(unwanted) & set(sys.modules)), file=sys.stderr)\n"
        )
        out, err = run_fresh_python(code)
        assert json.loads(out)["command"] == "witness"
        assert err.strip() == "0 []"


class TestLayout:
    def test_readme_layout_names_every_module(self):
        # The Layout block of the README lists each module of the package
        # once, as "  name.py  description"; description lines run on
        # further indented.
        src = Path(wordbalance.__file__).resolve().parent
        readme = (src.parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Layout", 1)[1].split("```")[1]
        listed = re.findall(r"^  (\w+\.py) ", block, re.MULTILINE)
        modules = sorted(p.name for p in src.glob("*.py") if p.stem != "__init__")
        assert sorted(listed) == modules

    def test_every_top_level_name_has_a_caller(self):
        # A top-level function or class of the package, or a method or
        # property of one of its classes (dunders aside), that no other line
        # of src/ names (as a name, an attribute or an import) is code that
        # no command runs. properness_profile waits for the factor-balance
        # verdict that will serve it.
        trees = [
            ast.parse(path.read_text(encoding="utf-8"))
            for path in Path(wordbalance.__file__).resolve().parent.glob("*.py")
        ]

        def names(node):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    yield sub.id
                elif isinstance(sub, ast.Attribute):
                    yield sub.attr
                elif isinstance(sub, ast.alias):
                    yield sub.name

        def definitions(tree):
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    yield node
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, ast.FunctionDef) and not (
                            sub.name.startswith("__") and sub.name.endswith("__")
                        ):
                            yield sub

        everywhere = collections.Counter(n for tree in trees for n in names(tree))
        unused = sorted(
            node.name
            for tree in trees
            for node in definitions(tree)
            if everywhere[node.name] == collections.Counter(names(node))[node.name]
        )
        assert unused == ["properness_profile"]

    def test_every_imported_name_is_read(self):
        # A module of src/ reads every name it imports (annotations count).
        # __init__ only re-exports its imports through __all__, and a
        # __future__ import is a compiler switch.
        unread = []
        for path in sorted(Path(wordbalance.__file__).resolve().parent.glob("*.py")):
            if path.stem == "__init__":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in read:
                            unread.append(f"{path.name}: {name}")
        assert unread == []
