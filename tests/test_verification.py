"""The self-verification suite: check ids, filtering, and a full green run."""

import json
import re

import pytest

from wordbalance.language import factorial_closure, parse_directive, sample_level_language
from wordbalance.substitution import Substitution
from wordbalance.tms import builtin
from wordbalance.words import sort_words
from wordbalance import verification
from wordbalance.verification import CHECKS, _image_closure, run_checks


class TestSuiteMetadata:
    def test_ids_unique_and_slug_like(self):
        ids = [check_id for check_id, _ in CHECKS]
        assert len(ids) == len(set(ids))
        assert all(re.fullmatch(r"[a-z0-9]+(-[a-z0-9]+)*", i) for i in ids)
        assert len(ids) >= 20

    def test_filter_miss_raises(self):
        with pytest.raises(ValueError):
            run_checks(only="zzz-no-such-check")

    def test_single_filter(self):
        results = run_checks(only="report-round-trip")
        assert [r.check_id for r in results] == ["report-round-trip"]
        assert results[0].passed


class TestFullSuite:
    def test_all_checks_pass(self):
        results = run_checks()
        failed = [r.check_id for r in results if not r.passed]
        assert failed == []
        assert len(results) == len(CHECKS)
        for r in results:
            d = r.as_dict()
            assert d["check_id"] == r.check_id
            assert isinstance(d["passed"], bool)
            json.dumps(d)  # JSON-safe details


class TestWorkCounters:
    def test_occurrence_preservation_work(self):
        """The check's work is pinned, so a speed-up cannot come from less of it."""
        (result,) = run_checks(only="occurrence-preservation")
        assert result.passed
        d = result.details
        assert d["compositions"] == 84
        assert d["distinct_substitutions"] == 40
        assert d["factors"] == 15812
        assert d["factor_depth"] == 12
        assert d["checked"] == 1328208
        assert d["violations"] == 0


class TestImageClosure:
    @pytest.mark.parametrize(
        "sigma",
        [builtin("L"), builtin("M"), builtin("R"), Substitution.from_text("0->;1->10")],
        ids=["L", "M", "R", "erasing"],
    )
    def test_matches_the_closure_of_word_images(self, sigma):
        source = sample_level_language(parse_directive("|M"), 0, 8)
        images = [sigma.apply(w) for w in sort_words(w for w in source.words if w)]
        cap = max(len(w) for w in images)
        want = factorial_closure(images, cap, alphabet=sigma.codomain)
        assert _image_closure(source, sigma) == want


class TestSweepKernels:
    def test_the_sweeps_read_spreads_and_only_m_periods_take_witnesses(self, monkeypatch):
        # Dense length ranges read spreads from occurrence-span tables; the
        # M-only periods keep the witness kernel for their three lengths.
        calls = []
        for name in ("window_imbalance_curve", "window_spreads"):
            real = getattr(verification, name)
            monkeypatch.setattr(
                verification,
                name,
                lambda texts, patterns, lens, name=name, real=real, **kwargs: calls.append(
                    (name, list(lens))
                )
                or real(texts, patterns, lens, **kwargs),
            )
        assert verification.check_letter_balance_sweep().passed
        assert calls == [("window_spreads", list(range(1, 201)))] * 50
        calls.clear()
        assert verification.check_classifier_sweep().passed
        curve_calls = [lens for name, lens in calls if name == "window_imbalance_curve"]
        assert curve_calls == [[6, 86, 1366]] * 3
        assert calls.count(("window_spreads", list(range(2, 401)))) == 36
        assert len(calls) == 39
