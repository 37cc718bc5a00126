"""The self-verification suite: check ids, filtering, and a full green run."""

import json
import re

import pytest

from wordbalance.verification import CHECKS, run_checks


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
