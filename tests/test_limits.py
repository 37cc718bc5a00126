"""Refusals carry what they name: the resource, the requested size, the limit."""

import pytest

from wordbalance import language
from wordbalance.language import GrowthReport, sample_level_language
from wordbalance.limits import ResourceLimitError, check_budget
from wordbalance.tms import level_scan_texts, parse_directive


def test_check_budget_sets_the_attributes():
    with pytest.raises(ResourceLimitError) as exc:
        check_budget("pattern list", 1025, 1024, "patterns")
    assert str(exc.value) == "pattern list needs 1025 patterns, limit 1024"
    assert (exc.value.resource, exc.value.requested, exc.value.limit) == (
        "pattern list",
        1025,
        1024,
    )


def test_check_budget_passes_at_the_limit():
    check_budget("pattern list", 1024, 1024)


def test_a_scan_refusal_names_its_sizes():
    # |M at level 26: two letter texts of 2^26 characters, nothing clipped.
    with pytest.raises(ResourceLimitError) as exc:
        level_scan_texts(parse_directive("|M"), 10**8, 10**12)
    assert (exc.value.resource, exc.value.requested, exc.value.limit) == (
        "scan expansion",
        2 * 2**26,
        80_000_000,
    )


def test_a_message_alone_leaves_the_sizes_unset():
    exc = ResourceLimitError("fixed-point sampling failed to stabilize")
    assert str(exc) == "fixed-point sampling failed to stabilize"
    assert (exc.resource, exc.requested, exc.limit) == (None, None, None)


def test_the_default_depth_refusal_names_its_limit(monkeypatch):
    claimed = GrowthReport(growing=True, exact=False, certificate={})
    monkeypatch.setattr(language, "is_everywhere_growing", lambda d: claimed)
    with pytest.raises(ResourceLimitError) as exc:
        sample_level_language(parse_directive("L|L"), 0, 8)
    assert (exc.value.resource, exc.value.requested, exc.value.limit) == (
        "sample depth",
        None,
        4096,
    )
