"""Refusals carry what they name: the resource, the requested size, the limit."""

import itertools

import pytest

from wordbalance import language
from wordbalance.language import GrowthReport, parse_directive, sample_level_language
from wordbalance.limits import ResourceLimitError, check_budget
from wordbalance.scan import level_scan_texts


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


def test_sizes_from_2_to_the_64_are_named_by_a_power_of_two():
    with pytest.raises(ResourceLimitError) as exc:
        check_budget("pattern list", 2**64 - 1, 1024)
    assert str(exc.value) == f"pattern list needs {2**64 - 1} characters, limit 1024"
    with pytest.raises(ResourceLimitError) as exc:
        check_budget("pattern list", 3 * 2**64, 1024)
    assert str(exc.value) == "pattern list needs more than 2^65 characters, limit 1024"
    assert exc.value.requested == 3 * 2**64


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
    claimed = GrowthReport(growing=True, exact=False)
    monkeypatch.setattr(language, "is_everywhere_growing", lambda d: claimed)
    with pytest.raises(ResourceLimitError) as exc:
        sample_level_language(parse_directive("L|L"), 0, 8)
    assert (exc.value.resource, exc.value.requested, exc.value.limit) == (
        "sample depth",
        None,
        4096,
    )


def test_the_fixed_point_round_limit_is_named(monkeypatch):
    # |M at N = 8 needs more than two rounds.
    monkeypatch.setattr(language, "_FIXED_POINT_SLACK", -6)
    with pytest.raises(ResourceLimitError) as exc:
        sample_level_language(parse_directive("|M"), 0, 8)
    assert str(exc.value) == "fixed-point sampling failed to stabilize"
    assert (exc.value.resource, exc.value.requested, exc.value.limit) == (
        "fixed-point rounds",
        None,
        2,
    )


def test_the_cap_escalation_limit_is_named(monkeypatch):
    verdicts = itertools.cycle([True, False])
    monkeypatch.setattr(language, "_capped_orbit", lambda images, weights, cap: next(verdicts))
    # tau = 0->01;1-> as letter counts per image, with unit weights.
    with pytest.raises(ResourceLimitError) as exc:
        language._capped_growth_verdict([(1, 1), (0, 0)], [1, 1])
    assert str(exc.value) == "growth decision did not stabilize under cap escalation"
    assert (exc.value.resource, exc.value.requested, exc.value.limit) == (
        "growth cap escalations",
        None,
        5,
    )
