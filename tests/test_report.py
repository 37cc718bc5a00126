"""Report assembly, exact number encoding, and the three output formats."""

import importlib
import json
import pkgutil
from fractions import Fraction

import pytest

import wordbalance
from wordbalance.balance import FrequencyVector
from wordbalance.language import parse_directive, sample_level_language
from wordbalance.report import (
    FORMATS,
    SCHEMA_VERSION,
    build_report,
    from_csv,
    from_json,
    rational_str,
    render_report,
    to_csv,
    to_json,
    to_text,
)


class TestRationalEncoding:
    def test_integral_values_stay_ints(self):
        assert rational_str(7) == 7
        assert rational_str(-3) == -3
        assert rational_str(Fraction(6, 3)) == 2

    def test_proper_fractions_become_strings(self):
        assert rational_str(Fraction(1, 2)) == "1/2"
        assert rational_str(Fraction(-5, 4)) == "-5/4"

    def test_booleans_rejected(self):
        with pytest.raises(TypeError):
            rational_str(True)

    def test_round_trip(self):
        for f in (Fraction(0), Fraction(22, 7), Fraction(-9, 8), Fraction(4)):
            assert Fraction(rational_str(f)) == f


class TestBuildReport:
    def test_top_level_keys(self):
        rep = build_report("analyze", {"n": 1}, {"ok": True})
        assert set(rep) == {"schema_version", "command", "config", "results", "checks"}
        assert rep["schema_version"] == SCHEMA_VERSION == 1
        assert rep["checks"] == []

    def test_checks_pass_through(self):
        checks = [{"check_id": "x", "passed": True, "details": None}]
        rep = build_report("verify", {}, {}, checks=checks)
        assert rep["checks"] == checks

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            build_report("analyze", {}, {"value": 0.5})

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            build_report("analyze", {}, {1: "x"})

    def test_unsupported_values_rejected(self):
        with pytest.raises(TypeError):
            build_report("analyze", {}, {"value": Fraction(1, 2)})
        with pytest.raises(TypeError):
            build_report("analyze", {}, {"value": {1, 2}})


def package_records():
    """One instance of every record class in the package: each NamedTuple
    with small ints as fields (each a valid report value on its own), and
    the four immutable value classes."""
    modules = [
        importlib.import_module(f"wordbalance.{m.name}")
        for m in pkgutil.iter_modules(wordbalance.__path__)
    ]
    tuples = sorted(
        {
            obj
            for module in modules
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
            and obj.__module__.startswith("wordbalance.")
        },
        key=lambda cls: cls.__name__,
    )
    sample = sample_level_language(parse_directive("|M"), 0, 4)
    values = [sample.alphabet, next(iter(sample.words)), sample, FrequencyVector(
        sample.alphabet, (Fraction(1, 2), Fraction(1, 2)))]
    return [cls._make(range(len(cls._fields))) for cls in tuples] + values


RECORDS = package_records()


def test_every_named_tuple_record_is_found():
    assert sorted(type(r).__name__ for r in RECORDS if isinstance(r, tuple)) == [
        "BalanceEntry", "BalanceReport", "BlockSubstitution", "CheckResult",
        "Classification", "GrowthReport", "ImageDecomposition", "LiftedFrequency",
        "PropernessProfile", "SampleMeta", "ScanWitness", "Witness", "WitnessPair",
    ]


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_records_never_leak_into_a_report(record):
    # A NamedTuple is a tuple, and a report holds lists, never tuples.
    for results in ({"value": record}, {"list": [1, record]}, {"nested": {"x": [record]}}):
        with pytest.raises(TypeError, match="^unsupported report value"):
            build_report("analyze", {}, results)


SAMPLE = {
    "schema_version": 1,
    "command": "analyze",
    "config": {"directive": "|M", "max_length": 40, "flag": None},
    "results": {
        "curve": [[1, 1], [2, 2]],
        "frequency": {"0": "1/2", "1": "1/2"},
        "empty_map": {},
        "empty_list": [],
        "growing": True,
    },
    "checks": [],
}


class TestJsonFormat:
    def test_deterministic_and_terminated(self):
        a, b = to_json(SAMPLE), to_json(SAMPLE)
        assert a == b
        assert a.endswith("\n")
        assert from_json(a) == SAMPLE

    def test_keys_sorted(self):
        text = to_json({"b": 1, "a": 2, "command": "x"})
        assert text.index('"a"') < text.index('"b"')


class TestCsvFormat:
    def test_round_trip(self):
        assert from_csv(to_csv(SAMPLE)) == SAMPLE

    def test_header_and_paths(self):
        import csv
        import io

        rows = list(csv.reader(io.StringIO(to_csv(SAMPLE))))
        assert rows[0] == ["path", "value"]
        paths = {tuple(json.loads(path)) for path, _ in rows[1:]}
        assert ("results", "curve", 0, 0) in paths
        assert ("results", "empty_map", "{}") in paths

    def test_same_numbers_as_json(self):
        parsed = from_csv(to_csv(SAMPLE))
        assert parsed["results"]["frequency"]["0"] == "1/2"
        assert parsed["results"]["curve"] == [[1, 1], [2, 2]]
        assert parsed["results"]["empty_map"] == {}
        assert parsed["results"]["empty_list"] == []
        assert parsed["config"]["flag"] is None
        assert parsed["results"]["growing"] is True

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            from_csv("key,val\n")
        with pytest.raises(ValueError):
            from_csv("")


class TestTextFormat:
    def test_renders_scalars(self):
        text = to_text(SAMPLE)
        assert "directive: |M" in text
        assert "flag: null" in text
        assert "growing: true" in text
        assert "(empty)" in text
        assert text.endswith("\n")


class TestRenderDispatch:
    def test_formats_cover_constant(self):
        for fmt in FORMATS:
            assert isinstance(render_report(SAMPLE, fmt), str)
        assert FORMATS == ("json", "csv", "text")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(SAMPLE, "yaml")
