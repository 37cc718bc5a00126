"""Shared fixtures and deterministic test configuration."""

import os
import sys

# No bytecode cache is written under src/, by this process or by the
# subprocesses that tests start: a cache left in one source tree makes every
# later run of that tree start faster than a fresh checkout's.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import pytest
from hypothesis import HealthCheck, settings

from wordbalance import parse_directive, sample_level_language

settings.register_profile(
    "deterministic",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def tm_sample():
    """Exact truncated doubling fixed-point language: all factors up to 8."""
    return sample_level_language(parse_directive("|M"), 0, 8)


@pytest.fixture(scope="session")
def left_sample():
    """Exact truncated language of the left one-sided fixed point, cap 10."""
    return sample_level_language(parse_directive("|L"), 0, 10)
