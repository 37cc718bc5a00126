"""Size guards shared by every layer.

A guard runs before the object it protects is built, and its refusal names
the resource, the requested size and the limit.
"""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """The request would exceed the configured memory/size budget."""


def check_budget(resource: str, requested: int, limit: int, unit: str = "characters") -> None:
    """Raise ResourceLimitError when `requested` exceeds `limit`."""
    if requested > limit:
        raise ResourceLimitError(f"{resource} needs {requested} {unit}, limit {limit}")
