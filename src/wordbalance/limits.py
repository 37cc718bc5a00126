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
        try:
            size = str(requested)
        except ValueError:  # more digits than Python converts to a string
            size = f"more than 2^{requested.bit_length() - 1}"
        raise ResourceLimitError(f"{resource} needs {size} {unit}, limit {limit}")
