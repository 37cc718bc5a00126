"""Size guards shared by every layer.

A guard runs before the object it protects is built, and its refusal names
the resource, the requested size and the limit.
"""

from __future__ import annotations

from typing import Optional


class ResourceLimitError(RuntimeError):
    """The request would exceed the configured memory/size budget.

    `resource`, `requested` and `limit` hold what the message names; each
    is None where the refusal has no such size, and `requested` also where
    the size is too large to build (see refuse_huge).
    """

    def __init__(
        self,
        message: str,
        resource: Optional[str] = None,
        requested: Optional[int] = None,
        limit: Optional[int] = None,
    ):
        super().__init__(message)
        self.resource = resource
        self.requested = requested
        self.limit = limit


def check_budget(resource: str, requested: int, limit: int, unit: str = "characters") -> None:
    """Raise ResourceLimitError when `requested` exceeds `limit`."""
    if requested > limit:
        size = requested if requested < 2**64 else f"more than 2^{requested.bit_length() - 1}"
        raise ResourceLimitError(
            f"{resource} needs {size} {unit}, limit {limit}", resource, requested, limit
        )


def refuse_huge(resource: str, bits: int, limit: int, unit: str = "characters") -> None:
    """check_budget for a size of `bits` bits, refused before it is built.

    check_budget names a size of more than 64 bits by its bit length alone,
    so such a size over the limit is refused here from that length, with
    the same message. Smaller sizes pass through, to check_budget.
    """
    if bits > max(64, limit.bit_length()):
        raise ResourceLimitError(
            f"{resource} needs more than 2^{bits - 1} {unit}, limit {limit}", resource, None, limit
        )
