"""Shared exception types and the integer-parameter rule."""

import numpy as np


class SpecParseError(ValueError):
    """A distribution / policy / stream / config spec string failed to parse."""


class RegularityError(ValueError):
    """A distribution failed a regularity check required by a mechanism."""


def require_int(name: str, value, minimum: int) -> int:
    """Return ``value`` as an int; raise ValueError unless it is a Python or
    NumPy integer, not a bool, and at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)
