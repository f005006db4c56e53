"""Shared exception types, the integer-parameter rule and the spec grammar."""

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


def parse_spec(text: str, what: str, kinds: dict, *context):
    """Build the object a ``kind[:a,b,...]`` spec names.

    ``kinds`` maps each kind to ``(casts, constructor)``: one cast per
    parameter, and a constructor called as ``constructor(*params, *context)``.
    An unknown kind, a wrong parameter count, a parameter its cast rejects or
    a ValueError from the constructor is a SpecParseError naming ``text``; a
    RegularityError passes through unchanged.  It keeps ``text`` as ``spec``.
    """
    kind, _, rest = text.strip().partition(":")
    kind = kind.strip().lower()
    if kind not in kinds:
        raise SpecParseError(f"unknown {what} kind {kind!r} in {text!r}; choose from {sorted(kinds)}")
    casts, constructor = kinds[kind]
    params = [p.strip() for p in rest.split(",")] if rest.strip() else []
    if len(params) != len(casts):
        problem = "missing parameters" if len(params) < len(casts) else "too many parameters"
        raise SpecParseError(f"{what} spec {text!r}: {problem}; {kind!r} takes {len(casts)}")
    try:
        values = [cast(tok) for cast, tok in zip(casts, params)]
        built = constructor(*values, *context)
    except RegularityError:
        raise
    except ValueError as exc:
        raise SpecParseError(f"invalid {what} spec {text!r}: {exc}") from None
    object.__setattr__(built, "spec", text.strip())  # later errors name it as written, not by its float repr
    return built
