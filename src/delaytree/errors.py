"""Exception types shared across the package, and the count check at its boundaries."""

import numbers


class DelayTreeError(Exception):
    """Base class for all package-specific errors."""


class ArgumentError(DelayTreeError, ValueError):
    """An operation was called with arguments outside its domain."""


class AssumptionError(DelayTreeError, RuntimeError):
    """A kernel violates the standing assumptions (e.g. no Malthusian root)."""


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int; ArgumentError unless it is a Python or NumPy integer of at least ``least``."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ArgumentError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)
