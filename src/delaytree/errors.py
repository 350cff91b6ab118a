"""Exception types shared across the package."""


class DelayTreeError(Exception):
    """Base class for all package-specific errors."""


class ArgumentError(DelayTreeError, ValueError):
    """An operation was called with arguments outside its domain."""


class AssumptionError(DelayTreeError, RuntimeError):
    """A kernel violates the standing assumptions (e.g. no Malthusian root)."""
