"""Exception hierarchy shared across the package.

Two classes matter to callers: ModelFormatError signals unreadable or
schema-violating input (CLI exit code 1), everything else derived from
LiftcompError signals a violated precondition or invariant (exit code 2).
"""

__all__ = [
    "LiftcompError",
    "ModelFormatError",
    "InvariantError",
    "EnumerationCapError",
    "ArityCapError",
    "UnsupportedTopologyError",
]


class LiftcompError(Exception):
    """Base class for all errors raised by this package."""


class ModelFormatError(LiftcompError):
    """Malformed model/evidence input; message carries a path to the bad field."""


class InvariantError(LiftcompError):
    """A documented precondition or invariant does not hold."""


class EnumerationCapError(InvariantError):
    """Joint state space exceeds the configured enumeration cap."""


class ArityCapError(InvariantError):
    """Factor arity exceeds the permutation-search cap."""


class UnsupportedTopologyError(InvariantError):
    """A query the lifted evaluator does not answer: a non-hub target, or evidence."""
