"""Exception hierarchy.

Two families matter to callers: :class:`InstanceError` means the input was
bad, :class:`InternalInvariantViolation` that the analyzer caught itself
producing mathematically impossible output; the second should be unreachable,
and exists so that bugs fail loudly instead of yielding a quietly wrong report.
``condisc.cli._failure`` maps every exception to its CLI exit code and message.
"""

from __future__ import annotations


class CondiscError(Exception):
    """Base class for all package errors."""


class InstanceError(CondiscError):
    """The supplied instance is invalid (bad prime, bad roots, bad matrix)."""


class DuplicateRootsError(InstanceError):
    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        listed = ", ".join(f"({i}, {j})" for i, j in self.pairs)
        super().__init__(f"duplicate roots at indices {listed}")


class TooFewRootsError(InstanceError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(
            f"need at least 6 roots (genus >= 2), got {n}; "
            "pass allow_small=True / --allow-small-genus for synthetic cases"
        )


class UltrametricViolationError(InstanceError):
    def __init__(self, violations):
        self.violations = tuple(violations)
        listed = ", ".join(f"({i}, {j}, {k})" for i, j, k in self.violations)
        super().__init__(f"ultrametric violation at triples {listed}")


class InternalInvariantViolation(CondiscError):
    """A proved identity failed on concrete data; this is an analyzer bug."""

    def __init__(self, message: str, vertex=None):
        self.vertex = vertex
        if vertex is not None:
            message = f"{message} (at vertex {vertex})"
        super().__init__(message)


class InequalityViolated(InternalInvariantViolation):
    pass
