"""Exception types shared across the package, the immutable base of the
validated value types, and the check of caps given by a caller.

Structural problems (malformed input data) are kept distinct from semantic
violations (well-formed data that breaks an axiom): the former raise
StructuralError, the latter are collected into validation reports and only
raise (as InvariantError) when a constructor is asked to build an object
from data that fails its invariants.
"""

from __future__ import annotations


class QuantalgError(Exception):
    """Base class for all package errors."""


class StructuralError(QuantalgError):
    """Malformed input: wrong shape, unknown identifier, bad literal."""


class InvariantError(QuantalgError):
    """Well-formed data violating a required axiom; carries the report."""

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = list(violations)

    def __str__(self) -> str:
        base = super().__str__()
        if not self.violations:
            return base
        lines = [base] + [f"  - {v}" for v in self.violations[:10]]
        if len(self.violations) > 10:
            lines.append(f"  ... {len(self.violations) - 10} more")
        return "\n".join(lines)


class Frozen:
    """Immutable value whose public constructor checks its invariants.

    A subclass stores its fields in ``_set``; its ``__init__`` checks the
    data and then calls ``_set``.  ``_derived`` calls ``_set`` alone, for
    constructions whose result holds the invariants by construction, so
    data is checked where it enters the program and nowhere else.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _derived(cls, *args):
        self = object.__new__(cls)
        self._set(*args)
        return self


def check_cap(kind: str, cap: int | None, least: int = 0) -> None:
    """Reject a given cap below its least meaningful value (None means the
    default budget)."""
    if cap is not None and cap < least:
        raise StructuralError(f"{kind} cap must be at least {least}, got {cap}")


class CapExceededError(QuantalgError):
    """A configured enumeration/size cap would be exceeded."""

    def __init__(self, kind: str, needed: int, cap: int):
        super().__init__(
            f"{kind}: {needed} exceeds the configured cap of {cap}; "
            "raise the cap or shrink the instance"
        )
        self.kind = kind
        self.needed = needed
        self.cap = cap


class ConvergenceError(QuantalgError):
    """The closure iteration hit its pass cap without reaching a fixpoint."""

    def __init__(self, passes: int, previous, current):
        super().__init__(
            f"closure did not converge within {passes} passes; "
            "the last two iterates are attached"
        )
        self.passes = passes
        self.previous = previous
        self.current = current
