"""Shared exception types for exact tangle arithmetic."""

from __future__ import annotations


class TangleError(Exception):
    """Base class for every library-specific error."""


class IndeterminateError(TangleError, ArithmeticError):
    """A projectively undefined combination: 0/0, inf + inf, or 0 * inf."""


class DivisorZeroError(IndeterminateError):
    """The virtual-twist divisor in the conductance recursion is degenerate.

    Raised when an entry carries a virtual marker but the prefix conductance
    and its flipped variant make the divisor expression projectively undefined.
    """

    def __init__(self, level: int, detail: str = ""):
        self.level = level
        msg = f"degenerate virtual-twist divisor at entry {level}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NotGaussianError(TangleError, ArithmeticError):
    """A value expected in Q(i) has nonzero zeta or zeta^3 coordinates."""

    def __init__(self, c1, c3):
        self.c1 = c1
        self.c3 = c3
        super().__init__(
            f"value lies outside Q(i): zeta coordinate {c1}, zeta^3 coordinate {c3}"
        )


class InvariantError(AssertionError):
    """An internal invariant of exact arithmetic broke, such as a field norm
    in Q(zeta_8) that is not rational.  This is a bug, not a property of the
    input, so it is deliberately not a TangleError: no route or suite may
    report it as a degenerate value.  Unlike an assert, it is raised under
    python -O as well.
    """


class MixedSignError(TangleError, ValueError):
    """A twist word mixes positive and negative classical crossings."""


class VectorSyntaxError(TangleError, ValueError):
    """Tangle-vector text that does not match the grammar."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (offset {offset})")


class VectorRuleError(TangleError, ValueError):
    """A well-formed vector that violates an entry-placement rule."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"entry {position}: {message}")


class UnsupportedPatternError(TangleError, ValueError):
    """A closed-form request for a vector shape with no displayed formula."""
