"""Tangle vectors: the integer-and-marker encoding of virtual rational tangles.

A vector ((a1, e1), ..., (an, en)) alternates horizontal and vertical twist
regions, first entry horizontal by default; each marker e appends one virtual
crossing to its region.  The first entry may be the infinite placeholder INF
(the trivial vertical tangle) with no marker.
"""

from __future__ import annotations

import re

from ._value import Value, setters
from .errors import VectorRuleError, VectorSyntaxError

_INT_RE = re.compile(r"[+-]?[0-9]+")


class _Infinity:
    """Placeholder for the infinite first entry of a tangle vector."""

    __slots__ = ()

    def __repr__(self):
        return "INF"

    def __str__(self):
        return "inf"

    def __reduce__(self):
        return "INF"  # pickle and copy keep the one instance


INF = _Infinity()


class TangleVector(Value):
    """Entries (a, e) with a an int or INF and e in {0, 1}.

    first_is_horizontal fixes the axis convention for entry 1; vertical-first
    vectors normalize to the INF-prefixed horizontal-first form.
    """

    __slots__ = ("entries", "first_is_horizontal")

    def __init__(self, entries: tuple, first_is_horizontal: bool = True):
        _SET_ENTRIES(self, entries)
        _SET_FIRST_IS_HORIZONTAL(self, first_is_horizontal)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def classical(self) -> bool:
        return all(e == 0 for _, e in self.entries)

    @property
    def crossing_count(self) -> int:
        total = 0
        for a, e in self.entries:
            if a is not INF:
                total += abs(a)
            total += e
        return total

    def normalized(self) -> "TangleVector":
        """Horizontal-first form; a vertical-first vector gains an INF prefix."""
        if self.first_is_horizontal:
            return self
        return TangleVector(((INF, 0),) + self.entries, True)

    def extended_odd(self) -> "TangleVector":
        """Append the trailing trivial (0, 0) entry if the length is even."""
        v = self.normalized()
        if len(v.entries) % 2 == 1:
            return v
        return TangleVector(v.entries + ((0, 0),), True)

    def validate(self) -> None:
        """Raise VectorRuleError on any entry-placement violation."""
        if not self.entries:
            raise VectorRuleError("a tangle vector needs at least one entry", 1)
        for i, (a, e) in enumerate(self.entries):
            if e not in (0, 1):
                raise VectorRuleError("virtual marker must be 0 or 1", i + 1)
            if a is INF:
                if e:
                    raise VectorRuleError("inf cannot carry a virtual marker", i + 1)
                if i != 0 or not self.first_is_horizontal:
                    raise VectorRuleError(
                        "inf is allowed only as the first entry of a"
                        " horizontal-first vector",
                        i + 1,
                    )
            elif not isinstance(a, int):
                raise VectorRuleError("twist count must be an integer or inf", i + 1)
        ext = self.extended_odd().entries
        for i in range(1, len(ext) - 1):
            if ext[i] == (0, 0):
                raise VectorRuleError(
                    "interior entry 0 needs a virtual marker (0v) or should"
                    " be removed",
                    i + 1,
                )

    def __str__(self) -> str:
        return format_vector(self)


_SET_ENTRIES, _SET_FIRST_IS_HORIZONTAL = setters(TangleVector)


def format_vector(v: TangleVector) -> str:
    """Canonical text form, e.g. '2,-3v,1' or 'inf,2'."""
    parts = []
    for a, e in v.entries:
        body = "inf" if a is INF else str(a)
        parts.append(body + ("v" if e else ""))
    return ",".join(parts)


def parse_vector(text: str) -> TangleVector:
    """Parse the comma-separated grammar; offsets in errors index into text.

    Whitespace may surround an entry but not split it, and digits are ASCII.
    """
    if text.strip() == "":
        raise VectorSyntaxError("empty vector", 0)
    entries = []
    offset = 0
    for idx, raw in enumerate(text.split(",")):
        stripped = raw.strip()
        lead = len(raw) - len(raw.lstrip())
        start = offset + lead
        offset += len(raw) + 1
        if stripped == "":
            raise VectorSyntaxError("empty entry", start)
        if stripped == "inf":
            entries.append((INF, 0))
            continue
        if stripped == "infv":
            raise VectorRuleError("inf cannot carry a virtual marker", idx + 1)
        eps = 0
        body = stripped
        if body.endswith("v"):
            eps = 1
            body = body[:-1]
        if not _INT_RE.fullmatch(body):
            raise VectorSyntaxError(f"expected an integer entry, got {stripped!r}", start)
        entries.append((int(body), eps))
    v = TangleVector(tuple(entries))
    v.validate()
    return v
