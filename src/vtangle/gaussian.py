"""Gaussian rationals Q(i) with a projective point at infinity.

Conductance values live here.  Arithmetic follows the projective rules:
invert(0) = inf, invert(inf) = 0, inf + finite = inf; the genuinely undefined
combinations inf + inf and 0 * inf raise IndeterminateError.

A value (a + b*i)/d is stored as the integers (a, b, d), kept canonical:
gcd(a, b, d) == 1 and d > 0, so equal values have equal triples.  d == 0 is
the point at infinity, (1, 0, 0).  Fraction parts are built only on request.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import IndeterminateError


class GaussRational:
    """An exact complex number p/q + (r/s)i, or the single point at infinity."""

    __slots__ = ("_v",)

    def __init__(self, re=0, im=0):
        fast = type(re) is int and type(im) is int
        _SET(self, (re, im, 1) if fast else _over_one_denominator((re, im)))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    def __reduce__(self):
        return _raw, self._v

    @classmethod
    def infinity(cls) -> "GaussRational":
        return _raw(1, 0, 0)

    @classmethod
    def from_ints(cls, re_num: int, im_num: int, den: int) -> "GaussRational":
        """(re_num + im_num*i)/den for integers with den != 0."""
        if den < 0:
            re_num, im_num, den = -re_num, -im_num, -den
        return _canon(re_num, im_num, den)

    @property
    def is_infinite(self) -> bool:
        return not self._v[2]

    @property
    def re(self) -> Fraction:
        a, _, d = self._v
        if not d:
            raise IndeterminateError("the point at infinity has no real part")
        from fractions import Fraction
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._v
        if not d:
            raise IndeterminateError("the point at infinity has no imaginary part")
        from fractions import Fraction
        return Fraction(b, d)

    def is_zero(self) -> bool:
        a, b, _ = self._v
        return not (a or b)

    @property
    def is_real(self) -> bool:
        """Whether the value is real; infinity counts as real (classical value)."""
        _, b, d = self._v
        return not (b and d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self._v == other._v

    def __hash__(self) -> int:
        return hash(self._v)

    def __add__(self, other: "GaussRational") -> "GaussRational":
        if not isinstance(other, GaussRational):
            return NotImplemented
        a, b, d = self._v
        c, e, f = other._v
        if not (d and f):
            if d or f:
                return INFINITY
            raise IndeterminateError("inf + inf is undefined")
        return _canon(a * f + c * d, b * f + e * d, d * f)

    def add_int(self, n: int) -> "GaussRational":
        """self + n for an integer n (infinity is fixed).  No reduction is
        needed: gcd(a + n*d, b, d) == gcd(a, b, d) == 1."""
        a, b, d = self._v
        return _raw(a + n * d, b, d) if d else INFINITY

    def __neg__(self) -> "GaussRational":
        a, b, d = self._v
        return _raw(-a, -b, d) if d else INFINITY

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        if not isinstance(other, GaussRational):
            return NotImplemented
        a, b, d = self._v
        c, e, f = other._v
        if not (d and f):
            if (a or b) and (c or e):
                return INFINITY
            raise IndeterminateError("0 * inf is undefined")
        return _canon(a * c - b * e, a * e + b * c, d * f)

    def invert(self) -> "GaussRational":
        a, b, d = self._v
        if not d:
            return G_ZERO
        if not (a or b):
            return INFINITY
        # d/(a + bi) = d(a - bi)/(a^2 + b^2)
        return _canon(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other: "GaussRational") -> "GaussRational":
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self * other.invert()

    def mul_i(self) -> "GaussRational":
        """Multiply by i (infinity is fixed)."""
        a, b, d = self._v
        return _raw(-b, a, d) if d else INFINITY

    def parts_text(self) -> tuple:
        """The real and imaginary parts as n/d texts; ("inf", "inf") at infinity."""
        a, b, d = self._v
        if not d:
            return "inf", "inf"
        return _ratio_text(a, d), _ratio_text(b, d)

    def __str__(self) -> str:
        a, b, d = self._v
        if not d:
            return "inf"
        sign = "-" if b < 0 else "+"
        return f"{_ratio_text(a, d)} {sign} {_ratio_text(abs(b), d)}*i"

    def real_str(self) -> str:
        """Canonical text for a real value: n/d or inf."""
        a, b, d = self._v
        if not d:
            return "inf"
        if b:
            raise IndeterminateError("value is not real")
        return _ratio_text(a, d)

    def __repr__(self) -> str:
        if self.is_infinite:
            return "GaussRational.infinity()"
        return f"GaussRational({self.re!r}, {self.im!r})"


_SET = GaussRational._v.__set__
_NEW = object.__new__


def _raw(a: int, b: int, d: int) -> GaussRational:
    """The value with an already canonical triple."""
    v = _NEW(GaussRational)
    _SET(v, (a, b, d))
    return v


def _canon(a: int, b: int, d: int) -> GaussRational:
    """(a + bi)/d for d > 0, reduced to lowest terms."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _raw(a, b, d)


def _over_one_denominator(values) -> tuple:
    """(n_1, ..., n_k, d) with values[j] == n_j/d, d the least common
    denominator; the integers then have no common factor."""
    if all(type(x) is int for x in values):
        return (*values, 1)
    from fractions import Fraction
    fs = [Fraction(x) for x in values]
    d = lcm(*(f.denominator for f in fs))
    return tuple(f.numerator * (d // f.denominator) for f in fs) + (d,)


def _ratio_text(n: int, d: int) -> str:
    """n/d in lowest terms with a positive denominator, as Fraction prints it."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


INFINITY = GaussRational.infinity()
G_ZERO = GaussRational(0, 0)
G_ONE = GaussRational(1, 0)
G_I = GaussRational(0, 1)
