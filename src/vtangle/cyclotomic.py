"""Exact arithmetic in Q(zeta_8), where the bracket is evaluated at A = zeta_8.

zeta_8 is a primitive 8th root of unity: zeta^4 = -1, zeta^2 = i.  An element
(n0 + n1*zeta + n2*zeta^2 + n3*zeta^3)/d is stored as the five integers
(n0, n1, n2, n3, d), kept canonical: gcd(n0, n1, n2, n3, d) == 1 and d > 0.
The Fraction coordinates c0..c3 are built only on request.
"""

from __future__ import annotations

from math import gcd

from .errors import InvariantError, NotGaussianError
from .gaussian import GaussRational, _over_one_denominator, _raw as _gauss_raw
from .laurent import LaurentPoly


class Cyc8:
    """An element c0 + c1*zeta + c2*zeta^2 + c3*zeta^3 of Q(zeta_8)."""

    __slots__ = ("_v",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        _SET(self, _over_one_denominator((c0, c1, c2, c3)))

    def __setattr__(self, name, value):
        raise AttributeError("Cyc8 is immutable")

    def __reduce__(self):
        return _raw, self._v

    def coords(self) -> tuple:
        from fractions import Fraction
        *ns, d = self._v
        return tuple(Fraction(n, d) for n in ns)

    c0 = property(lambda self: self.coords()[0])
    c1 = property(lambda self: self.coords()[1])
    c2 = property(lambda self: self.coords()[2])
    c3 = property(lambda self: self.coords()[3])

    def is_zero(self) -> bool:
        n0, n1, n2, n3, _ = self._v
        return not (n0 or n1 or n2 or n3)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyc8):
            return NotImplemented
        return self._v == other._v

    def __hash__(self) -> int:
        return hash(self._v)

    def __add__(self, other: "Cyc8") -> "Cyc8":
        if not isinstance(other, Cyc8):
            return NotImplemented
        a0, a1, a2, a3, ad = self._v
        b0, b1, b2, b3, bd = other._v
        return _canon(
            a0 * bd + b0 * ad, a1 * bd + b1 * ad, a2 * bd + b2 * ad, a3 * bd + b3 * ad, ad * bd
        )

    def __neg__(self) -> "Cyc8":
        n0, n1, n2, n3, d = self._v
        return _raw(-n0, -n1, -n2, -n3, d)

    def __sub__(self, other: "Cyc8") -> "Cyc8":
        if not isinstance(other, Cyc8):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Cyc8") -> "Cyc8":
        if not isinstance(other, Cyc8):
            return NotImplemented
        a0, a1, a2, a3, ad = self._v
        b0, b1, b2, b3, bd = other._v
        # Schoolbook product; zeta^(4+k) = -zeta^k.
        return _canon(
            a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
            ad * bd,
        )

    def __pow__(self, n: int) -> "Cyc8":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        out = C_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def galois(self, k: int) -> "Cyc8":
        """Apply the automorphism zeta -> zeta^k for odd k in {1,3,5,7}."""
        n0, n1, n2, n3, d = self._v
        if k == 1:
            return self
        if k == 3:
            return _raw(n0, n3, -n2, n1, d)
        if k == 5:
            return _raw(n0, -n1, n2, -n3, d)
        if k == 7:
            return _raw(n0, -n3, -n2, -n1, d)
        raise ValueError("Galois automorphisms of Q(zeta_8) need odd k in 1..7")

    def invert(self) -> "Cyc8":
        """1/x by the Galois norm, down the tower Q(zeta_8) > Q(i) > Q:
        p = x * galois(x, 5) lies in Q(i), so 1/x = galois(x, 5) * conj(p) / |p|^2.
        InvariantError if p leaves Q(i), which exact arithmetic rules out."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_8)")
        n0, n1, n2, n3, d = self._v
        conj = _raw(n0, -n1, n2, -n3, 1)
        p0, p1, p2, p3, _ = (_raw(n0, n1, n2, n3, 1) * conj)._v
        if p1 or p3:
            raise InvariantError("field norm must be rational")
        # conj * (p0 - p2*i) * d / (p0^2 + p2^2); i * zeta^k = zeta^(k+2).
        return _canon(
            d * (p0 * n0 + p2 * n2),
            d * (-p0 * n1 - p2 * n3),
            d * (p0 * n2 - p2 * n0),
            d * (-p0 * n3 + p2 * n1),
            p0 * p0 + p2 * p2,
        )

    def __truediv__(self, other: "Cyc8") -> "Cyc8":
        if not isinstance(other, Cyc8):
            return NotImplemented
        return self * other.invert()

    def to_gauss(self) -> GaussRational:
        """Reinterpret as an element of Q(i); loud error if zeta coordinates remain."""
        n0, n1, n2, n3, d = self._v
        if n1 or n3:
            raise NotGaussianError(*self.coords()[1::2])
        return _gauss_raw(n0, n2, d)

    def __str__(self) -> str:
        return "{} + {}*z + {}*z^2 + {}*z^3".format(*self.coords())

    def __repr__(self) -> str:
        return "Cyc8({!r}, {!r}, {!r}, {!r})".format(*self.coords())


_SET = Cyc8._v.__set__
_NEW = object.__new__


def _raw(n0: int, n1: int, n2: int, n3: int, d: int) -> Cyc8:
    """The element with already canonical integers."""
    v = _NEW(Cyc8)
    _SET(v, (n0, n1, n2, n3, d))
    return v


def _canon(n0: int, n1: int, n2: int, n3: int, d: int) -> Cyc8:
    """(n0 + n1*zeta + n2*zeta^2 + n3*zeta^3)/d for d > 0, in lowest terms."""
    g = gcd(n0, n1, n2, n3, d)
    if g != 1:
        n0, n1, n2, n3, d = n0 // g, n1 // g, n2 // g, n3 // g, d // g
    return _raw(n0, n1, n2, n3, d)


C_ZERO = Cyc8()
C_ONE = Cyc8(1)
ZETA = Cyc8(0, 1)
C_I = Cyc8(0, 0, 1)  # zeta^2 = i


def eval_at_zeta8(p: LaurentPoly) -> Cyc8:
    """Evaluate a Laurent polynomial in A at A = zeta_8.

    A^e = (-1)^(e // 4) * zeta^(e % 4), so each integer coefficient lands,
    signed, on one basis coordinate and the result has denominator 1.
    """
    out = [0, 0, 0, 0]
    for e, c in p.items():
        if e & 4:
            out[e & 3] -= c
        else:
            out[e & 3] += c
    return _raw(*out, 1)
