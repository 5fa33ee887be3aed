"""Exact Laurent polynomials in the bracket variable A, with integer coefficients."""

from __future__ import annotations


class LaurentPoly:
    """Immutable sparse Laurent polynomial, exponent -> integer coefficient.

    Zero coefficients are never stored, so term-map equality is polynomial
    equality.  Coefficients are arbitrary-precision ints; no floats anywhere.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[e] = c
        _SET(self, clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return LaurentPoly, (self._terms,)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPoly":
        return cls({exponent: coefficient})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            n = out.get(e, 0) + c
            if n:
                out[e] = n
            else:
                out.pop(e, None)
        return _raw(out)

    def __neg__(self) -> "LaurentPoly":
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return _raw({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                n = out.get(e, 0) + c1 * c2
                if n:
                    out[e] = n
                else:
                    del out[e]
        return _raw(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the monomial A^k."""
        return _raw({e + k: c for e, c in self._terms.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if len(self._terms) == 1:
                (e, c) = next(iter(self._terms.items()))
                if c in (1, -1):
                    return LaurentPoly({e * n: c ** (-n) if c == -1 else 1})
            raise ArithmeticError("negative powers only defined for unit monomials")
        out = LaurentPoly.one()
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "A" if e == 1 else f"A^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self._terms!r})"


_SET = LaurentPoly._terms.__set__
_NEW = object.__new__


def _raw(terms: dict) -> LaurentPoly:
    """The polynomial with a term map that holds no zero coefficient."""
    p = _NEW(LaurentPoly)
    _SET(p, terms)
    return p


A = LaurentPoly.monomial(1)
A_INV = LaurentPoly.monomial(-1)
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()

# Loop factor: closing a free loop multiplies a bracket by -A^2 - A^-2.
LOOP_FACTOR = LaurentPoly({2: -1, -2: -1})
