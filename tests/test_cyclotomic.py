"""Eighth-cyclotomic arithmetic and evaluation of Laurent polynomials at zeta_8."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vtangle.cyclotomic import C_I, C_ONE, C_ZERO, Cyc8, ZETA, eval_at_zeta8
from vtangle.errors import InvariantError, NotGaussianError
from vtangle.gaussian import GaussRational
from vtangle.laurent import LOOP_FACTOR, LaurentPoly


def test_powers_of_zeta():
    assert ZETA * ZETA == C_I
    assert C_I * C_I == -C_ONE
    assert ZETA ** 4 == -C_ONE
    assert ZETA ** 8 == C_ONE


def test_mul_reduction():
    # (1 + z) * (1 + z^3) = 1 + z + z^3 + z^4 = z + z^3 (since z^4 = -1)
    a = C_ONE + ZETA
    b = C_ONE + Cyc8(0, 0, 0, 1)
    assert a * b == Cyc8(0, 1, 0, 1)


def test_invert_roundtrip_small():
    for c in (ZETA, C_ONE + ZETA, Cyc8(2, 0, -1, 0), Cyc8(Fraction(1, 2), 1, 0, 3)):
        assert c * c.invert() == C_ONE
    # 1/z = -z^3 because z * z^3 = z^4 = -1
    assert ZETA.invert() == -(ZETA ** 3)
    with pytest.raises(ZeroDivisionError):
        C_ZERO.invert()


def test_galois_automorphisms():
    c = Cyc8(1, 2, 3, 4)
    d = Cyc8(Fraction(1, 2), 0, -1, 5)
    for k in (3, 5, 7):
        assert c.galois(k).galois(k) == c  # 3^2 = 5^2 = 7^2 = 1 mod 8
        assert (c * d).galois(k) == c.galois(k) * d.galois(k)
    assert c.galois(5) == Cyc8(1, -2, 3, -4)
    # the full conjugate product is rational: that is what makes invert work
    norm = c * c.galois(3) * c.galois(5) * c.galois(7)
    assert norm == Cyc8(norm.c0, 0, 0, 0)


def test_to_gauss():
    assert (C_ONE + C_I).to_gauss() == GaussRational(1, 1)
    assert Cyc8(3, 0, 1, 0).to_gauss() == GaussRational(3, 1)
    with pytest.raises(NotGaussianError):
        ZETA.to_gauss()
    err = None
    try:
        (C_ONE + ZETA).to_gauss()
    except NotGaussianError as e:
        err = e
    assert err is not None and (err.c1, err.c3) == (Fraction(1), Fraction(0))


def test_division_golden():
    # (1 + i)/i = 1 - i
    assert (C_ONE + C_I) / C_I == Cyc8(1, 0, -1, 0)


def test_eval_at_zeta8():
    assert eval_at_zeta8(LaurentPoly({0: 1})) == C_ONE
    assert eval_at_zeta8(LaurentPoly({2: 1})) == C_I
    assert eval_at_zeta8(LaurentPoly({-2: 1})) == -C_I
    assert eval_at_zeta8(LaurentPoly({4: 1})) == -C_ONE
    assert eval_at_zeta8(LaurentPoly({0: 1, -4: -1})) == Cyc8(2, 0, 0, 0)
    # loop factor -A^2 - A^-2 vanishes at zeta_8
    assert eval_at_zeta8(LOOP_FACTOR) == C_ZERO


coeffs = st.integers(min_value=-9, max_value=9)
exps = st.integers(min_value=-8, max_value=8)
polys = st.dictionaries(exps, coeffs, max_size=5).map(LaurentPoly)


@given(polys, polys)
def test_eval_is_ring_homomorphism(p, q):
    assert eval_at_zeta8(p + q) == eval_at_zeta8(p) + eval_at_zeta8(q)
    assert eval_at_zeta8(p * q) == eval_at_zeta8(p) * eval_at_zeta8(q)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
cycs = st.builds(Cyc8, rationals, rationals, rationals, rationals)


@given(cycs, cycs)
def test_div_mul_roundtrip(c, d):
    if c == C_ZERO:
        return
    assert (c / c) == C_ONE
    assert (C_ONE / c) * c == C_ONE
    assert (c * d) / c == d


# Differential tests against the former representation: four Fraction
# coordinates with the former arithmetic rules.


def ref_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def ref_neg(x):
    return tuple(-a for a in x)


def ref_mul(x, y):
    out = [Fraction(0)] * 4
    for i in range(4):
        for j in range(4):
            if i + j < 4:
                out[i + j] += x[i] * y[j]
            else:
                out[i + j - 4] -= x[i] * y[j]  # zeta^4 = -1
    return tuple(out)


def ref_galois(x, k):
    c0, c1, c2, c3 = x
    return {
        1: x,
        3: (c0, c3, -c2, c1),
        5: (c0, -c1, c2, -c3),
        7: (c0, -c3, -c2, -c1),
    }[k]


def ref_invert(x):
    if not any(x):
        raise ZeroDivisionError("division by zero in Q(zeta_8)")
    conj = ref_mul(ref_mul(ref_galois(x, 3), ref_galois(x, 5)), ref_galois(x, 7))
    n = ref_mul(x, conj)[0]
    return tuple(c / n for c in conj)


def ref_div(x, y):
    return ref_mul(x, ref_invert(y))


def ref_eval(p):
    out = [Fraction(0)] * 4
    for e, c in p.items():
        k, sign = e % 4, (-1) ** ((e % 8) // 4)
        out[k] += sign * c
    return tuple(out)


def coords_of(c):
    """The coordinates a Cyc8 reads as, checking that they are Fractions."""
    cs = c.coords()
    assert cs == (c.c0, c.c1, c.c2, c.c3)
    assert all(type(a) is Fraction for a in cs)
    return cs


ref_quads = st.tuples(rationals, rationals, rationals, rationals)


@given(ref_quads, ref_quads)
def test_ops_match_fraction_quad_reference(x, y):
    c, d = Cyc8(*x), Cyc8(*y)
    assert coords_of(c) == x
    assert coords_of(c + d) == ref_add(x, y)
    assert coords_of(c - d) == ref_add(x, ref_neg(y))
    assert coords_of(-c) == ref_neg(x)
    assert coords_of(c * d) == ref_mul(x, y)
    for k in (1, 3, 5, 7):
        assert coords_of(c.galois(k)) == ref_galois(x, k)
    if any(y):
        assert coords_of(d.invert()) == ref_invert(y)
        assert coords_of(c / d) == ref_div(x, y)
    else:
        with pytest.raises(ZeroDivisionError):
            d.invert()
        with pytest.raises(ZeroDivisionError):
            c / d
    assert coords_of(c ** 3) == ref_mul(ref_mul(x, x), x)
    assert c.is_zero() == (not any(x))


@given(ref_quads)
def test_to_gauss_matches_reference(x):
    c = Cyc8(*x)
    if x[1] or x[3]:
        with pytest.raises(NotGaussianError) as exc:
            c.to_gauss()
        assert (exc.value.c1, exc.value.c3) == (x[1], x[3])
        assert type(exc.value.c1) is Fraction and type(exc.value.c3) is Fraction
        assert str(exc.value) == (
            f"value lies outside Q(i): zeta coordinate {x[1]}, zeta^3 coordinate {x[3]}"
        )
    else:
        g = c.to_gauss()
        assert (g.re, g.im) == (x[0], x[2])
        assert g == GaussRational(x[0], x[2])


@given(ref_quads)
def test_text_matches_reference(x):
    c = Cyc8(*x)
    assert str(c) == f"{x[0]} + {x[1]}*z + {x[2]}*z^2 + {x[3]}*z^3"
    assert repr(c) == f"Cyc8({x[0]!r}, {x[1]!r}, {x[2]!r}, {x[3]!r})"


@given(polys)
def test_eval_matches_reference(p):
    assert coords_of(eval_at_zeta8(p)) == ref_eval(p)


@given(ref_quads, st.integers(min_value=-6, max_value=6).filter(bool))
def test_equal_values_hash_equally(x, k):
    # the same element from Fractions, from scaled Fractions, and through
    # arithmetic that lands back on it
    c = Cyc8(*x)
    scaled = Cyc8(*(a * k for a in x)) / Cyc8(k)
    ways = [c, scaled, (c + ZETA) - ZETA, c * ZETA * ZETA.invert(), c.galois(5).galois(5)]
    assert all(w == c for w in ways)
    assert len({hash(w) for w in ways}) == 1


def test_invert_raises_when_the_norm_is_not_rational(monkeypatch):
    # exact arithmetic cannot get here; a broken product must still be
    # caught under python -O, where an assert would vanish
    real_mul = Cyc8.__mul__
    monkeypatch.setattr(Cyc8, "__mul__", lambda s, o: real_mul(s, o) + ZETA)
    with pytest.raises(InvariantError, match="field norm must be rational"):
        Cyc8(1, 2, 3, 4).invert()
