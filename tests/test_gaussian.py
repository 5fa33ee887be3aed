"""Projective Q(i): exact arithmetic, the point at infinity, canonical text."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vtangle.errors import IndeterminateError
from vtangle.gaussian import G_I, G_ONE, G_ZERO, INFINITY, GaussRational


def test_golden_division():
    # 1/(2 - i) = 2/5 + 1/5 i
    assert GaussRational(2, -1).invert() == GaussRational(Fraction(2, 5), Fraction(1, 5))
    # (1 + i)/i = 1 - i
    assert GaussRational(1, 1) / G_I == GaussRational(1, -1)


def test_projective_rules():
    assert G_ZERO.invert() == INFINITY
    assert INFINITY.invert() == G_ZERO
    assert INFINITY + G_ONE == INFINITY
    assert G_ONE + INFINITY == INFINITY
    assert -INFINITY == INFINITY
    assert INFINITY * GaussRational(3, -2) == INFINITY
    with pytest.raises(IndeterminateError):
        INFINITY + INFINITY
    with pytest.raises(IndeterminateError):
        G_ZERO * INFINITY
    with pytest.raises(IndeterminateError):
        INFINITY.re


def test_is_real_and_zero():
    assert GaussRational(3, 0).is_real
    assert not GaussRational(3, 1).is_real
    assert INFINITY.is_real  # infinity counts as a classical (real) value
    assert G_ZERO.is_zero()
    assert not INFINITY.is_zero()


def test_mul_i():
    assert G_ONE.mul_i() == G_I
    assert G_I.mul_i() == GaussRational(-1, 0)
    assert INFINITY.mul_i() == INFINITY


def test_str_canonical():
    assert str(GaussRational(Fraction(9, 7), 1)) == "9/7 + 1/1*i"
    assert str(GaussRational(0, 0)) == "0/1 + 0/1*i"
    assert str(GaussRational(Fraction(-1, 2), Fraction(-5, 4))) == "-1/2 - 5/4*i"
    assert str(INFINITY) == "inf"
    assert GaussRational(Fraction(9, 7), 0).real_str() == "9/7"
    assert INFINITY.real_str() == "inf"
    with pytest.raises(IndeterminateError):
        G_I.real_str()


def test_hashable_for_bucketing():
    seen = {GaussRational(1, 2): "x", INFINITY: "y"}
    assert seen[GaussRational(1, 2)] == "x"
    assert seen[GaussRational.infinity()] == "y"


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=9)
finites = st.builds(GaussRational, rationals, rationals)


@given(finites)
def test_div_mul_roundtrip(z):
    if z.is_zero():
        assert z.invert() == INFINITY
        return
    assert z * z.invert() == G_ONE
    assert (G_ONE / z) * z == G_ONE
    assert z.invert().invert() == z


@given(finites, finites)
def test_field_laws(z, w):
    assert z + w == w + z
    assert z * w == w * z
    assert z * (w + G_ONE) == z * w + z
    assert z - z == G_ZERO


# Differential tests against the former representation: a pair of Fractions,
# or None for the point at infinity, with the former arithmetic rules.

R_ZERO = (Fraction(0), Fraction(0))


def ref_add(x, y):
    if x is None and y is None:
        raise IndeterminateError("inf + inf is undefined")
    if x is None or y is None:
        return None
    return (x[0] + y[0], x[1] + y[1])


def ref_neg(x):
    return None if x is None else (-x[0], -x[1])


def ref_sub(x, y):
    return ref_add(x, ref_neg(y))


def ref_mul(x, y):
    if x is None or y is None:
        if (x is None and y == R_ZERO) or (y is None and x == R_ZERO):
            raise IndeterminateError("0 * inf is undefined")
        return None
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c)


def ref_invert(x):
    if x is None:
        return R_ZERO
    if x == R_ZERO:
        return None
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_div(x, y):
    return ref_mul(x, ref_invert(y))


def ref_mul_i(x):
    return None if x is None else (-x[1], x[0])


def ref_str(x):
    if x is None:
        return "inf"
    re, im = x
    head = f"{re.numerator}/{re.denominator}"
    if im < 0:
        return f"{head} - {-im.numerator}/{im.denominator}*i"
    return f"{head} + {im.numerator}/{im.denominator}*i"


def ref_real_str(x):
    if x is None:
        return "inf"
    if x[1] != 0:
        raise IndeterminateError("value is not real")
    return f"{x[0].numerator}/{x[0].denominator}"


def ref_repr(x):
    if x is None:
        return "GaussRational.infinity()"
    return f"GaussRational({x[0]!r}, {x[1]!r})"


def build(x):
    return INFINITY if x is None else GaussRational(*x)


def as_ref(z):
    """The pair a GaussRational reads as, checking that its parts are Fractions."""
    if z.is_infinite:
        return None
    assert type(z.re) is Fraction and type(z.im) is Fraction
    return (z.re, z.im)


def outcome(fn, *args):
    """("ok", value) or ("raise", exception type) of one call."""
    try:
        return "ok", fn(*args)
    except (IndeterminateError, ZeroDivisionError) as exc:
        return "raise", type(exc)


def same(got, want):
    """A tower outcome equals a reference outcome."""
    if got[0] == "ok" and want[0] == "ok":
        return as_ref(got[1]) == want[1]
    return got == want


ref_values = st.one_of(
    st.none(),
    st.just(R_ZERO),
    st.tuples(rationals, rationals),
)
SPECIAL = [None, R_ZERO, (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]

BINARY = [
    (lambda z, w: z + w, ref_add),
    (lambda z, w: z - w, ref_sub),
    (lambda z, w: z * w, ref_mul),
    (lambda z, w: z / w, ref_div),
]
UNARY = [
    (lambda z: -z, ref_neg),
    (lambda z: z.invert(), ref_invert),
    (lambda z: z.mul_i(), ref_mul_i),
    (lambda z: z.add_int(-3), lambda x: ref_add(x, (Fraction(-3), Fraction(0)))),
]


def check_ops(x, y):
    z, w = build(x), build(y)
    for op, ref in BINARY:
        assert same(outcome(op, z, w), outcome(ref, x, y)), (x, y)
    for op, ref in UNARY:
        assert same(outcome(op, z), outcome(ref, x)), x


@given(ref_values, ref_values)
def test_ops_match_fraction_pair_reference(x, y):
    check_ops(x, y)


@pytest.mark.parametrize("x", SPECIAL)
@pytest.mark.parametrize("y", SPECIAL)
def test_every_infinity_and_indeterminate_case(x, y):
    check_ops(x, y)


def test_indeterminate_cases_raise():
    for fn in (
        lambda: INFINITY + INFINITY,
        lambda: INFINITY - INFINITY,
        lambda: G_ZERO * INFINITY,
        lambda: INFINITY * G_ZERO,
        lambda: G_ZERO / G_ZERO,
        lambda: INFINITY / INFINITY,
        lambda: INFINITY.im,
    ):
        with pytest.raises(IndeterminateError):
            fn()
    assert INFINITY * INFINITY == INFINITY
    assert G_ONE / G_ZERO == INFINITY
    assert G_ZERO / INFINITY == G_ZERO


@given(ref_values)
def test_text_matches_fraction_pair_reference(x):
    z = build(x)
    assert str(z) == ref_str(x)
    assert repr(z) == ref_repr(x)
    assert outcome(GaussRational.real_str, z) == outcome(ref_real_str, x)


@given(ref_values)
def test_parts_match_fraction_pair_reference(x):
    z = build(x)
    assert as_ref(z) == x
    assert z.is_zero() == (x == R_ZERO)
    assert z.is_real == (x is None or x[1] == 0)
    if x is None:
        assert z.parts_text() == ("inf", "inf")
    else:
        assert z.parts_text() == tuple(f"{p.numerator}/{p.denominator}" for p in x)


@given(
    st.tuples(rationals, rationals),
    st.integers(min_value=-7, max_value=7).filter(bool),
)
def test_equal_values_hash_equally(x, k):
    # the same value built five ways: from Fractions, from scaled integers
    # over a signed denominator, and through arithmetic
    re, im = x
    d = re.denominator * im.denominator * k
    ways = [
        GaussRational(re, im),
        GaussRational.from_ints(int(re * d), int(im * d), d),
        (GaussRational(re, im) + G_I) - G_I,
        GaussRational(re, im).mul_i().mul_i().mul_i().mul_i(),
        GaussRational(re, im).add_int(k).add_int(-k),
    ]
    assert all(w == ways[0] for w in ways)
    assert len({hash(w) for w in ways}) == 1
    assert len({hash(w) for w in (INFINITY, GaussRational.infinity(), -INFINITY)}) == 1


def test_constructor_accepts_ints_and_fractions():
    assert GaussRational(Fraction(6, 4), Fraction(-2, 3)) == GaussRational.from_ints(9, -4, 6)
    assert GaussRational(3, Fraction(1, 2)) == GaussRational.from_ints(-6, -1, -2)
    assert GaussRational(Fraction(4, 2), 0) == GaussRational(2, 0)
    assert GaussRational() == G_ZERO
