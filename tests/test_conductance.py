"""Conductance routes: state sum, recursion, continued fraction, closed forms."""

import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from vtangle.bracket import bracket, bracket_vector, bracket_vector_at_zeta8
from vtangle.conductance import (
    PATH_CLASSICAL,
    PATH_CLOSED,
    PATH_FRACTION,
    PATH_RECURSION,
    PATH_STATE_SUM,
    ROUTES,
    ConductanceValue,
    _conductance_folded,
    additivity_identity,
    agree,
    classical_fraction,
    closed_form,
    conductance_from_bracket,
    conductance_paths,
    conductance_recursive,
    continued_fraction_C,
    ratio_identity,
)
from vtangle.cyclotomic import eval_at_zeta8
from vtangle.diagram import (
    COMPASS,
    add_free_loop,
    build_basic,
    insert_kink,
    virtualize_crossing,
)
from vtangle.errors import (
    DivisorZeroError,
    IndeterminateError,
    NotGaussianError,
    TangleError,
    UnsupportedPatternError,
    VectorRuleError,
)
from vtangle.gaussian import G_I, INFINITY, GaussRational
from vtangle.laurent import LaurentPoly
from vtangle.vector import INF, TangleVector, parse_vector
from vtangle.verify import sample_diagrams


def _state_sum(s: str) -> GaussRational:
    return conductance_from_bracket(bracket(build_basic(parse_vector(s))))


GOLDEN = {
    "0": GaussRational(0, 0),
    "0v": G_I,
    "2,3,1v": GaussRational(Fraction(9, 7), 1),
    "1v,1v": GaussRational(1, 1),
    "1v,1": GaussRational(Fraction(3, 5), Fraction(1, 5)),
    "1,1v,0v": GaussRational(Fraction(-2, 5), Fraction(4, 5)),
    "inf,2": GaussRational(Fraction(1, 2), 0),
    "inf,2v": GaussRational(Fraction(2, 5), Fraction(1, 5)),
    "inf,3,1v": GaussRational(Fraction(4, 3), 1),
    "inf,2v,1v": GaussRational(Fraction(3, 5), Fraction(4, 5)),
}


def test_golden_state_sums():
    for text, want in GOLDEN.items():
        assert _state_sum(text) == want, text
    assert _state_sum("inf") == INFINITY


def test_all_routes_agree_on_goldens():
    for text, want in GOLDEN.items():
        vec = parse_vector(text)
        values, errors = conductance_paths(vec)
        assert not errors, (text, errors)
        for label, cv in values.items():
            assert cv.value == want, (text, label)
            assert cv.provenance == label


def test_elementary_conductance_table():
    for n in range(-5, 6):
        if n == 0:
            continue
        n_f = Fraction(n)
        assert _state_sum(str(n)) == GaussRational(n_f, 0)
        assert _state_sum(f"{n}v") == GaussRational(n_f, 1)
        # vertical twists enter as inf-prefixed vectors
        assert _state_sum(f"inf,{n}") == GaussRational(1 / n_f, 0)
        # 1/(n - i) = n/(n^2+1) + i/(n^2+1)
        d = n_f * n_f + 1
        assert _state_sum(f"inf,{n}v") == GaussRational(n_f / d, 1 / d)


def test_classical_fraction():
    assert classical_fraction([2, 3, 1]) == GaussRational(Fraction(9, 7), 0)
    assert classical_fraction([0]) == GaussRational(0, 0)
    assert classical_fraction([INF]) == INFINITY
    assert classical_fraction([INF, 2]) == GaussRational(Fraction(1, 2), 0)
    # even length folds one extra reciprocal: (2,3) ~ (2,3,0)
    assert classical_fraction([2, 3]) == GaussRational(Fraction(2, 7), 0)
    # vertical-first input gains the inf prefix
    assert classical_fraction([2], first_is_horizontal=False) == GaussRational(
        Fraction(1, 2), 0
    )
    assert classical_fraction([1, 1, -1]) == GaussRational(Fraction(-1, 2), 0)
    # a projective infinity midway recovers at the next level
    assert classical_fraction([0, 3, 2]) == GaussRational(2, 0)


@pytest.mark.parametrize(
    "entries, first_is_horizontal",
    [([1.5, 2], True), (["2"], True), ([2, 1.5], False), ([], True), ([], False),
     ([2, INF], True), ([2, INF], False), ([INF, 2], False)],
)
def test_classical_fraction_refuses_what_validate_refuses(entries, first_is_horizontal):
    # the same message and position as TangleVector.validate, in the
    # caller's numbering, before a vertical-first vector gains its prefix
    vec = TangleVector(tuple((a, 0) for a in entries), first_is_horizontal)
    with pytest.raises(VectorRuleError) as want:
        vec.validate()
    with pytest.raises(VectorRuleError) as got:
        classical_fraction(entries, first_is_horizontal)
    assert str(got.value) == str(want.value)


def test_classical_route_refuses_a_float_twist_count():
    with pytest.raises(VectorRuleError, match="entry 1: twist count must be an integer"):
        ROUTES[PATH_CLASSICAL].run(TangleVector(((1.5, 0),)), None)


def test_recursion_matches_fraction_on_classical():
    for entries in ([2, 3, 1], [1, 1, -1], [3, -2], [0], [INF, 2], [INF, -3, 2]):
        vec = TangleVector(tuple((a, 0) for a in entries))
        vec.validate()
        assert conductance_recursive(vec) == classical_fraction(entries), entries


def test_degenerate_family_raises_and_recovers():
    # first entry 0 without marker, marked third entry: the twist divisor
    # needs C/D of the (0, b) prefix, which is 0/0
    for text in ("0,1,2v", "0,2v,1v", "0,-3,0v"):
        vec = parse_vector(text)
        with pytest.raises(DivisorZeroError) as exc:
            conductance_recursive(vec)
        assert exc.value.level == 3
        with pytest.raises(IndeterminateError):
            continued_fraction_C(vec)
        # state sum and closed form still agree on c + i
        c = vec.entries[2][0]
        want = GaussRational(c, 1)
        assert _state_sum(text) == want
        assert closed_form(vec) == want


def test_closed_form_dispatch():
    assert closed_form(parse_vector("3")) == GaussRational(3, 0)
    assert closed_form(parse_vector("3v")) == GaussRational(3, 1)
    assert closed_form(parse_vector("inf")) == INFINITY
    assert closed_form(parse_vector("1v,1")) == GaussRational(
        Fraction(3, 5), Fraction(1, 5)
    )
    assert closed_form(parse_vector("1,1v,0v")) == GaussRational(
        Fraction(-2, 5), Fraction(4, 5)
    )
    with pytest.raises(UnsupportedPatternError):
        closed_form(parse_vector("1,1,1,1v"))


def test_closed_form_projective_infinity():
    # a*b = -1 makes the two-entry denominator vanish with nonzero numerator
    assert closed_form(parse_vector("1,-1")) == INFINITY
    # fully marked (0v, 0v) pattern is a genuine 0/0 for the formula alone
    with pytest.raises(IndeterminateError):
        closed_form(parse_vector("0v,0v"))
    assert _state_sum("0v,0v") == INFINITY


def test_continued_fraction_inf_first_limit():
    # the marked second entry after inf uses the exact limit w = a - i
    assert continued_fraction_C(parse_vector("inf,2v")) == GaussRational(
        Fraction(2, 5), Fraction(1, 5)
    )
    assert continued_fraction_C(parse_vector("inf,2v,1v")) == GaussRational(
        Fraction(3, 5), Fraction(4, 5)
    )


def test_conductance_paths_reports_routes():
    values, errors = conductance_paths(parse_vector("2,3,1"))
    assert set(values) == {
        PATH_STATE_SUM,
        PATH_RECURSION,
        PATH_FRACTION,
        PATH_CLOSED,
        PATH_CLASSICAL,
    }
    assert not errors
    values, errors = conductance_paths(parse_vector("1,1,1,1v"))
    assert PATH_CLOSED not in values  # no closed form beyond length 3
    assert PATH_CLASSICAL not in values  # not classical
    assert not errors


def test_conductance_paths_follow_the_route_table():
    cases = {
        "2,3,1": ([PATH_STATE_SUM, PATH_RECURSION, PATH_FRACTION, PATH_CLOSED, PATH_CLASSICAL], []),
        "1,1,1,1v": ([PATH_STATE_SUM, PATH_RECURSION, PATH_FRACTION], []),
        "0,1,2v": ([PATH_STATE_SUM, PATH_CLOSED], [PATH_RECURSION, PATH_FRACTION]),
    }
    for text, (labels, degenerate) in cases.items():
        values, errors = conductance_paths(parse_vector(text))
        assert list(values) == labels, text
        assert [label for label in ROUTES if label in values] == labels, text
        assert sorted(errors) == sorted(degenerate), text
        assert all(cv.provenance == label for label, cv in values.items())


def test_agree_verdicts():
    one, two = GaussRational(1, 0), GaussRational(2, 0)

    def cv(**by_label):
        return {label: ConductanceValue(v, label) for label, v in by_label.items()}

    values = cv(a=one, b=one)
    assert agree(values, {}) == ("unanimous", ["a", "b"], {one: ["a", "b"]})
    assert agree(values, {"c": DivisorZeroError(2, "x")}) == (
        "degenerate",
        ["a", "b"],
        {one: ["a", "b"]},
    )
    assert agree({}, {"c": DivisorZeroError(2, "x")}) == ("degenerate", [], {})
    values = cv(a=one, b=two, c=one)
    assert agree(values, {}) == ("disagree", ["a", "b", "c"], {one: ["a", "c"], two: ["b"]})
    # a disagreement outranks a degenerate route
    assert agree(values, {"d": DivisorZeroError(2, "x")})[0] == "disagree"


def test_additivity_identity_golden():
    t = bracket(build_basic(parse_vector("2,1v")))
    s = bracket(build_basic(parse_vector("1v")))
    lhs, rhs, corr = additivity_identity(t, s, "plus")
    assert lhs == rhs - corr
    assert corr != GaussRational(0, 0)
    # a classical side forces the correction to vanish
    s0 = bracket(build_basic(parse_vector("3")))
    lhs, rhs, corr = additivity_identity(t, s0, "plus")
    assert corr == GaussRational(0, 0)
    assert lhs == rhs


def test_additivity_star_variant():
    t = bracket(build_basic(parse_vector("1v,2")))
    s = bracket(build_basic(parse_vector("2v")))
    lhs, rhs, corr = additivity_identity(t, s, "star")
    assert lhs.invert() == rhs.invert() + corr
    with pytest.raises(ValueError):
        additivity_identity(t, s, "times")


def test_ratio_identity():
    for text in ("2,1v", "1v,1v", "3,-2"):
        d = build_basic(parse_vector(text))
        c, c_east, c_south = ratio_identity(d)
        assert c == -(G_I * c_east * c_south), text
    # the single virtual crossing is projective: one factor 0, one infinite
    c, c_east, c_south = ratio_identity(build_basic(parse_vector("0v")))
    assert (c, c_east, c_south) == (G_I, GaussRational(0, 0), INFINITY)
    with pytest.raises(IndeterminateError):
        -(G_I * c_east * c_south)


def test_figure_family_regression():
    for a in (1, 2, 3):
        for c in range(-2, 3):
            marked = parse_vector(f"{a}v,0v,{c}v")
            classical = parse_vector(f"inf,{-a},{c}")
            want = GaussRational(c - Fraction(1, a), 0)
            assert conductance_recursive(marked) == want
            assert conductance_recursive(classical) == want
            assert _state_sum(f"{a}v,0v,{c}v") == want


def test_error_types_are_tangle_errors():
    assert issubclass(DivisorZeroError, IndeterminateError)
    assert issubclass(IndeterminateError, TangleError)
    assert issubclass(UnsupportedPatternError, TangleError)


@pytest.mark.parametrize("route", [conductance_recursive, continued_fraction_C, closed_form,
                                   bracket_vector])
@pytest.mark.parametrize(
    "entries",
    [((1, 2),), ((2, 0), (0, 0), (3, 0)), ((INF, 1),), (("2", 0),), (), ((1, 0), (INF, 0))],
    ids=["marker-2", "interior-0", "marked-inf", "text-twist", "empty", "late-inf"],
)
def test_routes_refuse_vectors_that_validate_refuses(route, entries):
    vec = TangleVector(entries)
    with pytest.raises(VectorRuleError):
        vec.validate()
    with pytest.raises(VectorRuleError):
        route(vec)


def _outcome(fn, arg):
    """("ok", value) or ("error", text) of one call."""
    try:
        return "ok", fn(arg)
    except TangleError as exc:
        return "error", str(exc)


def _at_zeta8(t):
    return eval_at_zeta8(t.f), eval_at_zeta8(t.g), eval_at_zeta8(t.h)


fold_entries = st.tuples(st.integers(min_value=-5, max_value=5), st.integers(0, 1))


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.lists(fold_entries, min_size=1, max_size=7))
@example(True, [(2, 1)])
@example(True, [(2, 1), (-3, 0)])
@example(False, [(0, 1), (2, 0), (1, 1), (-5, 1)])
def test_value_fold_equals_polynomial_fold_at_zeta8(inf_first, es):
    # inf first, both length parities, markers and negative entries
    v = TangleVector((((INF, 0),) if inf_first else ()) + tuple(es))
    try:
        v.validate()
    except VectorRuleError:
        return
    t = bracket_vector(v)
    assert bracket_vector_at_zeta8(v) == _at_zeta8(t)
    assert _outcome(_conductance_folded, v) == _outcome(conductance_from_bracket, t)


def test_state_sum_route_folds_values_without_a_triple():
    # 3,2v repeated: the polynomial fold takes seconds at 400 entries
    v = parse_vector(",".join(["3", "2v"] * 50))
    t = bracket_vector(v)
    assert bracket_vector_at_zeta8(v) == _at_zeta8(t)
    assert _conductance_folded(v) == conductance_from_bracket(t)
    assert ROUTES[PATH_STATE_SUM].run(v, None) == conductance_from_bracket(t)
    v = parse_vector(",".join(["3", "2v"] * 200))
    t0 = time.monotonic()
    values, errors = conductance_paths(v)
    assert time.monotonic() - t0 < 1.0
    assert not errors
    assert list(values) == [PATH_STATE_SUM, PATH_RECURSION, PATH_FRACTION]
    assert len({cv.value for cv in values.values()}) == 1


def _exponent_parities(d):
    """The set of (exponent - classical crossings) mod 2 over f, g and h of
    the oracle bracket(d)."""
    t = bracket(d)
    return {(e - d.n_classical) % 2 for p in (t.f, t.g, t.h) for e, _ in p.items()}


def test_bracket_exponents_have_the_parity_of_the_classical_crossing_count():
    # the lemma the Z[i] fold rests on: each smoothing weighs A^(+-1) and a
    # loop -A^(+-2), so every exponent is congruent to N mod 2
    rng = random.Random(13)
    for d in sample_diagrams(rng, 40, 8):
        variants = [d, add_free_loop(d), add_free_loop(add_free_loop(d))]
        for sign in (1, -1):
            kinked = insert_kink(d, rng.choice(COMPASS), sign)
            variants += [kinked, add_free_loop(kinked)]
        if d.classical_indices:
            variants.append(virtualize_crossing(d, rng.choice(d.classical_indices)))
        for v in variants:
            assert _exponent_parities(v) == {0}


def test_a_wrong_parity_leaf_raises_not_gaussian(monkeypatch):
    module = sys.modules["vtangle.bracket"]
    elementary = module.bracket_elementary
    # one extra factor A in every twist region breaks the parity lemma
    monkeypatch.setattr(
        module,
        "bracket_elementary",
        lambda n, eps, axis: elementary(n, eps, axis).scaled(LaurentPoly.monomial(1)),
    )
    module._elementary_gaussian.cache_clear()
    try:
        v = TangleVector(((2, 1), (-3, 0)))
        with pytest.raises(NotGaussianError) as exc:
            _conductance_folded(v)
        assert (exc.value.c1, exc.value.c3) != (0, 0)
        _, errors = conductance_paths(v)
        assert isinstance(errors[PATH_STATE_SUM], NotGaussianError)
    finally:
        module._elementary_gaussian.cache_clear()
