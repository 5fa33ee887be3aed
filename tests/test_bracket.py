"""Bracket state sum: frozen oracles, elementary closed forms, combination."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from vtangle.bracket import (
    PAIRING_H,
    PAIRING_V,
    TRIPLE_H,
    TRIPLE_V,
    TRIPLE_X,
    BracketTriple,
    bracket,
    bracket_elementary,
    bracket_vector,
    combine_triples,
    resolve_state,
)
from vtangle.diagram import (
    HORIZONTAL,
    PLUS,
    STAR,
    VERTICAL,
    build_basic,
    combine,
    elementary,
)
from vtangle.errors import VectorRuleError
from vtangle.laurent import A, A_INV, ONE, ZERO, LaurentPoly
from vtangle.vector import INF, TangleVector, parse_vector


def _tup(t):
    return (t.f, t.g, t.h)


def test_trivial_pictures():
    assert _tup(bracket(elementary(0, 0, HORIZONTAL))) == (ZERO, ONE, ZERO)
    assert _tup(bracket(elementary(0, 0, VERTICAL))) == (ONE, ZERO, ZERO)
    assert _tup(bracket(elementary(0, 1, HORIZONTAL))) == (ZERO, ZERO, ONE)
    assert _tup(bracket(elementary(0, 1, VERTICAL))) == (ZERO, ZERO, ONE)


def test_frozen_single_crossings():
    # horizontal positive crossing: A * horizontal + A^-1 * vertical
    assert _tup(bracket(elementary(1, 0))) == (A_INV, A, ZERO)
    assert _tup(bracket(elementary(-1, 0))) == (A, A_INV, ZERO)
    # marker moves the horizontal coefficient onto the virtual picture
    assert _tup(bracket(elementary(1, 1))) == (A_INV, ZERO, A)
    # a single crossing is the same diagram on either axis: [1] = 1/[1]
    assert _tup(bracket(elementary(1, 0, VERTICAL))) == (A_INV, A, ZERO)
    assert _tup(bracket(elementary(-1, 0, VERTICAL))) == (A, A_INV, ZERO)
    assert _tup(bracket(elementary(1, 1, VERTICAL))) == (ZERO, A, A_INV)


def test_frozen_double_twists():
    assert _tup(bracket(elementary(2, 0))) == (
        ONE - A_INV ** 4,
        A ** 2,
        ZERO,
    )
    assert _tup(bracket(elementary(2, 1, VERTICAL))) == (
        ZERO,
        ONE - A ** 4,
        A_INV ** 2,
    )


def test_resolve_state_single_crossing():
    d = elementary(1, 0)
    a = resolve_state(d, (0,))
    assert (a.pairing, a.loops, a.weight) == (PAIRING_H, 0, A)
    b = resolve_state(d, (1,))
    assert (b.pairing, b.loops, b.weight) == (PAIRING_V, 0, A_INV)
    with pytest.raises(ValueError):
        resolve_state(d, (0, 1))
    with pytest.raises(ValueError):
        resolve_state(d, (2,))


def test_state_count_and_loop_weighting():
    # [2] has one state with a closed loop: both B-smoothings
    d = elementary(2, 0)
    s = resolve_state(d, (1, 1))
    assert s.loops == 1
    assert s.pairing == PAIRING_V
    assert resolve_state(d, (0, 1)).loops == 0


def test_elementary_closed_forms_match_state_sum():
    for n in range(-4, 5):
        if n == 0:
            continue
        for eps in (0, 1):
            for axis in (HORIZONTAL, VERTICAL):
                got = bracket(elementary(n, eps, axis))
                want = bracket_elementary(n, eps, axis)
                assert _tup(got) == _tup(want), (n, eps, axis)


def test_combine_triples_matches_diagram_combine():
    pieces = [
        elementary(1, 0),
        elementary(-2, 0),
        elementary(1, 1),
        elementary(2, 1, VERTICAL),
        elementary(0, 1),
    ]
    for t in pieces:
        for s in pieces:
            for op in (PLUS, STAR):
                want = bracket(combine(t, s, op))
                got = combine_triples(bracket(t), bracket(s), op)
                assert _tup(got) == _tup(want), op


def test_combine_triples_units():
    t = bracket(build_basic(parse_vector("2,1v")))
    # [0] is the unit for plus, 1/[0] for star
    assert _tup(combine_triples(t, TRIPLE_H, PLUS)) == _tup(t)
    assert _tup(combine_triples(TRIPLE_H, t, PLUS)) == _tup(t)
    assert _tup(combine_triples(t, TRIPLE_V, STAR)) == _tup(t)
    assert _tup(combine_triples(TRIPLE_V, t, STAR)) == _tup(t)
    # appending the virtual crossing permutes the coefficients
    east = combine_triples(t, TRIPLE_X, PLUS)
    assert _tup(east) == (t.f, t.h, t.g)
    south = combine_triples(t, TRIPLE_X, STAR)
    assert _tup(south) == (t.h, t.g, t.f)


def test_bracket_independent_of_arc_order():
    d = build_basic(parse_vector("2,-1v,2"))
    base = bracket(d)
    rng = random.Random(7)
    for _ in range(5):
        arcs = list(d.arcs)
        rng.shuffle(arcs)
        shuffled = type(d)(d.signs, tuple(arcs), d.free_loops)
        assert _tup(bracket(shuffled)) == _tup(base)


def test_spec_example_vertical_marked_double():
    # oracle: exhaustive state sum of the vertical marked double twist
    d = elementary(2, 1, VERTICAL)
    t = bracket(d)
    assert str(t.f) == "0"
    assert str(t.g) == "-A^4 + 1"
    assert str(t.h) == "A^-2"


entries = st.tuples(st.integers(min_value=-2, max_value=2), st.integers(0, 1))


@settings(max_examples=40, deadline=None)
@given(st.lists(entries, min_size=1, max_size=2), st.sampled_from((PLUS, STAR)))
def test_combine_is_bracket_homomorphism(es, op):
    v = TangleVector(tuple(es))
    try:
        v.validate()
    except VectorRuleError:
        return
    d = build_basic(v)
    probe = elementary(1, 1)
    want = bracket(combine(d, probe, op))
    got = combine_triples(bracket(d), bracket(probe), op)
    assert _tup(got) == _tup(want)


def test_bracket_vector_golden():
    for text in ("3,3,3", "2v,-3,1v,4", "0v,2,3v", "inf", "inf,2v,-1", "0"):
        v = parse_vector(text)
        assert _tup(bracket_vector(v)) == _tup(bracket(build_basic(v))), text


fold_entries = st.tuples(st.integers(min_value=-4, max_value=4), st.integers(0, 1))


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.lists(fold_entries, min_size=1, max_size=6))
def test_bracket_vector_equals_state_sum(inf_first, es):
    # covers inf first, both length parities, markers and negative entries
    v = TangleVector((((INF, 0),) if inf_first else ()) + tuple(es))
    try:
        v.validate()
    except VectorRuleError:
        return
    d = build_basic(v)
    if d.n_classical > 14:
        return
    assert _tup(bracket_vector(v)) == _tup(bracket(d))
