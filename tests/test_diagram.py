"""Port-graph diagrams: construction, gluing, moves, twist words."""

import pytest

from vtangle.bracket import bracket
from vtangle.diagram import (
    BOUNDARY,
    HORIZONTAL,
    NE,
    NW,
    PLUS,
    SE,
    STAR,
    SW,
    VERTICAL,
    VIRTUAL,
    TangleDiagram,
    TwistWord,
    add_free_loop,
    build_basic,
    combine,
    elementary,
    flype_pair,
    insert_kink,
    reduce_twist_region,
    rotate_pi,
    twist_word_diagram,
    virtualize_crossing,
)
from vtangle.errors import MixedSignError
from vtangle.vector import parse_vector


def _triple(d):
    t = bracket(d)
    return (t.f, t.g, t.h)


def test_elementary_shapes():
    d = elementary(0, 0, HORIZONTAL)
    assert d.n_nodes == 0
    assert len(d.arcs) == 2
    d = elementary(3, 0, HORIZONTAL)
    assert d.n_nodes == 3
    assert d.n_classical == 3
    d = elementary(-2, 1, VERTICAL)
    assert d.n_nodes == 3
    assert d.n_classical == 2
    assert d.signs.count(VIRTUAL) == 1


def test_every_port_used_exactly_once():
    d = elementary(2, 1, HORIZONTAL)
    seen = [ep for arc in d.arcs for ep in arc]
    assert len(seen) == len(set(seen))
    assert len(seen) == 4 * d.n_nodes + 4
    for c in (NW, NE, SE, SW):
        assert (BOUNDARY, c) in seen


def test_arc_validation():
    with pytest.raises(ValueError):
        TangleDiagram((1,), (((0, NW), (0, NE)),))  # missing ports
    with pytest.raises(ValueError):
        TangleDiagram(
            (),
            (
                ((BOUNDARY, NW), (BOUNDARY, NE)),
                ((BOUNDARY, SW), (BOUNDARY, NE)),  # NE used twice, SE missing
            ),
        )


def test_combine_structural():
    one = elementary(1, 0)
    two = combine(one, one, PLUS)
    assert two.n_nodes == 2
    assert _triple(two) == _triple(elementary(2, 0))
    stack = combine(one, one, STAR)
    assert stack.n_nodes == 2
    # gluing [0] onto [0] sideways gives [0] again; stacking makes a loop
    zero = elementary(0, 0)
    assert _triple(combine(zero, zero, PLUS)) == _triple(zero)
    looped = combine(elementary(0, 0, VERTICAL), elementary(0, 0, VERTICAL), PLUS)
    t = bracket(looped)
    from vtangle.laurent import LOOP_FACTOR, ONE, ZERO

    assert (t.f, t.g, t.h) == (LOOP_FACTOR * ONE, ZERO, ZERO)
    # stacking [0] on [0] is the mirror image: one loop times the horizontal unit
    stacked = bracket(combine(zero, zero, STAR))
    assert (stacked.f, stacked.g, stacked.h) == (ZERO, LOOP_FACTOR * ONE, ZERO)


def test_free_loop_multiplies():
    d = elementary(1, 0)
    t = bracket(d)
    t2 = bracket(add_free_loop(d))
    from vtangle.laurent import LOOP_FACTOR

    assert (t2.f, t2.g, t2.h) == (
        t.f * LOOP_FACTOR,
        t.g * LOOP_FACTOR,
        t.h * LOOP_FACTOR,
    )


def test_build_basic_crossing_counts():
    assert build_basic(parse_vector("2,3,1")).n_classical == 6
    d = build_basic(parse_vector("2,-3v,1"))
    assert d.n_classical == 6
    assert d.signs.count(VIRTUAL) == 1
    assert build_basic(parse_vector("inf,2")).n_classical == 2


def test_rotate_pi_is_involution():
    d = build_basic(parse_vector("2,3"))
    assert rotate_pi(rotate_pi(d)) == d


def test_rotate_pi_preserves_bracket():
    # the half turn fixes all three boundary pairings, so flype sides match
    for s in ("2,3", "1v,2", "inf,2v,1", "-2,1v,1v"):
        d = build_basic(parse_vector(s))
        assert _triple(rotate_pi(d)) == _triple(d)


def test_flype_pairs_agree():
    p = build_basic(parse_vector("2,1v"))
    for kind in ("classical-left", "classical-right", "virtual"):
        for sign in (1, -1):
            d1, d2 = flype_pair(p, kind, sign)
            assert _triple(d1) == _triple(d2), (kind, sign)


def test_virtualize_keeps_bracket():
    d = build_basic(parse_vector("2,3,1"))
    for idx in d.classical_indices:
        assert _triple(virtualize_crossing(d, idx)) == _triple(d)
    with pytest.raises(ValueError):
        virtualize_crossing(build_basic(parse_vector("0v")), 0)


def test_insert_kink_factor():
    from vtangle.laurent import LaurentPoly

    d = build_basic(parse_vector("1v,2"))
    base = bracket(d)
    for sign, mono in ((1, LaurentPoly({3: -1})), (-1, LaurentPoly({-3: -1}))):
        for endpoint in (NW, NE, SE, SW):
            got = bracket(insert_kink(d, endpoint, sign))
            want = base.scaled(mono)
            assert (got.f, got.g, got.h) == (want.f, want.g, want.h)


def test_reduce_twist_region():
    assert reduce_twist_region(TwistWord((1, 0, 1, 0))) == (2, 0)
    assert reduce_twist_region(TwistWord((0,))) == (0, 1)
    assert reduce_twist_region(TwistWord((-1, -1, 0))) == (-2, 1)
    assert reduce_twist_region(TwistWord(())) == (0, 0)
    with pytest.raises(MixedSignError):
        reduce_twist_region(TwistWord((1, -1)))


def test_twist_word_matches_reduced_elementary():
    for letters in ((1, 0, 1, 0), (0, 0), (1, 1, 1), (-1, 0, -1), (0, 1, 0)):
        for axis in (HORIZONTAL, VERTICAL):
            word = TwistWord(letters, axis)
            n, eps = reduce_twist_region(word)
            assert _triple(twist_word_diagram(word)) == _triple(
                elementary(n, eps, axis)
            ), (letters, axis)


def test_elementary_is_the_twist_word_chain():
    for n in range(-4, 5):
        for eps in (0, 1):
            for axis in (HORIZONTAL, VERTICAL):
                sign = 1 if n > 0 else -1
                word = TwistWord((sign,) * abs(n) + (0,) * eps, axis)
                assert elementary(n, eps, axis) == twist_word_diagram(word), (n, eps, axis)
    # the chain itself: strands enter at the west (north) end, leave at the east (south)
    b = BOUNDARY
    assert elementary(-1, 1, HORIZONTAL) == TangleDiagram(
        (-1, VIRTUAL),
        (((b, NW), (0, NW)), ((b, SW), (0, SW)), ((0, NE), (1, NW)),
         ((0, SE), (1, SW)), ((1, NE), (b, NE)), ((1, SE), (b, SE))),
    )
    assert elementary(1, 1, VERTICAL) == TangleDiagram(
        (1, VIRTUAL),
        (((b, NW), (0, NW)), ((b, NE), (0, NE)), ((0, SW), (1, NW)),
         ((0, SE), (1, NE)), ((1, SW), (b, SW)), ((1, SE), (b, SE))),
    )
    assert elementary(0, 0, VERTICAL) == TangleDiagram((), (((b, NW), (b, SW)), ((b, NE), (b, SE))))
