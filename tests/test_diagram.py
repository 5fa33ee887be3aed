"""Port-graph diagrams: construction, gluing, moves, twist words."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from vtangle.bracket import bracket
from vtangle.diagram import (
    BOUNDARY,
    COMPASS,
    FLYPE_KINDS,
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
from vtangle.verify import sample_diagrams


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


def test_signs_given_as_a_list_are_stored_as_a_tuple():
    b = BOUNDARY
    d = TangleDiagram([1], (((b, NW), (0, NW)), ((b, SW), (0, SW)),
                            ((0, NE), (b, NE)), ((0, SE), (b, SE))))
    assert d == elementary(1, 0) and hash(d) == hash(elementary(1, 0))
    assert combine(d, elementary(1, 0), PLUS) == elementary(2, 0)


_B = BOUNDARY


@pytest.mark.parametrize(
    "signs, arcs, free_loops, message",
    [
        ((), (((_B, NW), (_B, NW)), ((_B, NE), (_B, SE)), ((_B, SW), (_B, SE))), 0,
         "malformed arc ((-1, 0), (-1, 0))"),
        ((), (((_B, SE), (_B, NW), (_B, NE)), ((_B, SW), (_B, SE))), 0,
         "malformed arc ((-1, 0), (-1, 1), (-1, 2))"),
        ((), (((_B, NW), (_B, 4)), ((_B, NE), (_B, SE))), 0,
         "bad slot in endpoint (-1, 4)"),
        ((), (((_B, NW), (0, NW)), ((_B, NE), (_B, SE)), ((_B, SW), (0, SE))), 0,
         "endpoint references missing node 0"),
        ((), (((_B, NW), (_B, NE)), ((_B, SW), (_B, NE))), 0,
         "endpoint (-1, 1) used twice"),
        ((1,), (((0, NW), (0, NE)),), 0,
         "diagram must touch every port and endpoint exactly once (2 of 8 present)"),
        ((2,), (((_B, NW), (0, NW)), ((_B, SW), (0, SW)),
                ((0, NE), (_B, NE)), ((0, SE), (_B, SE))), 0,
         "bad node sign 2"),
        ((), (((_B, NW), (_B, NE)), ((_B, SW), (_B, SE))), -1,
         "free_loops must be nonnegative"),
    ],
)
def test_malformed_input_messages(signs, arcs, free_loops, message):
    with pytest.raises(ValueError) as exc:
        TangleDiagram(signs, arcs, free_loops)
    assert str(exc.value) == message


# Arc-level references for the moves: each works on (node, slot) endpoints
# and builds its result through the public constructor, sharing nothing with
# the port-array moves it checks.


def _ref_fuse(partner, ident, terminal_map):
    """Contract 2-valent glue junctions out of a matching.

    partner: endpoint -> endpoint from the raw arcs; ident: junction -> its
    glued twin (both directions); terminal_map: surviving endpoint -> final
    label.  Returns (arcs, closed_loop_count).
    """
    arcs = []
    loops = 0
    visited = set()
    for start in terminal_map:
        if start in visited:
            continue
        visited.add(start)
        cur = partner[start]
        while cur in ident:
            visited.add(cur)
            twin = ident[cur]
            visited.add(twin)
            cur = partner[twin]
        visited.add(cur)
        arcs.append((terminal_map[start], terminal_map[cur]))
    for tok in ident:
        if tok in visited:
            continue
        loops += 1
        cur = tok
        while cur not in visited:
            visited.add(cur)
            twin = ident[cur]
            visited.add(twin)
            cur = partner[twin]
    return arcs, loops


def _ref_combine(t, s, op):
    shift = t.n_nodes

    def t_ep(ep):
        node, slot = ep
        return ("T", slot) if node == BOUNDARY else ep

    def s_ep(ep):
        node, slot = ep
        return ("S", slot) if node == BOUNDARY else (node + shift, slot)

    partner = {}
    for a, b in t.arcs:
        partner[t_ep(a)] = t_ep(b)
        partner[t_ep(b)] = t_ep(a)
    for a, b in s.arcs:
        partner[s_ep(a)] = s_ep(b)
        partner[s_ep(b)] = s_ep(a)
    if op == PLUS:
        glue = ((("T", NE), ("S", NW)), (("T", SE), ("S", SW)))
        boundary = {("T", NW): NW, ("T", SW): SW, ("S", NE): NE, ("S", SE): SE}
    else:
        glue = ((("T", SW), ("S", NW)), (("T", SE), ("S", NE)))
        boundary = {("T", NW): NW, ("T", NE): NE, ("S", SW): SW, ("S", SE): SE}
    ident = {}
    for x, y in glue:
        ident[x] = y
        ident[y] = x
    terminal_map = {
        (node, slot): (node, slot)
        for node in range(t.n_nodes + s.n_nodes)
        for slot in COMPASS
    }
    for tok, compass in boundary.items():
        terminal_map[tok] = (BOUNDARY, compass)
    arcs, loops = _ref_fuse(partner, ident, terminal_map)
    return TangleDiagram(
        t.signs + s.signs, tuple(arcs), t.free_loops + s.free_loops + loops
    )


def _ref_rotate_pi(t):
    rot = (SE, SW, NW, NE)
    arcs = tuple(tuple((node, rot[slot]) for node, slot in arc) for arc in t.arcs)
    return TangleDiagram(t.signs, arcs, t.free_loops)


def _ref_insert_kink(t, endpoint, sign):
    k = t.n_nodes
    target = (BOUNDARY, endpoint)
    arcs = []
    for arc in t.arcs:
        if target in arc:
            other = arc[0] if arc[1] == target else arc[1]
            arcs.append((other, (k, NW)))
        else:
            arcs.append(arc)
    arcs += [((k, NE), target), ((k, SE), (k, SW))]
    return TangleDiagram(t.signs + (sign,), tuple(arcs), t.free_loops)


def _ref_virtualize(t, idx):
    v1, v2 = t.n_nodes, t.n_nodes + 1
    rewire = {(idx, NW): (v1, NW), (idx, SW): (v1, SW), (idx, NE): (v2, NE), (idx, SE): (v2, SE)}
    arcs = [tuple(rewire.get(ep, ep) for ep in arc) for arc in t.arcs]
    arcs += [((v1, NE), (idx, NW)), ((v1, SE), (idx, SW)),
             ((idx, NE), (v2, NW)), ((idx, SE), (v2, SW))]
    return TangleDiagram(t.signs + (VIRTUAL, VIRTUAL), tuple(arcs), t.free_loops)


@st.composite
def small_port_graphs(draw):
    """Random signs, a random perfect matching of the ports and the four
    endpoints (arcs between two ports of one node allowed), up to two free
    loops; at most 8 nodes."""
    n = draw(st.integers(min_value=0, max_value=8))
    signs = draw(st.lists(st.sampled_from((-1, VIRTUAL, 1)), min_size=n, max_size=n))
    ends = [(j, s) for j in range(n) for s in COMPASS] + [(BOUNDARY, c) for c in COMPASS]
    ends = draw(st.permutations(ends))
    arcs = tuple((ends[k], ends[k + 1]) for k in range(0, len(ends), 2))
    return TangleDiagram(tuple(signs), arcs, draw(st.integers(min_value=0, max_value=2)))


def _same(got, want):
    assert got == want
    assert (got.arcs, got.free_loops) == (want.arcs, want.free_loops)


@settings(max_examples=300, deadline=None)
@given(small_port_graphs(), small_port_graphs())
def test_moves_match_arc_level_references(t, s):
    for op in (PLUS, STAR):
        _same(combine(t, s, op), _ref_combine(t, s, op))
    _same(rotate_pi(t), _ref_rotate_pi(t))
    for endpoint in COMPASS:
        for sign in (1, -1):
            _same(insert_kink(t, endpoint, sign), _ref_insert_kink(t, endpoint, sign))
    for idx in t.classical_indices:
        _same(virtualize_crossing(t, idx), _ref_virtualize(t, idx))


def test_glue_closes_a_loop():
    # t joins NE to SE and s joins NW to SW, so the two glue junctions of
    # the sum close one loop between them
    b = BOUNDARY
    t = TangleDiagram((), (((b, NW), (b, SW)), ((b, NE), (b, SE))), 1)
    s = TangleDiagram((), (((b, NW), (b, SW)), ((b, NE), (b, SE))))
    got = combine(t, s, PLUS)
    _same(got, _ref_combine(t, s, PLUS))
    assert got.free_loops == 2
    assert got.arcs == (((b, NW), (b, SW)), ((b, NE), (b, SE)))
    # with a crossing on either side the strands pass the junctions instead
    one = elementary(1, 0)
    for op in (PLUS, STAR):
        _same(combine(one, t, op), _ref_combine(one, t, op))
        _same(combine(t, one, op), _ref_combine(t, one, op))


def _suite_family(d, i):
    """The diagrams the invariance and ratio suites build from sample i."""
    out = [d]
    for kind in FLYPE_KINDS:
        out += flype_pair(d, kind, 1 if i % 2 == 0 or kind == "virtual" else -1)
    out += [insert_kink(d, COMPASS[i % 4], 1), insert_kink(d, COMPASS[(i + 2) % 4], -1)]
    if d.classical_indices:
        out.append(virtualize_crossing(d, d.classical_indices[i % len(d.classical_indices)]))
    vc = elementary(0, 1, HORIZONTAL)
    out += [combine(d, vc, PLUS), combine(d, vc, STAR)]
    return out


def test_arcs_round_trip_on_suite_diagrams():
    rng = random.Random(0)
    for seed in range(10):
        for max_classical in (10, 8):  # invariance, ratio
            samples = sample_diagrams(random.Random(seed), 100, max_classical)
            for i, base in enumerate(samples):
                for d in _suite_family(base, i):
                    again = TangleDiagram(d.signs, d.arcs, d.free_loops)
                    assert again == d and hash(again) == hash(d)
                    arcs = [arc[::-1] if rng.random() < 0.5 else arc for arc in d.arcs]
                    rng.shuffle(arcs)
                    assert TangleDiagram(d.signs, tuple(arcs), d.free_loops) == d
