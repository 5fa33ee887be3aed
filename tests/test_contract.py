"""Port-graph contraction: bracket_contract against the state-sum oracle."""

import random
import sys
import time

from hypothesis import given, settings, strategies as st

from vtangle.bracket import bracket, bracket_contract, bracket_vector
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
    twist_word_diagram,
    virtualize_crossing,
)
from vtangle.laurent import LOOP_FACTOR, ONE, ZERO, LaurentPoly
from vtangle.vector import parse_vector
from vtangle.verify import (
    run_additivity_suite,
    run_invariance_suite,
    run_ratio_suite,
    sample_diagrams,
)

# vtangle re-exports the function bracket under the submodule's name
bracket_module = sys.modules["vtangle.bracket"]


def _tup(t):
    return (t.f, t.g, t.h)


def _assert_same(d):
    assert _tup(bracket_contract(d)) == _tup(bracket(d)), d


@st.composite
def port_graphs(draw):
    """Random signs, a random perfect matching of every node port and the
    four endpoints (arcs between two ports of one node allowed), and up to
    two free loops; at most 14 classical crossings."""
    n = draw(st.integers(min_value=0, max_value=16))
    signs = draw(st.lists(st.sampled_from((-1, VIRTUAL, 1)), min_size=n, max_size=n))
    ends = [(j, s) for j in range(n) for s in COMPASS]
    ends += [(BOUNDARY, c) for c in COMPASS]
    ends = draw(st.permutations(ends))
    arcs = tuple((ends[k], ends[k + 1]) for k in range(0, len(ends), 2))
    free = draw(st.integers(min_value=0, max_value=2))
    return TangleDiagram(tuple(signs), arcs, free)


@settings(max_examples=150, deadline=None)
@given(port_graphs())
def test_contract_equals_state_sum_on_random_port_graphs(d):
    if d.n_classical > 14:
        return
    _assert_same(d)


def test_contract_equals_state_sum_on_sampled_and_decorated_diagrams():
    vc = elementary(0, 1, HORIZONTAL)
    for seed in range(50):
        for i, d in enumerate(sample_diagrams(random.Random(seed), 4)):
            decorated = [d, combine(d, vc, PLUS), combine(d, vc, STAR)]
            for kind in FLYPE_KINDS:
                decorated += flype_pair(d, kind, sign=1 if i % 2 == 0 else -1)
            for sign, endpoint in ((1, COMPASS[i % 4]), (-1, COMPASS[(i + 2) % 4])):
                decorated.append(insert_kink(d, endpoint, sign))
            if d.classical_indices:
                idx = d.classical_indices[i % len(d.classical_indices)]
                decorated.append(virtualize_crossing(d, idx))
            for x in decorated:
                _assert_same(x)


def test_contract_edge_cases():
    h = elementary(0, 0, HORIZONTAL)
    v = elementary(0, 0, VERTICAL)
    assert _tup(bracket_contract(h)) == (ZERO, ONE, ZERO)
    assert _tup(bracket_contract(v)) == (ONE, ZERO, ZERO)
    assert _tup(bracket_contract(add_free_loop(add_free_loop(h)))) == (
        ZERO,
        LOOP_FACTOR * LOOP_FACTOR,
        ZERO,
    )
    chain = twist_word_diagram(TwistWord((0, 0, 0)))
    assert chain.n_classical == 0 and chain.n_nodes == 3
    _assert_same(chain)
    assert _tup(bracket_contract(chain)) == (ZERO, ZERO, ONE)
    _assert_same(twist_word_diagram(TwistWord((0, 0, 0, 0), VERTICAL)))
    # a virtual crossing closed on itself: two loops, both through it
    b = BOUNDARY
    closed = TangleDiagram(
        (VIRTUAL,),
        (
            ((b, NW), (b, NE)),
            ((b, SW), (b, SE)),
            ((0, NW), (0, SE)),
            ((0, NE), (0, SW)),
        ),
    )
    _assert_same(closed)
    assert _tup(bracket_contract(closed)) == (ZERO, LOOP_FACTOR * LOOP_FACTOR, ZERO)
    # a kink's curl joins two ports of one crossing
    for sign in (1, -1):
        for endpoint in COMPASS:
            _assert_same(insert_kink(elementary(0, 0, HORIZONTAL), endpoint, sign))
            _assert_same(insert_kink(elementary(0, 1, VERTICAL), endpoint, sign))


def test_suites_make_no_state_sum_call(monkeypatch):
    calls = []

    class Counting(bracket_module._Compiled):
        def __init__(self, d):
            calls.append(d)
            super().__init__(d)

    # every state-sum bracket() call compiles its diagram first
    monkeypatch.setattr(bracket_module, "_Compiled", Counting)
    assert run_invariance_suite(seed=2, count=10)
    assert run_ratio_suite(seed=2, count=10)
    assert run_additivity_suite(seed=2, count=10)
    assert calls == []
    bracket(elementary(1, 0))  # the counter itself works
    assert len(calls) == 1


def test_forty_crossing_chain_answers_quickly():
    # the state sum would need 2^41 states here
    v = parse_vector("5,5,5,5,5,5,5,5")
    d = virtualize_crossing(insert_kink(build_basic(v), NW, 1), 7)
    assert d.n_classical == 41
    t0 = time.monotonic()
    got = bracket_contract(d)
    assert time.monotonic() - t0 < 2.0
    kink = LaurentPoly({3: -1})
    assert _tup(got) == _tup(bracket_vector(v).scaled(kink))
