"""Tangle vector grammar, placement rules, and normal forms."""

import pytest
from hypothesis import given, strategies as st

from vtangle.errors import VectorRuleError, VectorSyntaxError
from vtangle.vector import INF, TangleVector, format_vector, parse_vector


def test_parse_golden():
    assert parse_vector("2,-3v,1").entries == ((2, 0), (-3, 1), (1, 0))
    assert parse_vector("inf,2").entries == ((INF, 0), (2, 0))
    assert parse_vector("0v").entries == ((0, 1),)
    assert parse_vector(" 2 , 3 , 1v ").entries == ((2, 0), (3, 0), (1, 1))
    assert parse_vector("+4").entries == ((4, 0),)


def test_parse_syntax_errors_carry_offsets():
    with pytest.raises(VectorSyntaxError) as exc:
        parse_vector("2,,1")
    assert exc.value.offset == 2
    with pytest.raises(VectorSyntaxError) as exc:
        parse_vector("2,x")
    assert exc.value.offset == 2
    with pytest.raises(VectorSyntaxError):
        parse_vector("")
    with pytest.raises(VectorSyntaxError):
        parse_vector("2.5")
    with pytest.raises(VectorSyntaxError):
        parse_vector("2V")  # markers are lowercase
    with pytest.raises(VectorSyntaxError):
        parse_vector("INF")


def test_parse_rejects_split_entries_and_non_ascii_digits():
    # whitespace may surround an entry but not split it
    with pytest.raises(VectorSyntaxError) as exc:
        parse_vector("1, 2 3")
    assert exc.value.offset == 3
    with pytest.raises(VectorSyntaxError) as exc:
        parse_vector("2 3")
    assert exc.value.offset == 0
    with pytest.raises(VectorSyntaxError) as exc:
        parse_vector("2,\u0663")  # ARABIC-INDIC DIGIT THREE
    assert exc.value.offset == 2


def test_parse_rule_errors_carry_positions():
    with pytest.raises(VectorRuleError) as exc:
        parse_vector("1,0,2")  # interior 0 without marker
    assert exc.value.position == 2
    with pytest.raises(VectorRuleError) as exc:
        parse_vector("2,inf")
    assert exc.value.position == 2
    with pytest.raises(VectorRuleError) as exc:
        parse_vector("infv")
    assert exc.value.position == 1


def test_leading_and_trailing_zero_allowed():
    # only interior entries are constrained; 0 first or last is legitimate
    parse_vector("0,1,2v")
    parse_vector("1,1v,0")
    parse_vector("0")
    with pytest.raises(VectorRuleError):
        parse_vector("1,0,2v")
    # even-length vectors extend by a trailing (0,0): their last entry is
    # interior in the extended form
    with pytest.raises(VectorRuleError):
        parse_vector("1,0")
    parse_vector("1,0v")


def test_normalized_and_extended():
    v = TangleVector(((2, 0), (3, 1)), first_is_horizontal=False)
    n = v.normalized()
    assert n.entries == ((INF, 0), (2, 0), (3, 1))
    assert n.first_is_horizontal
    assert n.normalized() is n
    e = TangleVector(((2, 0), (3, 1))).extended_odd()
    assert e.entries == ((2, 0), (3, 1), (0, 0))
    assert TangleVector(((2, 0),)).extended_odd().entries == ((2, 0),)


def test_classical_and_crossing_count():
    assert parse_vector("2,3,1").classical
    assert not parse_vector("2,3v,1").classical
    assert parse_vector("2,-3,1").crossing_count == 6
    assert parse_vector("2,-3v,1").crossing_count == 7  # marker adds a crossing
    assert parse_vector("inf,2").crossing_count == 2


def test_format_roundtrip_golden():
    for s in ("2,-3v,1", "inf,2", "0v", "-1v,-2v,-3v", "inf,0v,3"):
        assert format_vector(parse_vector(s)) == s


entry = st.tuples(st.integers(min_value=-9, max_value=9), st.integers(0, 1))
vectors = st.lists(entry, min_size=1, max_size=5).map(
    lambda es: TangleVector(tuple(es))
)


@given(vectors)
def test_parse_format_roundtrip(v):
    try:
        v.validate()
    except VectorRuleError:
        return
    assert parse_vector(format_vector(v)) == v


@given(vectors)
def test_extended_odd_is_odd_and_equivalent_prefix(v):
    try:
        v.validate()
    except VectorRuleError:
        return
    e = v.extended_odd()
    assert e.n % 2 == 1
    assert e.entries[: v.n] == v.entries
