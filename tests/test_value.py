"""The ten value classes: equality, hashing, repr, immutability, pickling.

They were frozen dataclasses; these tests pin the behaviour that they keep
as plain immutable classes.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from vtangle._value import Value, setters
from vtangle.bracket import BracketTriple, StateResolution
from vtangle.conductance import ConductanceValue, Route
from vtangle.cyclotomic import ZETA, Cyc8
from vtangle.diagram import VERTICAL, TangleDiagram, TwistWord
from vtangle.gaussian import INFINITY, GaussRational
from vtangle.laurent import A, A_INV, LOOP_FACTOR
from vtangle.vector import INF, TangleVector
from vtangle.verify import CheckReport, EnumerationRecord, Envelope

KINK_ARCS = [((-1, 0), (0, 0)), ((-1, 1), (0, 1)), ((-1, 2), (0, 2)), ((-1, 3), (0, 3))]

# (make an instance, make one that differs in a field, the dataclass repr)
CASES = [
    (
        lambda: TangleVector(((2, 0), (-3, 1))),
        lambda: TangleVector(((2, 0), (-3, 1)), False),
        "TangleVector(entries=((2, 0), (-3, 1)), first_is_horizontal=True)",
    ),
    (
        lambda: TangleVector(((INF, 0), (1, 1)), False),
        lambda: TangleVector(((INF, 0), (1, 0)), False),
        "TangleVector(entries=((INF, 0), (1, 1)), first_is_horizontal=False)",
    ),
    (
        lambda: TangleDiagram([1], KINK_ARCS),
        lambda: TangleDiagram([-1], KINK_ARCS),
        "TangleDiagram(signs=(1,), link=(4, 5, 6, 7, 0, 1, 2, 3), free_loops=0)",
    ),
    (
        lambda: TangleDiagram([], [((-1, 0), (-1, 1)), ((-1, 2), (-1, 3))], 2),
        lambda: TangleDiagram([], [((-1, 0), (-1, 1)), ((-1, 2), (-1, 3))], 1),
        "TangleDiagram(signs=(), link=(1, 0, 3, 2), free_loops=2)",
    ),
    (
        lambda: TwistWord((1, 0, 1)),
        lambda: TwistWord((1, 0, 1), VERTICAL),
        "TwistWord(letters=(1, 0, 1), axis='horizontal')",
    ),
    (
        lambda: BracketTriple(A, A_INV, LOOP_FACTOR),
        lambda: BracketTriple(A, A, LOOP_FACTOR),
        "BracketTriple(f=LaurentPoly({1: 1}), g=LaurentPoly({-1: 1}),"
        " h=LaurentPoly({2: -1, -2: -1}))",
    ),
    (
        lambda: StateResolution("H", 1, LOOP_FACTOR),
        lambda: StateResolution("H", 2, LOOP_FACTOR),
        "StateResolution(pairing='H', loops=1, weight=LaurentPoly({2: -1, -2: -1}))",
    ),
    (
        lambda: ConductanceValue(GaussRational(1, 2), "recursion"),
        lambda: ConductanceValue(GaussRational(1, 2), "state-sum"),
        "ConductanceValue(value=GaussRational(Fraction(1, 1), Fraction(2, 1)),"
        " provenance='recursion')",
    ),
    (
        lambda: ConductanceValue(INFINITY, "state-sum"),
        lambda: ConductanceValue(GaussRational(0, 0), "state-sum"),
        "ConductanceValue(value=GaussRational.infinity(), provenance='state-sum')",
    ),
    (
        lambda: Route(len, callable),
        lambda: Route(len, bool),
        "Route(run=<built-in function len>, applies=<built-in function callable>)",
    ),
    (
        lambda: CheckReport("ratio", "1v", "fail", "1/2 + 0/1*i", "inf", "note 'q'"),
        lambda: CheckReport("ratio", "1v", "fail", "1/2 + 0/1*i", "inf"),
        "CheckReport(name='ratio', instance='1v', status='fail', lhs='1/2 + 0/1*i',"
        " rhs='inf', notes=\"note 'q'\")",
    ),
    (
        lambda: CheckReport("kink", "2,3", "pass"),
        lambda: CheckReport("kink", "2,3", "fail"),
        "CheckReport(name='kink', instance='2,3', status='pass', lhs='', rhs='', notes='')",
    ),
    (
        lambda: EnumerationRecord("1,1v", GaussRational(1, -1), False, 3, "recursion"),
        lambda: EnumerationRecord("1,1v", GaussRational(1, -1), False, 4, "recursion"),
        "EnumerationRecord(vector='1,1v', conductance=GaussRational(Fraction(1, 1),"
        " Fraction(-1, 1)), is_real=False, bucket_id=3, provenance='recursion')",
    ),
    (
        lambda: Envelope(3, 3),
        lambda: Envelope(3, 3, classical_only=True),
        "Envelope(n_max=3, a_max=3, include_inf=True, classical_only=False)",
    ),
]
IDS = [text.split("(", 1)[0] for _, _, text in CASES]


def test_every_value_class_is_covered():
    classes = {type(make()) for make, _, _ in CASES}
    assert classes == {
        TangleVector, TangleDiagram, TwistWord, BracketTriple, StateResolution,
        ConductanceValue, Route, CheckReport, EnumerationRecord, Envelope,
    }
    assert all(issubclass(cls, Value) for cls in classes)


def _twin(x):
    """An instance of another class with x's fields and values."""
    twin_cls = type("Twin", (Value,), {"__slots__": type(x).__slots__})
    twin = object.__new__(twin_cls)
    for set_field, name in zip(setters(twin_cls), twin_cls.__slots__):
        set_field(twin, getattr(x, name))
    return twin


@pytest.mark.parametrize("make, make_other, text", CASES, ids=IDS)
def test_equality_and_hash_are_field_wise_within_one_class(make, make_other, text):
    x, y, other = make(), make(), make_other()
    assert x is not y and x == y and not x != y and hash(x) == hash(y)
    assert x != other and not x == other
    fields = tuple(getattr(x, name) for name in type(x).__slots__)
    assert hash(x) == hash(fields)  # as the frozen dataclass hashed it
    twin = _twin(x)
    assert tuple(getattr(twin, name) for name in type(twin).__slots__) == fields
    assert x != twin and twin != x and x != fields


@pytest.mark.parametrize("make, make_other, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_text(make, make_other, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, make_other, text", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(make, make_other, text):
    x = make()
    name = type(x).__slots__[0]
    before = getattr(x, name)
    with pytest.raises(FrozenInstanceError):
        setattr(x, name, None)
    with pytest.raises(FrozenInstanceError):
        delattr(x, name)
    with pytest.raises(FrozenInstanceError):
        x.unknown = 1
    assert getattr(x, name) is before


@pytest.mark.parametrize("make, make_other, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(make, make_other, text):
    x = make()
    copies = [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(x), copy.deepcopy(x)]
    for y in copies:
        assert type(y) is type(x) and y == x and hash(y) == hash(x) and repr(y) == text


def test_as_dict_gives_the_fields_or_their_document_text():
    assert Envelope(3, 2).as_dict() == {
        "n_max": 3, "a_max": 2, "include_inf": True, "classical_only": False,
    }
    assert list(CheckReport("kink", "2,3", "pass").as_dict()) == [
        "name", "instance", "status", "lhs", "rhs", "notes",
    ]
    assert BracketTriple(A, A_INV, LOOP_FACTOR).as_dict() == {
        "f": "A", "g": "A^-1", "h": "-A^2 - A^-2",
    }
    rec = EnumerationRecord("1,1v", GaussRational(1, -1), False, 3, "recursion")
    assert rec.as_dict() == {
        "vector": "1,1v", "conductance": "1/1 - 1/1*i", "is_real": False,
        "bucket_id": 3, "provenance": "recursion",
    }


def test_field_values_pickle_and_copy_too():
    values = [GaussRational(1, -2), INFINITY, Cyc8(1, 0, -1, 3) / Cyc8(2), ZETA, LOOP_FACTOR]
    for x in values:
        for y in (pickle.loads(pickle.dumps(x, 0)), pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(y) is type(x) and y == x and repr(y) == repr(x)
    assert pickle.loads(pickle.dumps(INF, 0)) is INF and copy.deepcopy(INF) is INF
