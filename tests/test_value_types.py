"""The value-type contract: what every frozen value promises its callers.

One instance of each frozen type, checked for its repr, its hash (the
hash of its field tuple; a correspondence hashes its two chains only), a
pickle round trip, the errors raised by assigning or deleting a field,
construction by keyword, and inequality with a value of another class
whose fields are equal.  `SpecFile` is mutable, so it is checked only for
equality, its repr and fresh default dicts.
"""

import pickle
from dataclasses import FrozenInstanceError

import pytest

from ordagg import (
    Chain,
    ChainElem,
    CommFn,
    Corr,
    GroundSet,
    Interval,
    LatticeFn,
    ReflChain,
    ReflElem,
    RInterval,
    SetFamily,
    TotalFn,
)
from ordagg.specfile import SpecFile

C = Chain("c", 3, ("lo", "mid", "hi"))
RC = ReflChain("r", 2)
G = GroundSet(("a", "b"))

C_REPR = "Chain(id='c', size=3, labels=('lo', 'mid', 'hi'))"
RC_REPR = "ReflChain(id='r', half_size=2, labels=None)"
G_REPR = "GroundSet(elements=('a', 'b'))"

# (value, its repr, its fields in order with their values, the hashed fields)
CASES = [
    (C, C_REPR, {"id": "c", "size": 3, "labels": ("lo", "mid", "hi")}, None),
    (ChainElem(C, 1), f"ChainElem(chain={C_REPR}, rank=1)", {"chain": C, "rank": 1}, None),
    (RC, RC_REPR, {"id": "r", "half_size": 2, "labels": None}, None),
    (ReflElem(RC, -1), f"ReflElem(chain={RC_REPR}, srank=-1)",
     {"chain": RC, "srank": -1}, None),
    (Interval(C, 0, 2), f"Interval(chain={C_REPR}, lo=0, hi=2)",
     {"chain": C, "lo": 0, "hi": 2}, None),
    (RInterval(RC, -2, -1), f"RInterval(chain={RC_REPR}, lo=-2, hi=-1)",
     {"chain": RC, "lo": -2, "hi": -1}, None),
    (Corr(C, C, {2: Interval(C, 1, 1)}),
     f"Corr(src={C_REPR}, dst={C_REPR}, table=mappingproxy({{2: Interval(chain={C_REPR}, "
     "lo=1, hi=1)}))",
     {"src": C, "dst": C, "table": {2: Interval(C, 1, 1)}}, ("src", "dst")),
    (TotalFn(C, C, (2, 1, 0)), f"TotalFn(src={C_REPR}, dst={C_REPR}, values=(2, 1, 0))",
     {"src": C, "dst": C, "values": (2, 1, 0)}, None),
    (LatticeFn(G, RC, (2, -1)), f"LatticeFn(ground={G_REPR}, scale={RC_REPR}, values=(2, -1))",
     {"ground": G, "scale": RC, "values": (2, -1)}, None),
    (CommFn(C, C, (0, 1, 2)), f"CommFn(src={C_REPR}, dst={C_REPR}, values=(0, 1, 2))",
     {"src": C, "dst": C, "values": (0, 1, 2)}, None),
    (G, G_REPR, {"elements": ("a", "b")}, None),
    (SetFamily(G, frozenset({0, 1, 3})),
     f"SetFamily(ground={G_REPR}, members=frozenset({{0, 1, 3}}))",
     {"ground": G, "members": frozenset({0, 1, 3})}, None),
]
IDS = [type(case[0]).__name__ for case in CASES]


def test_every_frozen_type_is_covered():
    assert len({type(case[0]) for case in CASES}) == 12


@pytest.mark.parametrize("value, text, fields, hashed", CASES, ids=IDS)
def test_repr(value, text, fields, hashed):
    assert repr(value) == text


@pytest.mark.parametrize("value, text, fields, hashed", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(value, text, fields, hashed):
    key = tuple(fields[name] for name in hashed or fields)
    assert hash(value) == hash(key)


@pytest.mark.parametrize("value, text, fields, hashed", CASES, ids=IDS)
def test_pickle_round_trip(value, text, fields, hashed):
    back = pickle.loads(pickle.dumps(value))
    assert back == value and hash(back) == hash(value)
    assert type(back) is type(value) and repr(back) == text


@pytest.mark.parametrize("value, text, fields, hashed", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, text, fields, hashed):
    for name in (*fields, "other"):
        with pytest.raises(FrozenInstanceError) as raised:
            setattr(value, name, None)
        assert str(raised.value) == f"cannot assign to field {name!r}"
        with pytest.raises(FrozenInstanceError) as raised:
            delattr(value, name)
        assert str(raised.value) == f"cannot delete field {name!r}"
    assert repr(value) == text


@pytest.mark.parametrize("value, text, fields, hashed", CASES, ids=IDS)
def test_construction_by_keyword(value, text, fields, hashed):
    again = type(value)(**fields)
    assert again == value and hash(again) == hash(value) and again is not value
    assert [getattr(again, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("value, text, fields, hashed", CASES, ids=IDS)
def test_equality_needs_the_same_class(value, text, fields, hashed):
    assert value == value and not value != value
    assert value != object() and value != tuple(fields.values())


def test_equal_fields_of_another_class_are_not_equal():
    assert Chain("r", 2) != ReflChain("r", 2)
    assert TotalFn(C, C, (0, 1, 2)) != CommFn(C, C, (0, 1, 2))
    assert ChainElem(Chain("r", 2), 1) != ReflElem(ReflChain("r", 2), 1)


def test_a_field_that_differs_makes_values_unequal():
    assert Interval(C, 0, 1) != Interval(C, 0, 2)
    assert Chain("c", 3) != Chain("c", 3, ("lo", "mid", "hi"))
    # the correspondence's table takes part in ==, though not in the hash
    one, other = Corr(C, C, {0: Interval(C, 0, 0)}), Corr(C, C, {0: Interval(C, 1, 1)})
    assert one != other and hash(one) == hash(other) == hash(Corr(C, C))
    assert Corr(C, C).table == {}


def test_spec_file():
    sf = SpecFile()
    assert repr(sf) == "SpecFile(scales={}, ground=None, measures={}, functions={}, comms={})"
    assert sf == SpecFile() and sf != SpecFile(ground=G) and sf != object()
    # each instance gets its own dicts
    other = SpecFile()
    sf.scales["c"] = C
    assert other.scales == {} and sf != other
    assert SpecFile(scales={"c": C}) == sf
    sf.ground = G
    assert sf == SpecFile({"c": C}, G)
    assert SpecFile.__hash__ is None
    with pytest.raises(TypeError):
        hash(sf)
