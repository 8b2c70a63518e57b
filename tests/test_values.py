"""Value semantics of the library's objects: equality, hashing, immutability, pickling."""

import copy
import pickle
from fractions import Fraction

import pytest

from circlering.fields import PrimeField, QuadraticExtension, Rationals
from circlering.maximal import CircularPointSet, SetStatus, grow_maximal_set
from circlering.plane import AT_INFINITY, circle, point, point_from_parameter
from circlering.rotation import RotationElement

DESCRIPTORS = {
    "F_7": lambda: PrimeField(7),
    "F_49": lambda: QuadraticExtension(7, (1, 0)),
    "Q": Rationals,
}
RADIUS = {"F_7": 1, "F_49": (0, 1), "Q": Fraction(2)}
# the attributes of each kind of value
ATTRS = {
    "element": ("field", "value"),
    "point": ("x", "y"),
    "circle": ("center", "radius"),
    "rotation": ("circle", "point"),
    "set": ("circle", "points", "status", "is_prefix"),
}


def values(name):
    """One value of each kind in ATTRS over a freshly built descriptor of the field `name`."""
    field = DESCRIPTORS[name]()
    c = circle(field, (0, 0), RADIUS[name])
    grown = grow_maximal_set(c, point_from_parameter(c, AT_INFINITY), prefix=6)
    return {
        "element": field(5),
        "point": point(field, 1, 2),
        "circle": c,
        "rotation": RotationElement(c, point_from_parameter(c, 2)),
        "set": grown,
    }


@pytest.mark.parametrize("kind", ATTRS)
def test_equal_values_compare_and_hash_equal(kind):
    for name in DESCRIPTORS:
        a, b = values(name)[kind], values(name)[kind]
        assert a is not b
        assert a == b and hash(a) == hash(b), name
        assert len({a, b}) == 1


@pytest.mark.parametrize("kind", ATTRS)
def test_values_differ_from_plain_ints_and_tuples(kind):
    for name in DESCRIPTORS:
        v = values(name)[kind]
        plain = [5, (1, 2), tuple(getattr(v, attr) for attr in ATTRS[kind])]
        if kind == "element":
            plain.append(v.value)
        if kind == "set":
            plain.append(v.points)
        for other in plain:
            assert v != other and other != v, (name, other)


@pytest.mark.parametrize("kind", ATTRS)
def test_values_refuse_assignment(kind):
    for name in DESCRIPTORS:
        v = values(name)[kind]
        before = [getattr(v, attr) for attr in ATTRS[kind]]
        for attr in ATTRS[kind]:
            with pytest.raises(AttributeError):
                setattr(v, attr, None)
        # a name that is no attribute is refused too; CPython's frozen slotted
        # dataclasses (3.10 to 3.13) raise TypeError for it, not AttributeError
        with pytest.raises((AttributeError, TypeError)):
            v.extra = None
        assert not hasattr(v, "extra")
        assert [getattr(v, attr) for attr in ATTRS[kind]] == before and v in {v}


@pytest.mark.parametrize("kind", ATTRS)
def test_values_pickle_and_deepcopy(kind):
    for name in DESCRIPTORS:
        v = values(name)[kind]
        for back in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
            assert type(back) is type(v)
            assert back == v and hash(back) == hash(v), name
            assert str(back) == str(v)


@pytest.mark.parametrize("name", DESCRIPTORS)
def test_set_equality_ignores_status_and_prefix(name):
    grown = values(name)["set"]
    others = [
        CircularPointSet(grown.circle, grown.points),
        CircularPointSet(grown.circle, reversed(grown.points), SetStatus.E_MAXIMAL),
        CircularPointSet(grown.circle, grown.points, grown.status, not grown.is_prefix),
    ]
    for other in others:
        assert other == grown and hash(other) == hash(grown)
    assert others[0].status is SetStatus.UNCLASSIFIED and grown.status is SetStatus.C_MAXIMAL
