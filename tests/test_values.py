"""Value semantics of the library's objects: equality, hashing, immutability, pickling.

The field descriptors under every value, and the key exchange's
parameters, are covered too.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from circlering.fields import PrimeField, QuadraticExtension, Rationals
from circlering.keyex import ProtocolParams, decode, encode
from circlering.maximal import CircularPointSet, SetStatus, grow_maximal_set
from circlering.plane import (
    AT_INFINITY,
    PlanePoint,
    circle,
    enumerate_circle,
    enumerate_rational_points,
    point,
    point_from_parameter,
)
from circlering.rotation import RotationElement, rot_pow, rotation_element

DESCRIPTORS = {
    "F_7": lambda: PrimeField(7),
    "F_49": lambda: QuadraticExtension(7, (1, 0)),
    "Q": Rationals,
}
RADIUS = {"F_7": 1, "F_49": (0, 1), "Q": Fraction(2)}
# the construction paths of a point besides point(field, x, y)
POINT_PATHS = ("point_init", "point_enum", "point_pow", "point_decode")
# the attributes of each kind of value
ATTRS = {
    "element": ("field", "value"),
    **{kind: ("field", "x", "y") for kind in ("point", *POINT_PATHS)},
    "circle": ("center", "radius"),
    "rotation": ("circle", "point"),
    "set": ("circle", "points", "status", "is_prefix"),
}


def values(name):
    """One value of each kind in ATTRS over a freshly built descriptor of the field `name`."""
    field = DESCRIPTORS[name]()
    c = circle(field, (0, 0), RADIUS[name])
    grown = grow_maximal_set(c, point_from_parameter(c, AT_INFINITY), prefix=6)
    rotation = RotationElement(c, point_from_parameter(c, 2))
    return {
        "element": field(5),
        "point": point(field, 1, 2),
        "point_init": PlanePoint(field(1), field(2)),
        "point_enum": enumerate_circle(c)[1] if field.is_finite() else next(enumerate_rational_points(c)),
        "point_pow": rot_pow(rotation, 3).point,
        "point_decode": decode(encode(rotation)).point,
        "circle": c,
        "rotation": rotation,
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
        if "x" in ATTRS[kind]:
            plain.append((v.x.value, v.y.value))
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
def test_points_from_every_path_are_like_point(name):
    for kind in POINT_PATHS:
        v = values(name)[kind]
        twin = point(v.field, v.x.value, v.y.value)
        for back in (v, pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
            assert back == twin and twin == back and hash(back) == hash(twin), (name, kind)
            assert (back.field, back.x, back.y) == (twin.field, twin.x, twin.y)
            assert str(back) == str(twin) and repr(back) == repr(twin)
            assert back.sort_key() == twin.sort_key() and back in {twin}


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


# the attributes of each descriptor that are its fields, and the element
# (the generator a over F_49) whose square checks the arithmetic
DESCRIPTOR_FIELDS = {"F_7": ("p",), "F_49": ("p", "f0", "f1"), "Q": ()}
GENERATOR = {"F_7": 3, "F_49": (0, 1), "Q": Fraction(1, 2)}


@pytest.mark.parametrize("name", DESCRIPTORS)
def test_descriptors_compare_and_hash_equal(name):
    a, b = DESCRIPTORS[name](), DESCRIPTORS[name]()
    assert a is not b
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != DESCRIPTORS[next(other for other in DESCRIPTORS if other != name)]()


@pytest.mark.parametrize("name", DESCRIPTORS)
def test_descriptors_refuse_assignment(name):
    field = DESCRIPTORS[name]()
    held = {field}
    g = field(GENERATOR[name])
    before = (str(field), field.characteristic, field.order, g * g)
    for attr in DESCRIPTOR_FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(field, attr, 11)
    # names that are not fields: CPython's frozen slotted dataclasses raise TypeError
    for attr in ("characteristic", "order", "extra"):
        with pytest.raises((AttributeError, TypeError)):
            setattr(field, attr, 11)
    assert not hasattr(field, "extra")
    assert (str(field), field.characteristic, field.order, g * g) == before
    # a set built before the attempts still finds the field, and its equal
    assert field in held and DESCRIPTORS[name]() in held


@pytest.mark.parametrize("name", DESCRIPTORS)
def test_descriptors_pickle_and_deepcopy(name):
    field = DESCRIPTORS[name]()
    for back in (pickle.loads(pickle.dumps(field)), copy.deepcopy(field)):
        assert type(back) is type(field)
        assert back == field and hash(back) == hash(field)
        assert str(back) == str(field) and back.order == field.order
        g = back(GENERATOR[name])
        assert g * g == field(GENERATOR[name]) ** 2


def test_protocol_params_refuse_assignment():
    f13 = PrimeField(13)
    params = ProtocolParams(rotation_element(circle(f13, (0, 0), 1), 2, 6))
    for attr in ("base", "exponent_cap", "order", "extra"):
        with pytest.raises(AttributeError):
            setattr(params, attr, None)
    assert params.order == 12 and params.exponent_cap == 64 and not hasattr(params, "extra")
    back = pickle.loads(pickle.dumps(params))
    assert back == params and hash(back) == hash(params)
