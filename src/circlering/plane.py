"""Affine-plane geometry over any supported field.

Points, circles, squared distances, translations, and the rational
parametrization of circle points with its cardinality formula.  A
circle over odd F_p is listed from the field's square-root table,
other circles by the parametrization.
Rotations are the rotation group's products (`rotation`): on
C((0,0), r) the element (x, y) multiplies a point by (x + iy)/r.

A point stores its field and one raw coordinate pair; the library
computes on that pair, and a coordinate's FieldElement is built only
when `x` or `y` is read.
"""

import dataclasses
from fractions import Fraction
from itertools import count, pairwise, starmap
from operator import lt

from .errors import (
    CircleTooLarge,
    DescriptorMismatch,
    InfiniteField,
    ParameterSquaresToMinusOne,
    PointNotOnCircle,
    ZeroRadius,
)
from .fields import (
    FieldDescriptor, FieldElement, Rationals, _brief, _prime_square_roots, contains_sqrt_minus_one,
)


class PointAtInfinityMarker:
    """Stands for the parameter of the point (m1, m2 + r)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AT_INFINITY"


AT_INFINITY = PointAtInfinityMarker()


class PlanePoint:
    """A point of the affine plane F x F: its field and one raw pair (x, y).

    PlanePoint(x, y) takes two elements of one field; the library wraps
    raw pairs it has computed with _point.  Points are immutable,
    picklable, and equal exactly when their fields and raw pairs are.
    """

    __slots__ = ("field", "_xy")

    def __new__(cls, x: FieldElement, y: FieldElement):
        if x.field is not y.field and x.field != y.field:
            raise DescriptorMismatch("point coordinates from different fields")
        return _point(x.field, (x.value, y.value))

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _point, (self.field, self._xy)

    x = property(lambda self: FieldElement(self.field, self._xy[0]))
    y = property(lambda self: FieldElement(self.field, self._xy[1]))

    def __eq__(self, other):
        if type(other) is not PlanePoint:
            return NotImplemented
        return self._xy == other._xy and self.field == other.field

    def __hash__(self):
        return hash(self._xy)  # equal points have equal pairs

    def __add__(self, other: "PlanePoint") -> "PlanePoint":
        return PlanePoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PlanePoint") -> "PlanePoint":
        return PlanePoint(self.x - other.x, self.y - other.y)

    def sort_key(self):
        return self._xy

    def _coords(self, digits=str) -> tuple:
        """The texts of x and y, with `digits` as the text of each integer."""
        fmt, (x, y) = self.field._format, self._xy
        return fmt(x, digits), fmt(y, digits)

    def _text(self, digits=str) -> str:
        return "({},{})".format(*self._coords(digits))

    def __str__(self):
        return self._text()

    def __repr__(self):
        return f"PlanePoint(x={self.x!r}, y={self.y!r})"


# the slots' own setters, which PlanePoint.__setattr__ does not guard
_new_point, _set_field, _set_xy = object.__new__, PlanePoint.field.__set__, PlanePoint._xy.__set__


def _point(field: FieldDescriptor, xy: tuple) -> PlanePoint:
    """The point of `field` with the raw coordinate pair `xy`, unchecked."""
    p = _new_point(PlanePoint)
    _set_field(p, field)
    _set_xy(p, xy)
    return p


def point(field: FieldDescriptor, x, y) -> PlanePoint:
    """Convenience constructor accepting raw coordinate values."""
    return PlanePoint(field(x), field(y))


@dataclasses.dataclass(frozen=True, slots=True)
class Circle:
    """The circle of center M and radius r; r = 0 is rejected."""

    center: PlanePoint
    radius: FieldElement
    # the raw value r^2, computed once; not compared, hashed or shown
    _r2: object = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.center.field != self.radius.field:
            raise DescriptorMismatch("circle center and radius from different fields")
        if self.radius.is_zero():
            raise ZeroRadius("circles with radius 0 are degenerate and not supported")
        object.__setattr__(self, "_r2", self.field._mul(self.radius.value, self.radius.value))

    @property
    def field(self) -> FieldDescriptor:
        return self.radius.field

    def contains(self, p: PlanePoint) -> bool:
        """Whether (x - m1)^2 + (y - m2)^2 = r^2.

        Compared on raw field values by the field's _is_at against the
        circle's r^2, over Q as one integer identity.
        """
        field = self.field
        if p.field is not field and p.field != field:
            raise DescriptorMismatch(f"point over {p.field} tested against a circle over {field}")
        return field._is_at(p._xy, self.center._xy, self._r2)

    def require(self, p: PlanePoint) -> None:
        if not self.contains(p):
            raise PointNotOnCircle(f"{_brief(p)} is not on {_brief(self)}")

    def _text(self, digits=str) -> str:
        return f"C({self.center._text(digits)},{self.radius._text(digits)})_{self.field}"

    def __str__(self):
        return self._text()


def circle(field: FieldDescriptor, center, radius) -> Circle:
    """Convenience constructor accepting raw center/radius values."""
    cx, cy = center
    return Circle(point(field, cx, cy), field(radius))


def squared_distance(p: PlanePoint, q: PlanePoint) -> FieldElement:
    """The field-valued squared distance (p1-q1)^2 + (p2-q2)^2."""
    field = p.field
    if q.field != field:
        raise DescriptorMismatch("points from different fields")
    return FieldElement(field, field._squared_distance(p._xy, q._xy))


def circle_cardinality(field: FieldDescriptor) -> int:
    """Number of points on any circle over a finite field.

    |F| in characteristic 2, |F| - 1 when -1 is a square, |F| + 1
    otherwise.
    """
    if not field.is_finite():
        raise InfiniteField("circles over Q have infinitely many points")
    if field.characteristic == 2:
        return field.order
    return field.order - 1 if contains_sqrt_minus_one(field) else field.order + 1


def _raw_parametrization(c: Circle):
    """The parametrization of `c` on raw values: t -> (x, y), or None when t^2 = -1.

    The constants of the circle are taken once; the returned function
    only adds, multiplies and inverts with the field's raw operations.
    """
    field = c.field
    add, sub, mul, inv = field._add, field._sub, field._mul, field._inv
    (m1, m2), r = c.center._xy, c.radius.value
    if field.characteristic == 2:
        return lambda t: (add(m1, t), add(add(m2, t), r))
    zero, one = field._zero, field._canon(1)
    two_r = mul(field._canon(2), r)
    m2_plus_r = add(m2, r)

    def point_of(t):
        denom = add(mul(t, t), one)
        if denom == zero:
            return None
        # r(t^2 - 1)/(t^2 + 1) = r - 2r/(t^2 + 1)
        u = mul(two_r, inv(denom))
        return add(m1, mul(u, t)), sub(m2_plus_r, u)

    return point_of


def _raw_marker(c: Circle) -> tuple:
    """The raw pair of the marker point (m1, m2 + r), the point of AT_INFINITY."""
    m1, m2 = c.center._xy
    return m1, c.field._add(m2, c.radius.value)


def point_from_parameter(c: Circle, t) -> PlanePoint:
    """The circle point named by the parameter t (or AT_INFINITY).

    For characteristic != 2 the secant through (m1, m2 - r) with slope t
    meets the circle again at

        (m1 + 2tr/(t^2+1), m2 + r(t^2-1)/(t^2+1)),

    defined whenever t^2 != -1; AT_INFINITY names the remaining point
    (m1, m2 + r).  In characteristic 2 the point is (m1 + t, m2 + t + r)
    for any t.
    """
    field = c.field
    if isinstance(t, PointAtInfinityMarker):
        return _point(field, _raw_marker(c))
    t = field(t)
    raw = _raw_parametrization(c)(t.value)
    if raw is None:
        raise ParameterSquaresToMinusOne(f"t = {t} squares to -1; no circle point")
    return _point(field, raw)


# most points enumerate_circle lists, and most parameters the finite
# perfect-distance scan of maximal walks: enumerate_circle on a circle of
# 10^6 points peaks at about 0.2 GB of RSS (CPython 3.10-3.13, 64-bit)
_ENUMERATION_CAP = 10**6


def _raw_circle_points(c: Circle) -> list[tuple]:
    """The raw coordinate pairs of every point of a finite-field circle, sorted.

    Over odd F_p, x walks the residues against the field's square-root
    table: with s the root of r^2 - (x - m1)^2, the points at x are
    (x, m2 -+ s), so the pairs come out sorted, with no inversion.
    Otherwise one pass of the parametrization (t and -t together, their
    points being mirror images) plus the marker point, then a sort.  The
    count is checked against the cardinality formula, and each pair is
    checked to exceed the one before.  Raises CircleTooLarge past
    _ENUMERATION_CAP points, before any work.
    """
    field = c.field
    if not field.is_finite():
        raise InfiniteField("use enumerate_rational_points over Q")
    expected = circle_cardinality(field)
    if expected > _ENUMERATION_CAP:
        raise CircleTooLarge(f"{expected} circle points exceed the cap {_ENUMERATION_CAP}")
    p, pts = field.characteristic, []
    if p != 2 and field.order == p:
        root, (m1, m2), r2 = _prime_square_roots(p), c.center._xy, c._r2
        for x in range(p):
            s = root[(r2 - (x - m1) ** 2) % p]
            if s > 0:
                y0, y1 = (m2 - s) % p, (m2 + s) % p
                pts += ((x, y0), (x, y1)) if y0 < y1 else ((x, y1), (x, y0))
            elif s == 0:
                pts.append((x, m2))
    else:
        point_of = _raw_parametrization(c)
        neg, sub = field._neg, field._sub
        m1 = c.center._xy[0]
        two_m1 = field._add(m1, m1)
        for t in field._raw_elements():
            minus_t = neg(t)
            if minus_t < t:
                continue  # added with the point of minus_t
            xy = point_of(t)
            if xy is None:
                continue
            pts.append(xy)
            if minus_t != t:
                # the point of -t is the mirror image of the point of t in the line x = m1
                pts.append((sub(two_m1, xy[0]), xy[1]))
        if p != 2:
            pts.append(_raw_marker(c))
        # finite fields sort elements by their raw values (PlanePoint.sort_key)
        pts.sort()
    if len(pts) != expected or not all(starmap(lt, pairwise(pts))):
        raise AssertionError(
            f"enumeration produced {len(pts)} points, not {expected} distinct ones in order"
        )
    return pts


def enumerate_circle(c: Circle) -> list[PlanePoint]:
    """All points of a circle over a finite field, in lexicographic order.

    Computed on raw values (over odd F_p from the field's square-root
    table, elsewhere by the parametrization), counted against the
    cardinality formula, checked to be distinct and in order, and
    wrapped as PlanePoints once.  Circles of more than 10^6 points raise
    CircleTooLarge before any point is computed.
    """
    field = c.field
    return [_point(field, xy) for xy in _raw_circle_points(c)]


def _positive_rationals():
    # Calkin-Wilf sequence: every positive rational exactly once
    q = Fraction(1)
    while True:
        yield q
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)


def enumerate_rational_points(c: Circle):
    """Lazy stream of distinct points on a circle over Q.

    Walks the family t_n = (n - 1/n)/2 for n = 1, 2, 3, ...; every t_n
    satisfies t_n^2 + 1 = ((n + 1/n)/2)^2, a rational square, so the
    streamed points all lie in one rationality class.
    """
    if not isinstance(c.field, Rationals):
        raise DescriptorMismatch("enumerate_rational_points needs a circle over Q")
    return (point_from_parameter(c, Fraction(n * n - 1, 2 * n)) for n in count(1))
