"""Affine-plane geometry over any supported field.

Points, circles, squared distances, the isometries (translations and
rotations) that preserve them, and the rational parametrization of
circle points with its cardinality formula.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .errors import (
    DescriptorMismatch,
    InfiniteField,
    InvalidRotationParams,
    ParameterSquaresToMinusOne,
    PointNotOnCircle,
    ZeroRadius,
)
from .fields import FieldDescriptor, FieldElement, Rationals, contains_sqrt_minus_one


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


@dataclass(frozen=True)
class PlanePoint:
    """A point of the affine plane F x F."""

    x: FieldElement
    y: FieldElement

    def __post_init__(self):
        if self.x.field != self.y.field:
            raise DescriptorMismatch("point coordinates from different fields")

    @property
    def field(self) -> FieldDescriptor:
        return self.x.field

    def __add__(self, other: "PlanePoint") -> "PlanePoint":
        return PlanePoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PlanePoint") -> "PlanePoint":
        return PlanePoint(self.x - other.x, self.y - other.y)

    def sort_key(self):
        return (self.x.sort_key(), self.y.sort_key())

    def __str__(self):
        return f"({self.x},{self.y})"


def point(field: FieldDescriptor, x, y) -> PlanePoint:
    """Convenience constructor accepting raw coordinate values."""
    return PlanePoint(field(x), field(y))


@dataclass(frozen=True)
class Circle:
    """The circle of center M and radius r; r = 0 is rejected."""

    center: PlanePoint
    radius: FieldElement

    def __post_init__(self):
        if self.center.field != self.radius.field:
            raise DescriptorMismatch("circle center and radius from different fields")
        if self.radius.is_zero():
            raise ZeroRadius("circles with radius 0 are degenerate and not supported")

    @property
    def field(self) -> FieldDescriptor:
        return self.radius.field

    def contains(self, p: PlanePoint) -> bool:
        """Whether (x - m1)^2 + (y - m2)^2 = r^2, compared on raw field values."""
        field = self.field
        if p.field != field:
            raise DescriptorMismatch(f"point over {p.field} tested against a circle over {field}")
        mul, sub = field._mul, field._sub
        dx = sub(p.x.value, self.center.x.value)
        dy = sub(p.y.value, self.center.y.value)
        r = self.radius.value
        return field._add(mul(dx, dx), mul(dy, dy)) == mul(r, r)

    def require(self, p: PlanePoint) -> None:
        if not self.contains(p):
            raise PointNotOnCircle(f"{p} is not on {self}")

    def __str__(self):
        return f"C({self.center},{self.radius})_{self.field}"


def circle(field: FieldDescriptor, center, radius) -> Circle:
    """Convenience constructor accepting raw center/radius values."""
    cx, cy = center
    return Circle(point(field, cx, cy), field(radius))


def squared_distance(p: PlanePoint, q: PlanePoint) -> FieldElement:
    """The field-valued squared distance (p1-q1)^2 + (p2-q2)^2."""
    if p.field != q.field:
        raise DescriptorMismatch("points from different fields")
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


@dataclass(frozen=True)
class RotationParams:
    """Parameters (a, b) of a plane rotation; must satisfy a^2 + b^2 = 1."""

    a: FieldElement
    b: FieldElement

    def __post_init__(self):
        if self.a.field != self.b.field:
            raise DescriptorMismatch("rotation parameters from different fields")
        if self.a * self.a + self.b * self.b != self.a.field.one:
            raise InvalidRotationParams(f"a^2 + b^2 != 1 for a={self.a}, b={self.b}")


def rotate(p: PlanePoint, params: RotationParams, around: PlanePoint | None = None) -> PlanePoint:
    """Apply the rotation matrix [[a, b], [-b, a]] about `around` (default origin)."""
    a, b = params.a, params.b
    if around is not None:
        p = p - around
    q = PlanePoint(a * p.x + b * p.y, -(b * p.x) + a * p.y)
    if around is not None:
        q = q + around
    return q


def rotation_between(p: PlanePoint, q: PlanePoint, on: Circle) -> RotationParams:
    """The unique rotation about the origin carrying p to q on `on`.

    The circle must be centered at the origin (translate first
    otherwise); both points must lie on it.  Witnesses the transitive
    action of the rotation group on the circle.
    """
    field = on.field
    if on.center.x or on.center.y:
        raise ValueError("rotation_between expects a circle centered at the origin")
    on.require(p)
    on.require(q)
    rr = (on.radius * on.radius).inverse()
    a = (q.x * p.x + q.y * p.y) * rr
    b = (q.x * p.y - q.y * p.x) * rr
    return RotationParams(a, b)


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
    m1, m2, r = c.center.x, c.center.y, c.radius
    if isinstance(t, PointAtInfinityMarker):
        return PlanePoint(m1, m2 + r)
    t = field(t)
    if field.characteristic == 2:
        return PlanePoint(m1 + t, m2 + t + r)
    denom = t * t + field.one
    if denom.is_zero():
        raise ParameterSquaresToMinusOne(f"t = {t} squares to -1; no circle point")
    inv = denom.inverse()
    two = field.from_int(2)
    x = m1 + two * t * r * inv
    y = m2 + r * (t * t - field.one) * inv
    return PlanePoint(x, y)


def distance_from_parameters(c: Circle, t1, t2) -> FieldElement:
    """Squared distance between parametrized circle points, in closed form.

    Evaluates 4r^2 (t1-t2)^2 / ((t1^2+1)(t2^2+1)), with the marker point
    handled through its limit form 4r^2/(t^2+1); characteristic 2 gives 0.
    Kept separate from coordinate-level squared_distance so the two can
    cross-check each other.
    """
    field = c.field
    if field.characteristic == 2:
        return field.zero
    r2 = c.radius * c.radius
    four = field.from_int(4)
    inf1 = isinstance(t1, PointAtInfinityMarker)
    inf2 = isinstance(t2, PointAtInfinityMarker)
    if inf1 and inf2:
        return field.zero
    if inf1 or inf2:
        t = field(t2 if inf1 else t1)
        return four * r2 * (t * t + field.one).inverse()
    t1, t2 = field(t1), field(t2)
    d = t1 - t2
    denom = (t1 * t1 + field.one) * (t2 * t2 + field.one)
    return four * r2 * d * d * denom.inverse()


def enumerate_circle(c: Circle) -> list[PlanePoint]:
    """All points of a circle over a finite field, in lexicographic order.

    Produced by the parametrization; the count is checked against the
    cardinality formula before returning.
    """
    field = c.field
    if not field.is_finite():
        raise InfiniteField("use enumerate_rational_points over Q")
    pts = []
    if field.characteristic == 2:
        for t in field.elements():
            pts.append(point_from_parameter(c, t))
    else:
        minus_one = -field.one
        for t in field.elements():
            if t * t == minus_one:
                continue
            pts.append(point_from_parameter(c, t))
        pts.append(point_from_parameter(c, AT_INFINITY))
    pts.sort(key=PlanePoint.sort_key)
    expected = circle_cardinality(field)
    if len(pts) != expected or len(set(pts)) != expected:
        raise AssertionError(
            f"parametrization produced {len(pts)} points, expected {expected}"
        )
    return pts


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
