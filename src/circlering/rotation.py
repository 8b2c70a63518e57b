"""The rotation group on a circle centered at the origin.

Points of C((0,0), r) form an abelian group under

    (a1, a2) * (b1, b2) = ((a1 b1 - a2 b2)/r, (a1 b2 + a2 b1)/r)

with identity (r, 0) and inverse (a1, -a2): the product of the norm-1
elements (a1 + i a2)/r of F[i].  This module implements the product,
powers (square-and-multiply over the product of raw coordinate pairs),
square roots (tied to perfect distances over prime fields), element
orders, and the cyclic/acyclic classification of rational points via
Gaussian integers.

Products, powers and searches work on raw coordinate pairs (the
fields' own values, no FieldElement objects), so no intermediate
product is checked.  Every element the module returns is built by
`RotationElement`, which checks once, when the result is wrapped, that
the point lies on the circle.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CircleMismatch, FactorBoundExceeded, NotCoprime, WrongFieldKind
from .fields import (
    _TRIAL_BOUND,
    PrimeField,
    Rationals,
    _power,
    _trial_division,
    is_prime,
)
from .maximal import is_perfect_distance
from .plane import (
    Circle,
    PlanePoint,
    _point,
    _raw,
    _raw_circle_points,
    circle_cardinality,
    squared_distance,
)


class RotationElement:
    """A point on an origin-centered circle, viewed as a group element."""

    __slots__ = ("circle", "point")

    def __init__(self, circle: Circle, point: PlanePoint):
        zero = circle.field._zero
        if _raw(circle.center) != (zero, zero):
            raise ValueError("rotation group lives on circles centered at the origin")
        circle.require(point)
        object.__setattr__(self, "circle", circle)
        object.__setattr__(self, "point", point)

    def __setattr__(self, name, value):
        raise AttributeError("RotationElement is immutable")

    @property
    def field(self):
        return self.circle.field

    def __mul__(self, other):
        return rot_mul(self, other)

    def __pow__(self, n):
        return rot_pow(self, n)

    def inverse(self) -> "RotationElement":
        return RotationElement(self.circle, PlanePoint(self.point.x, -self.point.y))

    def is_identity(self) -> bool:
        return self.point.x == self.circle.radius and self.point.y.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, RotationElement)
            and self.circle == other.circle
            and self.point == other.point
        )

    def __hash__(self):
        return hash((self.circle, self.point))

    def __str__(self):
        return str(self.point)

    def __repr__(self):
        return f"RotationElement({self.point} on {self.circle})"


def rotation_element(circle: Circle, x, y) -> RotationElement:
    """Convenience constructor from raw coordinates."""
    field = circle.field
    return RotationElement(circle, PlanePoint(field(x), field(y)))


def identity_element(circle: Circle) -> RotationElement:
    return RotationElement(circle, PlanePoint(circle.radius, circle.field.zero))


def _raw_identity(circle: Circle) -> tuple:
    return circle.radius.value, circle.field._zero


def _raw_product(circle: Circle):
    """The rotation product of `circle` as a function of two raw coordinate pairs.

    r^-1 is computed here, once; the returned function only multiplies
    and adds with the field's raw operations and checks nothing.
    """
    field = circle.field
    mul, add, sub = field._mul, field._add, field._sub
    r_inv = field._inv(circle.radius.value)

    def product(a: tuple, b: tuple) -> tuple:
        (a1, a2), (b1, b2) = a, b
        return (
            mul(sub(mul(a1, b1), mul(a2, b2)), r_inv),
            mul(add(mul(a1, b2), mul(a2, b1)), r_inv),
        )

    return product


def _element(circle: Circle, raw: tuple) -> RotationElement:
    """Wrap a raw coordinate pair; RotationElement checks it is on the circle."""
    return RotationElement(circle, _point(circle.field, raw))


def rot_mul(a: RotationElement, b: RotationElement) -> RotationElement:
    """The rotation product of two elements of the same circle group."""
    if a.circle != b.circle:
        raise CircleMismatch(f"elements of {a.circle} and {b.circle}")
    return _element(a.circle, _raw_product(a.circle)(_raw(a.point), _raw(b.point)))


def rot_pow(a: RotationElement, n: int) -> RotationElement:
    """n-th power by square-and-multiply on raw pairs; a^0 is the identity (r, 0).

    Only the result is wrapped, and so checked, as a RotationElement.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    c = a.circle
    return _element(c, _power(_raw_product(c), _raw_identity(c), _raw(a.point), n))


def induced_squared_distance(a: RotationElement):
    """Squared distance from the element to the identity (r, 0)."""
    return squared_distance(a.point, PlanePoint(a.circle.radius, a.field.zero))


def _exhaustive_sqrt(a: RotationElement):
    product = _raw_product(a.circle)
    target = _raw(a.point)
    roots = [b for b in _raw_circle_points(a.circle) if product(b, b) == target]
    # the least root in PlanePoint.sort_key order, which is raw order
    return _element(a.circle, roots[0]) if roots else None


def rot_sqrt(a: RotationElement, unchecked: bool = False) -> RotationElement | None:
    """A square root of `a` in the rotation group, or None.

    Over a prime field of characteristic not in {2, 3, 5} (and over Q) a
    root exists exactly when the induced squared distance is perfect;
    it is then b2 = sqrt((2r^2 - 2 a1 r)/4), b1 = r a2 / (2 b2), with b2
    the canonical field root so the output is deterministic (the other
    root is the mirror (-b1, -b2)).  The identity, whose induced
    distance 0 is not perfect, is special-cased to return itself.

    For the excluded small fields and for quadratic extensions the
    equivalence is not claimed; pass unchecked=True to get a plain
    exhaustive search there instead of WrongFieldKind.
    """
    field = a.field
    supported = isinstance(field, (PrimeField, Rationals)) and field.characteristic not in (2, 3, 5)
    if not supported:
        if not unchecked:
            raise WrongFieldKind(
                "square-root criterion holds for prime fields of characteristic not in {2,3,5}; "
                "pass unchecked=True for an exhaustive search"
            )
        if not field.is_finite():
            raise WrongFieldKind("cannot search an infinite group exhaustively")
        return _exhaustive_sqrt(a)
    if a.is_identity():
        return a  # roots are (r, 0) and (-r, 0); return the identity
    r = a.circle.radius
    induced = induced_squared_distance(a)
    if not is_perfect_distance(a.circle, induced):
        return None
    four = field.from_int(4)
    b2 = (induced / four).sqrt()
    b1 = r * a.point.y / (field.from_int(2) * b2)
    b = RotationElement(a.circle, PlanePoint(b1, b2))
    root = _raw(b.point)
    if _raw_product(a.circle)(root, root) != _raw(a.point):
        raise AssertionError(f"square-root construction failed for {a}")
    return b


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division up to _TRIAL_BOUND.

    A cofactor left over must be prime; FactorBoundExceeded otherwise.
    """
    exponents, cofactor = _trial_division(n, _TRIAL_BOUND)
    if cofactor > 1:
        if not is_prime(cofactor):
            raise FactorBoundExceeded(
                f"{n} leaves the composite cofactor {cofactor} after trial division to {_TRIAL_BOUND}"
            )
        exponents[cofactor] = 1
    return exponents


def group_order(circle: Circle) -> int:
    """Order of the rotation group = number of circle points (finite fields)."""
    return circle_cardinality(circle.field)


def element_order(a: RotationElement) -> int:
    """Multiplicative order of an element of a finite rotation group.

    Raises FactorBoundExceeded when the group order does not factor by
    trial division up to 10^6 with at most one prime left over.
    """
    if not a.field.is_finite():
        raise WrongFieldKind("element orders over Q come from classify_cyclicity")
    c = a.circle
    product, one, x = _raw_product(c), _raw_identity(c), _raw(a.point)
    order = group_order(c)
    for p in _factorize(order):
        while order % p == 0 and _power(product, one, x, order // p) == one:
            order //= p
    return order


def gaussian_norm_square_check(x: int, y: int) -> bool:
    """Whether the Gaussian norm x^2 + y^2 is a perfect square > 1.

    Requires gcd(x, y) = 1; coprime pairs passing this check have
    (x + iy)^n never a natural number, which is what drives the
    acyclicity of rational rotation elements.
    """
    if math.gcd(x, y) != 1:
        raise NotCoprime(f"gcd({x}, {y}) != 1")
    n = x * x + y * y
    return n > 1 and math.isqrt(n) ** 2 == n


def _coprime_integer_form(a: RotationElement) -> tuple[int, int]:
    """Clear denominators of a rational point to a coprime integer pair."""
    x, y = Fraction(a.point.x.value), Fraction(a.point.y.value)
    k1 = math.gcd(abs(x.numerator), abs(y.numerator))
    k2 = math.lcm(x.denominator, y.denominator)
    ix = (x.numerator // k1) * (k2 // x.denominator)
    iy = (y.numerator // k1) * (k2 // y.denominator)
    g = math.gcd(ix, iy)
    return ix // g, iy // g


@dataclass(frozen=True)
class CyclicityReport:
    """Verdict on the subgroup generated by one element."""

    element: RotationElement
    verdict: str  # "cyclic" or "acyclic"
    order: int | None = None


def classify_cyclicity(a: RotationElement) -> CyclicityReport:
    """Decide whether `a` generates a finite or infinite subgroup.

    Finite fields: the exact order is computed, verdict Cyclic(order).
    Over Q the four axis points (r,0), (-r,0), (0,+-r) are cyclic with
    orders 1, 2, 4, 4; every other point is acyclic because its coprime
    integer form has a square Gaussian norm > 1, which is checked.
    """
    if a.field.is_finite():
        return CyclicityReport(a, "cyclic", order=element_order(a))
    r = a.circle.radius
    x, y = a.point.x, a.point.y
    if y.is_zero():
        return CyclicityReport(a, "cyclic", order=1 if x == r else 2)
    if x.is_zero():
        return CyclicityReport(a, "cyclic", order=4)
    ix, iy = _coprime_integer_form(a)
    if not gaussian_norm_square_check(ix, iy):
        raise AssertionError(f"norm of coprime form {(ix, iy)} is not a square > 1")
    return CyclicityReport(a, "acyclic")
