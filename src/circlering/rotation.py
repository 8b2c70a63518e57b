"""The rotation group on a circle centered at the origin.

Points of C((0,0), r) form an abelian group under

    (a1, a2) * (b1, b2) = ((a1 b1 - a2 b2)/r, (a1 b2 + a2 b1)/r)

with identity (r, 0) and inverse (a1, -a2): the product of the norm-1
elements (a1 + i a2)/r of F[i].  This module implements the product,
powers, square roots (one formula in every odd characteristic, which
over prime fields is the perfect-distance criterion), element orders,
and the cyclic/acyclic classification of rational points via Gaussian
integers.  No answer scans the circle.

Products, powers, orders and searches run on the circle's torus, one
representative per field kind, chosen once per circle:

* -1 = s^2 (F_p with p = 1 mod 4, every F_{p^2} of odd p): u = (x + s y)/r
  is a group isomorphism onto F^x, so a product is one product of F and
  a power one power of F (the builtin pow over F_p).
* -1 not a square (F_p with p = 3 mod 4, and Q): w = (r + x) - i y up to
  a scalar of F has (x + i y)/r = conj(w)/w (Hilbert 90), so a product
  is the Gaussian product of integer pairs, reduced mod p over F_p and
  never reduced over Q; (-r, 0) maps to i.
* characteristic 2: x + y = r on the circle and the product adds the y
  coordinates, so the group is (F, +) through y.

Each map is a bijection onto its torus with an exact inverse in the
field's own arithmetic (the classes below give both), so every result
equals the defining product's.  Intermediate values are not checked;
only the result is mapped back and wrapped by `RotationElement`, which
checks once that the point lies on the circle.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CircleMismatch,
    FactorBoundExceeded,
    NotCoprime,
    ResultTooLarge,
    WrongFieldKind,
)
from .fields import (
    _TRIAL_BOUND,
    _brief,
    _power,
    _trial_division,
    contains_sqrt_minus_one,
    is_prime,
)
from .plane import (
    Circle,
    PlanePoint,
    _point,
    circle_cardinality,
    point,
    squared_distance,
)


@dataclass(frozen=True, slots=True)
class RotationElement:
    """A point on an origin-centered circle, viewed as a group element."""

    circle: Circle
    point: PlanePoint

    def __post_init__(self):
        zero = self.circle.field._zero
        if self.circle.center._xy != (zero, zero):
            raise ValueError("rotation group lives on circles centered at the origin")
        self.circle.require(self.point)

    @property
    def field(self):
        return self.circle.field

    def _on_torus(self):
        """The circle's torus (see _torus) and this element's value on it."""
        t = _torus(self.field, self.circle.radius.value)
        return t, t.to_torus(self.point._xy)

    def __mul__(self, other):
        return rot_mul(self, other)

    def __pow__(self, n):
        return rot_pow(self, n)

    def inverse(self) -> "RotationElement":
        x, y = self.point._xy
        return RotationElement(self.circle, _point(self.field, (x, self.field._neg(y))))

    def is_identity(self) -> bool:
        return self.point._xy == (self.circle.radius.value, self.field._zero)

    def __str__(self):
        return str(self.point)

    def __repr__(self):
        return f"RotationElement({self.point} on {self.circle})"


def rotation_element(circle: Circle, x, y) -> RotationElement:
    """Convenience constructor from raw coordinates."""
    return RotationElement(circle, point(circle.field, x, y))


def identity_element(circle: Circle) -> RotationElement:
    return RotationElement(circle, PlanePoint(circle.radius, circle.field.zero))


# Largest estimated bit size of a power over Q.  A power's coordinates have
# about n log2 N(w) bits (see _RationalTorus); near 2^18 bits the CLI
# computes, checks and prints one in 0.5-0.6 s, start-up included
# (`rot pow --field Q --radius 1 --point 3/5,4/5 --exp 87000`, CPython 3.11.7,
# x86-64 Linux)
_Q_POWER_BITS_CAP = 2**18


class _SplitTorus:
    """-1 = s^2 in F: u = (x + s y)/r is an isomorphism onto F^x.

    u (x - s y)/r = (x^2 + y^2)/r^2 = 1, so u is never 0; the rotation
    product is the product of F and a power is the field's power.  The
    way back is x = r(u + 1/u)/2, y = r(u - 1/u)/(2s).
    """

    def __init__(self, field, r):
        mul, inv = field._mul, field._inv
        self.one = field._canon(1)
        self.mul, self.pow = mul, field._pow
        self._field = field
        s = field._sqrt(field._neg(self.one))
        self._s, self._r_inv = s, inv(r)
        self._half_r = mul(r, inv(field._canon(2)))
        self._half_r_over_s = mul(self._half_r, inv(s))

    def to_torus(self, xy: tuple):
        f = self._field
        return f._mul(f._add(xy[0], f._mul(self._s, xy[1])), self._r_inv)

    def from_torus(self, u) -> tuple:
        f = self._field
        u_inv = f._inv(u)
        return f._mul(self._half_r, f._add(u, u_inv)), f._mul(self._half_r_over_s, f._sub(u, u_inv))

    @staticmethod
    def same(u, v) -> bool:
        return u == v


class _GaussianTorus:
    """-1 not a square in F_p: w = (r + x) - i y in F_p[i], up to a scalar of F_p.

    (x + i y)/r = conj(w)/w (Hilbert 90), so the rotation product is the
    Gaussian product of integer pairs (a, b) = a + i b, reduced mod p;
    (-r, 0), where r + x and y vanish, maps to i.  Pairs are compared
    projectively.  The way back is x = r(a^2 - b^2)/(a^2 + b^2),
    y = -2abr/(a^2 + b^2); a^2 + b^2 != 0 because -1 is not a square.
    """

    one = (1, 0)

    def __init__(self, field, r):
        self._p = p = field.p
        self._r = r

        def mul(s: tuple, t: tuple) -> tuple:
            (a, b), (c, d) = s, t
            return (a * c - b * d) % p, (a * d + b * c) % p

        self.mul = mul

    def pow(self, w: tuple, n: int) -> tuple:
        return _power(self.mul, self.one, w, n)

    def same(self, s: tuple, t: tuple) -> bool:
        return (s[0] * t[1] - s[1] * t[0]) % self._p == 0

    def to_torus(self, xy: tuple) -> tuple:
        p = self._p
        a = (self._r + xy[0]) % p
        return (a, -xy[1] % p) if a else (0, 1)

    def from_torus(self, w: tuple) -> tuple:
        p, (a, b) = self._p, w
        r_over_norm = self._r * pow(a * a + b * b, -1, p)
        return (a * a - b * b) * r_over_norm % p, -2 * a * b * r_over_norm % p


class _RationalTorus:
    """Over Q: the pair w scaled to coprime integers and never reduced.

    The Gaussian product runs on plain integers, so no Fraction is built
    inside a loop; each coordinate of the way back is one Fraction.  A
    power's coordinates have about n log2(a^2 + b^2) bits, where a pair
    with a and b both odd first sheds its factor 1 - i, of norm 2; the
    estimate is checked against _Q_POWER_BITS_CAP before computing.
    """

    one = (1, 0)

    def __init__(self, field, r):
        self._r = r

        def mul(s: tuple, t: tuple) -> tuple:
            (a, b), (c, d) = s, t
            return a * c - b * d, a * d + b * c

        self.mul = mul

    def pow(self, w: tuple, n: int) -> tuple:
        a, b = w
        front = self.one
        if a & b & 1:
            # w = (1 - i) w' and (1 - i)^2 = -2i, so up to the scalar 2^(n//2)
            # w^n = (-i)^(n//2) (1 - i)^(n%2) w'^n, and w'^n stays coprime
            front = ((1, 0), (0, -1), (-1, 0), (0, 1))[n // 2 % 4]
            if n & 1:
                front = self.mul(front, (1, -1))
            w = (a - b) // 2, (a + b) // 2
        norm = w[0] * w[0] + w[1] * w[1]
        if norm == 1:
            n %= 4  # a unit, of order 1, 2 or 4
        if n * norm.bit_length() > _Q_POWER_BITS_CAP:
            raise ResultTooLarge(
                f"a {n}-th power over Q would have about {n * norm.bit_length()} bits, "
                f"above the cap of {_Q_POWER_BITS_CAP}"
            )
        return self.mul(front, _power(self.mul, self.one, w, n))

    def same(self, s: tuple, t: tuple) -> bool:
        return s[0] * t[1] == s[1] * t[0]

    def to_torus(self, xy: tuple) -> tuple:
        # (r + x, -y) times the common denominator rd xd yd
        (x, y), r = xy, self._r
        a = (r.numerator * x.denominator + x.numerator * r.denominator) * y.denominator
        if not a:
            return 0, 1
        b = -y.numerator * r.denominator * x.denominator
        g = math.gcd(a, b)
        return a // g, b // g

    def from_torus(self, w: tuple) -> tuple:
        (a, b), r = w, self._r
        den = r.denominator * (a * a + b * b)
        return Fraction(r.numerator * (a * a - b * b), den), Fraction(-2 * a * b * r.numerator, den)


class _AdditiveTorus:
    """Characteristic 2: x + y = r on the circle, and the product's y is y_a + y_b.

    So the group is (F, +) through y, and a^n is a for odd n and the
    identity (r, 0) for even n.
    """

    def __init__(self, field, r):
        self.one = field._zero
        self.mul = field._add
        self._field, self._r = field, r

    def pow(self, y, n: int):
        return y if n & 1 else self.one

    @staticmethod
    def same(y, z) -> bool:
        return y == z

    @staticmethod
    def to_torus(xy: tuple):
        return xy[1]

    def from_torus(self, y) -> tuple:
        return self._field._add(self._r, y), y


@functools.lru_cache(maxsize=64)
def _torus(field, r):
    """The rotation group of C((0,0), r) over `field` as a torus, built once per circle.

    `r` is the radius as a raw value.  Every product, power and
    comparison of the module runs on torus values: to_torus maps a raw
    point there, mul/pow/same work there, and from_torus maps back to a
    raw point.
    """
    if field.characteristic == 2:
        return _AdditiveTorus(field, r)
    if not field.is_finite():
        return _RationalTorus(field, r)
    if contains_sqrt_minus_one(field):
        return _SplitTorus(field, r)
    return _GaussianTorus(field, r)


def rot_mul(a: RotationElement, b: RotationElement) -> RotationElement:
    """The rotation product of two elements of the same circle group."""
    if a.circle != b.circle:
        raise CircleMismatch(f"elements of {_brief(a.circle)} and {_brief(b.circle)}")
    t, u = a._on_torus()
    return RotationElement(a.circle, _point(a.field, t.from_torus(t.mul(u, b._on_torus()[1]))))


def rot_pow(a: RotationElement, n: int) -> RotationElement:
    """n-th power, taken on the circle's torus; a^0 is the identity (r, 0).

    Only the result is wrapped, and so checked, as a RotationElement.
    Over Q, ResultTooLarge is raised before computing when the power's
    coordinates would have more than about 2^18 bits.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    t, u = a._on_torus()
    return RotationElement(a.circle, _point(a.field, t.from_torus(t.pow(u, n))))


def induced_squared_distance(a: RotationElement):
    """Squared distance from the element to the identity (r, 0)."""
    return squared_distance(a.point, PlanePoint(a.circle.radius, a.field.zero))


def rot_sqrt(a: RotationElement) -> RotationElement | None:
    """A square root of `a` in the rotation group, or None.

    For a = (a1, a2) other than the identity, b^2 = a forces
    b2^2 = r(r - a1)/2, and conversely, when r(r - a1)/2 = beta^2 in F,
    b = (r a2/(2 beta), beta) is a root, because a2^2 = (r - a1)(r + a1).
    So a has a root exactly when r(r - a1)/2, a quarter of the induced
    squared distance 2r(r - a1), is a square in F; the root returned
    takes beta as the field's canonical square root (the other root is
    -b).  Over F_p with p > 5 and over Q that square test is the paper's
    criterion: the induced distance is perfect.  The identity returns
    itself.  In characteristic 2 the group is (F, +), where only the
    identity is a square.
    """
    if a.is_identity():
        return a  # roots are (r, 0) and (-r, 0); return the identity
    field = a.field
    if field.characteristic == 2:
        return None
    mul, inv, r = field._mul, field._inv, a.circle.radius.value
    a1, a2 = a.point._xy
    half_r = mul(r, inv(field._canon(2)))
    beta2 = mul(half_r, field._sub(r, a1))
    if not field._is_square(beta2):
        return None
    beta = field._sqrt(beta2)
    b = (mul(mul(half_r, a2), inv(beta)), beta)
    t, target = a._on_torus()
    root = t.to_torus(b)
    if not t.same(t.mul(root, root), target):
        raise AssertionError(f"square-root construction failed for {a}")
    return RotationElement(a.circle, _point(field, b))


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division up to _TRIAL_BOUND.

    A cofactor left over must be prime; FactorBoundExceeded otherwise.
    """
    exponents, cofactor = _trial_division(n)
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
    trial division up to 10^6 with at most one prime left over, and
    WrongFieldKind over Q, whose group is infinite.
    """
    if not a.field.is_finite():
        raise WrongFieldKind(
            "element orders are computed over finite fields; over Q only the four axis points "
            "(r,0), (-r,0), (0,r), (0,-r) have finite order (1, 2, 4, 4), "
            "and every other element has infinite order"
        )
    t, x = a._on_torus()
    order = group_order(a.circle)
    for p in _factorize(order):
        while order % p == 0 and t.same(t.pow(x, order // p), t.one):
            order //= p
    return order


def gaussian_norm_square_check(x: int, y: int) -> bool:
    """Whether the Gaussian norm x^2 + y^2 is a perfect square > 1.

    Requires gcd(x, y) = 1; coprime pairs passing this check have
    (x + iy)^n never a natural number, which is what drives the
    acyclicity of rational rotation elements.
    """
    if math.gcd(x, y) != 1:
        raise NotCoprime(f"gcd({_brief(x)}, {_brief(y)}) != 1")
    n = x * x + y * y
    return n > 1 and math.isqrt(n) ** 2 == n


def _coprime_integer_form(a: RotationElement) -> tuple[int, int]:
    """Clear denominators of a rational point to a coprime integer pair."""
    x, y = a.point._xy
    k = math.lcm(x.denominator, y.denominator)
    ix, iy = x.numerator * (k // x.denominator), y.numerator * (k // y.denominator)
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
    x, y = a.point._xy
    if y == 0:
        return CyclicityReport(a, "cyclic", order=1 if x == a.circle.radius.value else 2)
    if x == 0:
        return CyclicityReport(a, "cyclic", order=4)
    ix, iy = _coprime_integer_form(a)
    if not gaussian_norm_square_check(ix, iy):
        raise AssertionError(f"norm of coprime form {(ix, iy)} is not a square > 1")
    return CyclicityReport(a, "acyclic")
