from array import array
from fractions import Fraction
from itertools import islice

import pytest

from circlering.errors import (
    DescriptorMismatch,
    InfiniteField,
    NotCoprime,
    NotPerfect,
    ParameterSquaresToMinusOne,
    PointNotOnCircle,
    ZeroRadius,
)
from circlering import plane
from circlering.fields import (
    FieldDescriptor,
    PrimeField,
    QuadraticExtension,
    Rationals,
    _prime_square_roots,
    primes_up_to,
)
from circlering.plane import (
    AT_INFINITY,
    Circle,
    PlanePoint,
    _raw_circle_points,
    circle,
    circle_cardinality,
    enumerate_circle,
    enumerate_rational_points,
    point,
    point_from_parameter,
    squared_distance,
)
from circlering.maximal import is_rational_distance, partition_prime_field_circle, points_at_distance
from circlering.rotation import RotationElement, gaussian_norm_square_check, rot_mul, rotation_element

from oracles import (
    all_distances_vanish,
    brute_circle_field,
    brute_circle_prime,
    distance_from_parameters,
    fraction_is_square,
    has_vanishing_distance_pair,
)

F5 = PrimeField(5)
F7 = PrimeField(7)
F13 = PrimeField(13)
Q = Rationals()


def test_circle_rejects_zero_radius():
    with pytest.raises(ZeroRadius):
        circle(F7, (0, 0), 0)


def test_messages_show_huge_values_by_size():
    # the text of 10^5000 + 1 has more than CPython's 4300-digit limit, so
    # putting it in a message would raise ValueError in place of the error
    c = circle(Q, (0, 0), 1)
    off = point(Q, 10**5000 + 1, 0)
    on = point(Q, 1, 0)
    huge_radius = circle(Q, (0, 0), Fraction(1, 3**9000))
    cases = [
        (PointNotOnCircle, lambda: c.require(off)),
        (PointNotOnCircle, lambda: RotationElement(c, off)),
        (PointNotOnCircle, lambda: RotationElement(huge_radius, on)),
        (PointNotOnCircle, lambda: is_rational_distance(c, on, off)),
        (NotPerfect, lambda: points_at_distance(c, on, 10**5000)),
        (NotCoprime, lambda: gaussian_norm_square_check(2 * 10**5000, 4)),
    ]
    for error, call in cases:
        with pytest.raises(error) as info:
            call()
        text = str(info.value)
        assert len(text) < 200 and "-bit integer>" in text, text
    # values of up to 256 bits are written out
    with pytest.raises(PointNotOnCircle, match=r"\(5,0\) is not on C\(\(0,0\),1\)_Q"):
        c.require(point(Q, 5, 0))


def test_membership_compares_fields_by_value():
    # the identity test is a shortcut only: an equal field built apart is the same field
    c = circle(PrimeField(7), (0, 0), 1)
    twin = PrimeField(7)
    assert twin is not c.field
    assert c.contains(point(twin, 0, 1))
    assert not c.contains(point(twin, 1, 1))
    c.require(point(twin, 2, 2))
    with pytest.raises(DescriptorMismatch):
        c.contains(point(PrimeField(11), 0, 1))


def test_squared_distance_golden():
    assert squared_distance(point(F5, 1, 2), point(F5, 2, 4)) == F5(0)
    # (8/5,6/5) sits at 8/5 from (2,0) and at 16/5 from (0,2); the two
    # are easy to mix up, and neither is a square:
    p = point(Q, Fraction(8, 5), Fraction(6, 5))
    assert squared_distance(p, point(Q, 2, 0)) == Q(Fraction(8, 5))
    assert squared_distance(p, point(Q, 0, 2)) == Q(Fraction(16, 5))
    assert not squared_distance(p, point(Q, 2, 0)).is_square()
    assert not Q(Fraction(16, 5)).is_square()
    assert squared_distance(point(F7, 0, 1), point(F7, 0, 6)) == F7(4)


def test_q_integer_checks_match_fraction_arithmetic(rng):
    # Circle.contains and is_rational_distance over Q compute on integers
    # (Rationals overrides _is_at and _rational); the plain Fraction formulas
    # and the generic bodies of FieldDescriptor decide.  Circles are
    # off-centre with zero, negative and fractional values, points on them
    # come from parameters, and points off them are moved by 1/den in one
    # coordinate
    def frac(num=30, den=12):
        return Fraction(rng.randint(-num, num), rng.randint(1, den))

    def fraction_distance(a, b):
        return (a.x.value - b.x.value) ** 2 + (a.y.value - b.y.value) ** 2

    # r = 5/6 through (1/2, 2/3): the coordinates' denominators differ
    c = circle(Q, (0, 0), Fraction(5, 6))
    assert c.contains(point(Q, Fraction(1, 2), Fraction(2, 3)))
    assert not c.contains(point(Q, Fraction(1, 2), Fraction(1, 3)))
    outcomes = set()
    for k in range(40):
        center = (0, 0) if k < 4 else (frac(), frac())
        c = circle(Q, center, frac() or Fraction(1, 7))
        r2 = c.radius.value ** 2
        assert c._r2 == (c.radius * c.radius).value
        twin = circle(Q, center, c.radius.value)
        assert twin == c and hash(twin) == hash(c)
        # parameters of the family (n - 1/n)/2 give points at rational distances
        ts = [Fraction(n * n - 1, 2 * n) for n in rng.sample(range(1, 9), 2)]
        on = [point_from_parameter(c, t) for t in ts + [frac(9, 9) for _ in range(3)]]
        for p in on:
            x, y = p.x.value, p.y.value
            step = Fraction(1, rng.choice((x.denominator, y.denominator, rng.randint(1, 50))))
            moved = point(Q, x + step, y) if rng.random() < 0.5 else point(Q, x, y - step)
            for q in (p, moved):
                assert c.contains(q) == (fraction_distance(q, c.center) == r2)
                assert c.contains(q) == FieldDescriptor._is_at(Q, q._xy, c.center._xy, c._r2)
                outcomes.add(c.contains(q))
        for i, a in enumerate(on):
            for b in on[i:]:
                rational = is_rational_distance(c, a, b)
                assert rational == fraction_is_square(fraction_distance(a, b))
                assert rational == FieldDescriptor._rational(Q, a._xy, b._xy)
                outcomes.add(rational)
        for _ in range(4):
            a, b = point(Q, frac(), frac()), point(Q, frac(), frac())
            d = fraction_distance(a, b)
            n, den = Q._q_squared_distance(a._xy, b._xy)
            assert Fraction(n, den * den) == d
            assert Q._rational(a._xy, b._xy) == FieldDescriptor._rational(Q, a._xy, b._xy)
            for v in (d, d + Fraction(1, rng.randint(1, 9))):
                assert Q._is_at(a._xy, b._xy, v) == FieldDescriptor._is_at(Q, a._xy, b._xy, v)
                outcomes.add(Q._is_at(a._xy, b._xy, v))
    assert outcomes == {True, False}
    # the finite fields keep the generic _is_at
    for field in (F13, QuadraticExtension(7, (1, 0))):
        elements = list(field._raw_elements())
        for _ in range(50):
            a, b = (rng.choice(elements), rng.choice(elements)), (rng.choice(elements), rng.choice(elements))
            d = field._squared_distance(a, b)
            for v in (d, rng.choice(elements)):
                assert field._is_at(a, b, v) == (d == v)


def test_translate_and_rotate_golden():
    # a rotation is a product in the rotation group: (0,1) is the quarter
    # turn of C((0,0),1), carrying (0,6) to (1,0)
    c7 = circle(F7, (0, 0), 1)
    assert rot_mul(rotation_element(c7, 0, 1), rotation_element(c7, 0, 6)).point == point(F7, 1, 0)
    p = point(F7, 3, 5)
    assert p + point(F7, 1, 1) == point(F7, 4, 6)


def test_isometries_preserve_distance(rng):
    c = circle(F13, (0, 0), 1)
    pts = enumerate_circle(c)
    for _ in range(200):
        p = point(F13, rng.randrange(13), rng.randrange(13))
        q = point(F13, rng.randrange(13), rng.randrange(13))
        shift = point(F13, rng.randrange(13), rng.randrange(13))
        assert squared_distance(p + shift, q + shift) == squared_distance(p, q)
    # multiplying by any element g is a rotation of the circle
    for g in pts:
        g = RotationElement(c, g)
        for p in pts:
            for q in pts:
                gp = rot_mul(g, RotationElement(c, p)).point
                gq = rot_mul(g, RotationElement(c, q)).point
                assert squared_distance(gp, gq) == squared_distance(p, q)


def test_rotation_between_golden_and_exhaustive():
    # the element carrying p to q is q * p^-1
    for c in (circle(F7, (0, 0), 1), circle(F13, (0, 0), 1)):
        pts = [RotationElement(c, p) for p in enumerate_circle(c)]
        for p in pts:
            for q in pts:
                assert rot_mul(p, rot_mul(q, p.inverse())) == q
    with pytest.raises(PointNotOnCircle):
        rotation_element(circle(F7, (0, 0), 1), 1, 1)


def test_point_from_parameter():
    c = circle(F7, (3, 4), 2)
    assert point_from_parameter(c, AT_INFINITY) == point(F7, 3, 6)
    cq = circle(Q, (0, 0), 1)
    assert point_from_parameter(cq, 1) == point(Q, 1, 0)
    c7 = circle(F7, (0, 0), 1)
    assert point_from_parameter(c7, 2) == point(F7, 5, 2)
    with pytest.raises(ParameterSquaresToMinusOne):
        point_from_parameter(circle(F13, (0, 0), 1), 5)  # 5^2 = -1 mod 13
    # characteristic 2: (m1 + t, m2 + t + r), total in t
    c2 = circle(PrimeField(2), (0, 0), 1)
    assert point_from_parameter(c2, 1) == point(PrimeField(2), 1, 0)


def test_enumerate_circle_golden_lists():
    got = [(p.x.value, p.y.value) for p in enumerate_circle(circle(F7, (0, 0), 1))]
    assert got == [(0, 1), (0, 6), (1, 0), (2, 2), (2, 5), (5, 2), (5, 5), (6, 0)]

    pts13 = {(p.x.value, p.y.value) for p in enumerate_circle(circle(F13, (7, 11), 6))}
    assert pts13 == {
        (7, 5), (0, 11), (4, 12), (8, 8), (6, 1), (10, 10),
        (4, 10), (8, 1), (6, 8), (10, 12), (1, 11), (7, 4),
    }

    # (4,1) sometimes shows up in listings of this circle but fails the
    # circle equation (16 + 1 = 2 mod 5); the brute-force scan gives (0,4)
    got5 = {(p.x.value, p.y.value) for p in enumerate_circle(circle(F5, (0, 0), 1))}
    assert got5 == {(1, 0), (4, 0), (0, 1), (0, 4)}
    assert got5 == brute_circle_prime(5, 0, 0, 1)


def test_enumerate_circle_against_brute_force():
    for p in [p for p in primes_up_to(31) if p % 2]:
        field = PrimeField(p)
        for r in range(1, p):
            got = {(pt.x.value, pt.y.value) for pt in enumerate_circle(circle(field, (1, 2), r))}
            assert got == brute_circle_prime(p, 1, 2, r)
    for field in (QuadraticExtension(2, (1, 1)), QuadraticExtension(3, (1, 0)), QuadraticExtension(5, (3, 0))):
        c = Circle(PlanePoint(field.zero, field.one), field((1, 1)))
        got = {(pt.x, pt.y) for pt in enumerate_circle(c)}
        assert got == brute_circle_field(field, (field.zero, field.one), field((1, 1)))


def test_table_points_match_parametrization_and_brute_force(rng):
    # over odd F_p the points come from the square-root table; the parametrization
    # and a scan of all p^2 pairs give the same sorted list
    for p in [p for p in primes_up_to(400) if p % 2]:
        field = PrimeField(p)
        m1, m2 = rng.randrange(1, p), rng.randrange(1, p)
        for r in sorted({1, field._non_square, p - 1}):
            c = circle(field, (m1, m2), r)
            got = _raw_circle_points(c)
            param = [point_from_parameter(c, AT_INFINITY)._xy]
            param += [point_from_parameter(c, t)._xy for t in range(p) if (t * t + 1) % p]
            assert got == sorted(param), (p, m1, m2, r)
            assert got == sorted(brute_circle_prime(p, m1, m2, r)), (p, m1, m2, r)


def test_prime_field_enumeration_inverts_nothing(monkeypatch):
    def refuse(self, a):
        raise AssertionError("a field inversion during enumeration")

    circles = [circle(PrimeField(p), center, r) for p, center, r in
               ((3, (1, 2), 2), (7, (0, 0), 1), (13, (5, 9), 2), (1009, (400, 17), 11))]
    expected = [enumerate_circle(c) for c in circles]
    monkeypatch.setattr(PrimeField, "_inv", refuse)
    assert [enumerate_circle(c) for c in circles] == expected
    assert [len(s) for s in partition_prime_field_circle(circles[2])] == [6, 6]


def test_corrupted_table_is_refused(monkeypatch):
    # an entry that some x reads, flipped between square and non-square or set to
    # p (two equal points), fails the count or the order check, also under
    # python -O; an entry no x reads leaves the list as it was
    c = circle(PrimeField(13), (5, 9), 2)
    good, table = _raw_circle_points(c), _prime_square_roots(13)
    for v in range(13):
        read = any((4 - (x - 5) ** 2 - v) % 13 == 0 for x in range(13))
        for wrong in (1 if table[v] < 0 else -1, 13):
            corrupt = array("i", table)
            corrupt[v] = wrong
            monkeypatch.setattr(plane, "_prime_square_roots", lambda p: corrupt)
            if read:
                with pytest.raises(AssertionError, match="enumeration produced"):
                    _raw_circle_points(c)
            else:
                assert _raw_circle_points(c) == good, (v, wrong)


def test_cardinality_formula():
    for p in [p for p in primes_up_to(200) if p % 2]:
        field = PrimeField(p)
        expected = p - 1 if p % 4 == 1 else p + 1
        assert circle_cardinality(field) == expected
        assert len(enumerate_circle(circle(field, (0, 0), 1))) == expected
    for p, f in [(2, (1, 1)), (3, (1, 0)), (5, (3, 0)), (7, (1, 0)), (11, (1, 0)),
                 (13, (11, 0)), (17, (3, 0)), (19, (1, 0)), (23, (1, 0)),
                 (29, (2, 0)), (31, (1, 0)), (37, (2, 0)), (41, (3, 0)),
                 (43, (1, 0)), (47, (1, 0))]:
        field = QuadraticExtension(p, f)
        if p == 2:
            expected = 4
        else:
            expected = field.order - 1  # p^2 = 1 mod 4 always for odd p
        assert circle_cardinality(field) == expected
        assert len(enumerate_circle(Circle(PlanePoint(field.zero, field.zero), field.one))) == expected
    with pytest.raises(InfiniteField):
        circle_cardinality(Q)


def test_parametrized_distance_formula(rng):
    cq = circle(Q, (2, 3), Fraction(5, 2))
    for _ in range(50):
        t1 = Fraction(rng.randrange(-30, 30), rng.randrange(1, 20))
        t2 = Fraction(rng.randrange(-30, 30), rng.randrange(1, 20))
        p1 = point_from_parameter(cq, t1)
        p2 = point_from_parameter(cq, t2)
        assert distance_from_parameters(cq, t1, t2) == squared_distance(p1, p2)
        assert distance_from_parameters(cq, t1, AT_INFINITY) == squared_distance(
            p1, point_from_parameter(cq, AT_INFINITY)
        )
    c13 = circle(F13, (7, 11), 6)
    for t1 in range(13):
        for t2 in range(13):
            if (t1 * t1 + 1) % 13 == 0 or (t2 * t2 + 1) % 13 == 0:
                continue
            assert distance_from_parameters(c13, t1, t2) == squared_distance(
                point_from_parameter(c13, t1), point_from_parameter(c13, t2)
            )


def test_enumerate_rational_points_stream():
    c = circle(Q, (1, -2), Fraction(3, 4))
    first = next(enumerate_rational_points(c))
    assert first == point(Q, 1, Fraction(-11, 4))  # n=1 gives t=0, the bottom point
    pts = list(islice(enumerate_rational_points(c), 100))
    assert len(set(pts)) == 100
    assert all(c.contains(p) for p in pts)
    # n = 2 corresponds to t = 3/4 with t^2 + 1 = (5/4)^2
    assert pts[1] == point_from_parameter(c, Fraction(3, 4))


def test_vanishing_distance_pairs():
    assert not has_vanishing_distance_pair(circle(F5, (0, 0), 1))
    assert not has_vanishing_distance_pair(circle(F13, (0, 0), 1))
    c2 = circle(PrimeField(2), (0, 0), 1)
    assert has_vanishing_distance_pair(c2)
    assert all_distances_vanish(c2)
    f4 = QuadraticExtension(2, (1, 1))
    c4 = Circle(PlanePoint(f4.zero, f4.zero), f4.one)
    assert all_distances_vanish(c4)
    assert not all_distances_vanish(circle(F13, (0, 0), 1))
