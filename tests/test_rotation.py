import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import circlering
from circlering.errors import (
    CircleMismatch,
    DescriptorMismatch,
    NotCoprime,
    PointNotOnCircle,
    ResultTooLarge,
)
from circlering.fields import PrimeField, QuadraticExtension, Rationals, primes_up_to
from circlering.maximal import is_perfect_distance
from circlering.plane import circle, enumerate_circle, point, point_from_parameter
from circlering.rotation import (
    RotationElement,
    _RationalTorus,
    _torus,
    classify_cyclicity,
    element_order,
    gaussian_norm_square_check,
    group_order,
    identity_element,
    induced_squared_distance,
    rot_mul,
    rot_pow,
    rot_sqrt,
    rotation_element,
)

from oracles import (
    brute_circle_prime,
    brute_circle_quadratic,
    identity_power_sweep,
    iterated_rot_pow,
    residue_ops,
    rot_mul_fractions,
    rot_mul_residues,
    rot_pow_residues,
    rotation_roots,
    square_and_multiply,
)

F7 = PrimeField(7)
F13 = PrimeField(13)
Q = Rationals()

C13 = circle(F13, (0, 0), 1)
CQ2 = circle(Q, (0, 0), 2)


def group_elements(c):
    return [RotationElement(c, p) for p in enumerate_circle(c)]


def test_rot_mul_golden():
    e = identity_element(C13)
    a = rotation_element(C13, 2, 6)
    assert rot_mul(e, a) == a
    assert rot_mul(a, a) == rotation_element(C13, 7, 11)
    b = rotation_element(CQ2, Fraction(8, 5), Fraction(6, 5))
    assert rot_mul(b, b) == rotation_element(CQ2, Fraction(14, 25), Fraction(48, 25))
    assert rot_mul(a, a.inverse()) == e
    with pytest.raises(CircleMismatch):
        rot_mul(a, rotation_element(circle(F13, (0, 0), 2), 0, 2))
    # every element is checked when it is built
    with pytest.raises(PointNotOnCircle):
        rotation_element(C13, 2, 5)
    with pytest.raises(PointNotOnCircle):
        rotation_element(CQ2, 1, 1)
    with pytest.raises(DescriptorMismatch):
        RotationElement(C13, point(F7, 1, 0))  # its raw values satisfy x^2 + y^2 = 1


def test_group_axioms_randomized(rng):
    settings = [
        (circle(F7, (0, 0), 3), F7),
        (circle(PrimeField(101), (0, 0), 1), PrimeField(101)),
        (CQ2, Q),
    ]
    for c, field in settings:
        if field.is_finite():
            pool = group_elements(c)
            pick = lambda: pool[rng.randrange(len(pool))]
        else:
            def pick():
                t = Fraction(rng.randrange(-20, 21), rng.randrange(1, 15))
                return RotationElement(c, point_from_parameter(c, t))
        e = identity_element(c)
        for _ in range(150):
            a, b, d = pick(), pick(), pick()
            assert rot_mul(rot_mul(a, b), d) == rot_mul(a, rot_mul(b, d))
            assert rot_mul(a, b) == rot_mul(b, a)
            assert rot_mul(a, e) == a
            assert rot_mul(a, a.inverse()) == e
            assert c.contains(rot_mul(a, b).point)


def test_rot_pow_golden_and_oracle(rng):
    a = rotation_element(C13, 2, 6)
    assert rot_pow(a, 0) == identity_element(C13)
    assert rot_pow(a, 3) == rotation_element(C13, 0, 12)
    assert rot_pow(a, 6) == rotation_element(C13, 12, 0)
    # the identity and (-r, 0), the one point whose Gaussian pair (r + x, -y)
    # vanishes, on split, non-split, characteristic-2 and rational circles
    f9, f4 = QuadraticExtension(3, (1, 0)), QuadraticExtension(2, (1, 1))
    for c in (C13, circle(F7, (0, 0), 3), circle(f9, (0, 0), (0, 1)), circle(f4, (0, 0), (0, 1)),
              CQ2, circle(Q, (0, 0), Fraction(-5, 3))):
        r = c.radius
        e = identity_element(c)
        minus = RotationElement(c, point(c.field, -r, c.field.zero))
        if c.field.characteristic != 2:
            quarter = rotation_element(c, 0, r.value)
            assert rot_pow(quarter, 4) == e and rot_pow(quarter, 2**64 + 1) == quarter
        for n in (0, 1, 2, 3, 2**64 + 1):
            assert rot_pow(e, n) == e
            assert rot_pow(minus, n) == (minus if n % 2 else e)
        assert rot_mul(minus, minus) == e and rot_mul(minus, e) == minus
        if c.field.is_finite():
            assert element_order(e) == 1
            assert element_order(minus) == (1 if c.field.characteristic == 2 else 2)
    for _ in range(20):
        n = rng.randrange(0, 65)
        b = group_elements(C13)[rng.randrange(12)]
        assert rot_pow(b, n) == iterated_rot_pow(b, n)
    # 64-bit exponents where -1 is not a square (1000003) and where it is
    # (999999999989), against the defining formula
    for p in (1000003, 999999999989):
        for r in (1, 5):
            c = circle(PrimeField(p), (0, 0), r)
            for t in (2, 7):
                b = RotationElement(c, point_from_parameter(c, t))
                raw = (b.point.x.value, b.point.y.value)
                for n in (2**64 - 1, 2**63 + 12345):
                    got = rot_pow(b, n).point
                    want = square_and_multiply(
                        lambda u, v: rot_mul_residues(p, r, u, v), (r, 0), raw, n
                    )
                    assert (got.x.value, got.y.value) == want
    # large powers over Q
    for c, xy in ((CQ2, (Fraction(8, 5), Fraction(6, 5))), (circle(Q, (0, 0), 1), (Fraction(3, 5), Fraction(4, 5)))):
        r = c.radius.value
        b = rotation_element(c, *xy)
        for n in (64, 4000):
            got = rot_pow(b, n).point
            want = square_and_multiply(lambda u, v: rot_mul_fractions(r, u, v), (r, Fraction(0)), xy, n)
            assert (got.x.value, got.y.value) == want
    # the pair (3, -1) of (8/5, 6/5) on r = 2 has both entries odd; its
    # powers carry no factor 2^(n//2)
    for n in range(41):
        assert math.gcd(*_torus(Q, 2).pow((3, -1), n)) == 1
    # a power over Q whose coordinates would have billions of digits is refused
    with pytest.raises(ResultTooLarge):
        rot_pow(rotation_element(CQ2, Fraction(8, 5), Fraction(6, 5)), 10**9)


def test_a_q_power_off_the_circle_is_refused(monkeypatch):
    # each element rot_pow returns is checked on the circle by an explicit
    # check, which python -O keeps; a torus that maps back off the circle
    # is caught
    from_torus = _RationalTorus.from_torus

    def off_the_circle(self, w):
        x, y = from_torus(self, w)
        return x + Fraction(1, x.denominator), y

    monkeypatch.setattr(_RationalTorus, "from_torus", off_the_circle)
    b = rotation_element(CQ2, Fraction(8, 5), Fraction(6, 5))
    for n in (0, 1, 7, 64):
        with pytest.raises(PointNotOnCircle):
            rot_pow(b, n)


def test_rot_mul_and_pow_match_residue_formula():
    for p in [p for p in primes_up_to(31) if p % 2]:
        field = PrimeField(p)
        for r in (1, 2):
            c = circle(field, (0, 0), r)
            elements = group_elements(c)
            raw = {e: (e.point.x.value, e.point.y.value) for e in elements}
            for a in elements:
                for b in elements:
                    got = rot_mul(a, b).point
                    assert (got.x.value, got.y.value) == rot_mul_residues(p, r, raw[a], raw[b])
                powers = [rot_pow_residues(p, r, raw[a], n) for n in range(len(elements) + 2)]
                for n, want in enumerate(powers):
                    got = rot_pow(a, n).point
                    assert (got.x.value, got.y.value) == want
                assert element_order(a) == powers.index((r, 0), 1)


def test_rot_pow_matches_formula_products_over_extensions():
    # a square root s of -1 lies outside F_p in F_9 and F_49, inside it in F_25
    f9 = QuadraticExtension(3, (1, 0))
    f25 = QuadraticExtension(5, (3, 0))
    f49 = QuadraticExtension(7, (1, 0))
    f4 = QuadraticExtension(2, (1, 1))
    for field in (f9, f25, f49, f4):
        for radius in (field(1), field((0, 1)), field((1, 1))):
            c = circle(field, (0, 0), radius.value)
            elements = group_elements(c)
            for b in elements:
                b1, b2 = b.point.x, b.point.y
                x, y = radius, field.zero
                order = None
                for n in range(len(elements) + 2):
                    got = rot_pow(b, n).point
                    assert (got.x, got.y) == (x, y)
                    if n and order is None and (x, y) == (radius, field.zero):
                        order = n
                    x, y = (x * b1 - y * b2) / radius, (x * b2 + y * b1) / radius
                assert element_order(b) == order


def test_induced_squared_distance():
    assert induced_squared_distance(identity_element(C13)).is_zero()
    a = rotation_element(CQ2, Fraction(14, 25), Fraction(48, 25))
    assert induced_squared_distance(a) == Q(Fraction(3600, 625))
    assert induced_squared_distance(rotation_element(C13, 7, 11)) == F13(1)


def test_induced_distance_of_squares(rng):
    # induced distance of B^2 equals 4 * (B.y)^2
    for _ in range(40):
        t = Fraction(rng.randrange(-20, 21), rng.randrange(1, 12))
        b = RotationElement(CQ2, point_from_parameter(CQ2, t))
        four_ysq = Q(4) * b.point.y * b.point.y
        assert induced_squared_distance(rot_mul(b, b)) == four_ysq


def test_rot_sqrt_golden():
    assert rot_sqrt(rotation_element(C13, 7, 11)) == rotation_element(C13, 2, 6)
    a = rotation_element(CQ2, Fraction(14, 25), Fraction(48, 25))
    assert rot_sqrt(a) == rotation_element(CQ2, Fraction(8, 5), Fraction(6, 5))
    # identity is its own canonical root
    assert rot_sqrt(identity_element(C13)) == identity_element(C13)
    # (-r, 0) has the roots (0, +-r)
    minus = rotation_element(C13, 12, 0)
    root = rot_sqrt(minus)
    assert root is not None and rot_mul(root, root) == minus
    # elements with non-perfect induced distance have no root; on the F_7
    # unit circle the induced distances are {0,2,4,5,6}, of which 5 and 6
    # are not perfect (1 is rational there but never occurs)
    c7 = circle(F7, (0, 0), 1)
    induced_values = {induced_squared_distance(e).value for e in group_elements(c7)}
    assert induced_values == {0, 2, 4, 5, 6}
    stuck = [
        e for e in group_elements(c7)
        if induced_squared_distance(e).value in (5, 6)
    ]
    assert stuck
    for e in stuck:
        assert rot_sqrt(e) is None
        assert all(rot_mul(b, b) != e for b in group_elements(c7))
    # beta is the field's canonical root in every odd characteristic, and
    # the identity is its own root, in characteristic 2 too
    f49 = QuadraticExtension(7, (1, 0))
    c49 = circle(f49, (0, 0), 1)
    assert rot_sqrt(rotation_element(c49, 5, 5)) == rotation_element(c49, (0, 5), (0, 3))
    f9 = QuadraticExtension(3, (1, 0))
    c9 = circle(f9, (0, 0), 1)
    assert rot_sqrt(rotation_element(c9, 0, 2)) == rotation_element(c9, (0, 2), (0, 1))
    c3 = circle(PrimeField(3), (0, 0), 2)
    assert rot_sqrt(rotation_element(c3, 2, 0)) == rotation_element(c3, 2, 0)
    f4 = QuadraticExtension(2, (1, 1))
    for r in ((1, 0), (0, 1), (1, 1)):
        c = circle(f4, (0, 0), r)
        assert rot_sqrt(identity_element(c)) == identity_element(c)


def test_rot_sqrt_exists_iff_induced_perfect():
    for p in (7, 11, 13):
        field = PrimeField(p)
        for r in range(1, p):
            c = circle(field, (0, 0), r)
            elements = group_elements(c)
            squares = {rot_mul(b, b) for b in elements}
            for a in elements:
                got = rot_sqrt(a)
                if got is not None:
                    assert rot_mul(got, got) == a
                assert (got is not None) == (a in squares)
                if not a.is_identity():
                    assert (a in squares) == is_perfect_distance(
                        c, induced_squared_distance(a)
                    )


def test_rot_sqrt_small_fields():
    f5 = PrimeField(5)
    c5 = circle(f5, (0, 0), 1)
    a = rotation_element(c5, 4, 0)
    # the square test, not perfectness, decides: (0, +-1) square to
    # (-1, 0) over F_5, although the induced distance 4 is not perfect
    root = rot_sqrt(a)
    assert root is not None and rot_mul(root, root) == a
    assert not is_perfect_distance(c5, induced_squared_distance(a))
    # truth tables for F_2, F_3 and F_4: record existence by brute force and compare
    f4 = QuadraticExtension(2, (1, 1))
    for c in (circle(PrimeField(2), (0, 0), 1), circle(PrimeField(3), (0, 0), 1),
              circle(f4, (0, 0), f4.one)):
        elements = group_elements(c)
        for e in elements:
            got = rot_sqrt(e)
            exists = any(rot_mul(b, b) == e for b in elements)
            assert (got is not None) == exists
            assert got is None or rot_mul(got, got) == e


def test_rot_sqrt_matches_root_scan():
    # whether a root exists, and that it is one, against a scan of the circle
    # in the oracles' own arithmetic, over every element of small circles
    cases = [(PrimeField(p), None, r) for p in (2, 3, 5) for r in (1, 2) if r % p]
    for p, f in ((2, (1, 1)), (3, (1, 0)), (5, (3, 0)), (7, (1, 0)), (11, (1, 0))):
        field = QuadraticExtension(p, f)
        cases += [(field, f, r) for r in ((1, 0), (2, 0), (0, 1), (1, 1)) if r[0] % p or r[1]]
    checked = 0
    for field, f, r in cases:
        p = field.characteristic
        if f is None:
            pts = brute_circle_prime(p, 0, 0, r)
        else:
            pts = brute_circle_quadratic(p, f, ((0, 0), (0, 0)), r)
        c = circle(field, (field.zero.value, field.zero.value), r)
        ops = residue_ops(p, f)
        for a in sorted(pts):
            roots = rotation_roots(pts, ops, r, a)
            got = rot_sqrt(rotation_element(c, *a))
            assert (got is not None) == bool(roots), (c, a)
            assert got is None or (got.point.x.value, got.point.y.value) in roots, (c, a, got)
            checked += 1
    assert checked == 830, checked


def test_group_order_and_element_orders():
    for p in [p for p in primes_up_to(61) if p % 2]:
        field = PrimeField(p)
        expected = p - 1 if p % 4 == 1 else p + 1
        for r in (1, 2):
            c = circle(field, (0, 0), r)
            assert group_order(c) == expected
            assert len(enumerate_circle(c)) == expected
    for p in (7, 11, 13, 17, 19):
        field = PrimeField(p)
        c = circle(field, (0, 0), 1)
        n = group_order(c)
        for e in group_elements(c):
            k = element_order(e)
            assert n % k == 0
            assert rot_pow(e, k).is_identity()
            assert all(not rot_pow(e, j).is_identity() for j in range(1, min(k, 12)))
    assert element_order(rotation_element(C13, 2, 6)) == 12


def test_element_order_factoring_is_bounded():
    # run apart under a 1 GB address-space limit, so that a factorization
    # that sieves up to sqrt(p + 1) fails with MemoryError instead of swapping
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from circlering.errors import FactorBoundExceeded\n"
        "from circlering.fields import PrimeField\n"
        "from circlering.plane import circle, point_from_parameter\n"
        "from circlering.rotation import RotationElement, element_order\n"
        "def element(p):\n"
        "    c = circle(PrimeField(p), (0, 0), 1)\n"
        "    return RotationElement(c, point_from_parameter(c, 2))\n"
        "# p + 1 = 2^61\n"
        "order = element_order(element(2**61 - 1))\n"
        "assert order > 4 and 2**61 % order == 0, order\n"
        "# p + 1 = 4 * 1000003 * 1000037: two prime factors above 10^6\n"
        "try:\n"
        "    element_order(element(4000160000443))\n"
        "except FactorBoundExceeded:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no FactorBoundExceeded')\n"
    )
    src = os.path.dirname(os.path.dirname(circlering.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=30)
    assert done.returncode == 0


def test_classify_cyclicity():
    rep = classify_cyclicity(rotation_element(CQ2, 0, 2))
    assert rep.verdict == "cyclic" and rep.order == 4
    assert classify_cyclicity(rotation_element(CQ2, 2, 0)).order == 1
    assert classify_cyclicity(rotation_element(CQ2, -2, 0)).order == 2
    rep = classify_cyclicity(rotation_element(CQ2, Fraction(8, 5), Fraction(6, 5)))
    assert rep.verdict == "acyclic" and rep.order is None
    rep13 = classify_cyclicity(rotation_element(C13, 2, 6))
    assert rep13.verdict == "cyclic" and rep13.order == 12


def test_classify_cyclicity_matches_power_sweep():
    # the theorem's verdict and order against a search for the first identity power
    for p in (5, 7, 13, 29):
        field = PrimeField(p)
        for r in (1, 2):
            c = circle(field, (0, 0), r)
            n = group_order(c)
            for e in group_elements(c):
                rep = classify_cyclicity(e)
                assert rep.verdict == "cyclic" and rep.order == identity_power_sweep(e, n)
    for x, y in ((2, 0), (-2, 0), (0, 2), (0, -2),
                 (Fraction(8, 5), Fraction(6, 5)), (Fraction(-6, 5), Fraction(8, 5))):
        e = rotation_element(CQ2, x, y)
        rep = classify_cyclicity(e)
        hit = identity_power_sweep(e, 2000)
        assert rep.verdict == ("acyclic" if hit is None else "cyclic")
        assert rep.order == hit


def test_identity_power_sweep():
    assert identity_power_sweep(rotation_element(CQ2, 0, 2), 10) == 4
    assert identity_power_sweep(rotation_element(CQ2, -2, 0), 10) == 2
    assert identity_power_sweep(rotation_element(CQ2, Fraction(8, 5), Fraction(6, 5)), 500) is None
    a = rotation_element(C13, 2, 6)
    assert identity_power_sweep(a, 100) == 12


def test_rotation_group_over_extension_field():
    f9 = QuadraticExtension(3, (1, 0))
    c9 = circle(f9, (0, 0), 1)
    elements = group_elements(c9)
    assert len(elements) == group_order(c9) == 8
    e = identity_element(c9)
    for a in elements:
        assert rot_mul(a, a.inverse()) == e
        assert group_order(c9) % element_order(a) == 0
    # square roots over extension fields follow the same formula
    for a in elements:
        got = rot_sqrt(a)
        exists = any(rot_mul(b, b) == a for b in elements)
        assert (got is not None) == exists
        assert got is None or rot_mul(got, got) == a


def test_gaussian_norm_square_check():
    assert gaussian_norm_square_check(3, 4)
    assert not gaussian_norm_square_check(1, 1)
    with pytest.raises(NotCoprime):
        gaussian_norm_square_check(8, 6)


def test_gaussian_power_never_real():
    # coprime pairs with square norm > 1: powers keep a nonzero imaginary part
    for x, y in ((3, 4), (4, 3), (5, 12), (8, 15), (20, 21), (7, 24), (9, 40)):
        assert gaussian_norm_square_check(x, y)
        u, v = 1, 0
        for _ in range(50):
            u, v = u * x - v * y, u * y + v * x
            assert v != 0


def test_rot_mul_agrees_with_complex_multiplication(rng):
    c = circle(Q, (0, 0), 1)
    for _ in range(60):
        t1 = Fraction(rng.randrange(-15, 16), rng.randrange(1, 10))
        t2 = Fraction(rng.randrange(-15, 16), rng.randrange(1, 10))
        a = RotationElement(c, point_from_parameter(c, t1))
        b = RotationElement(c, point_from_parameter(c, t2))
        prod = rot_mul(a, b)
        # exact complex multiplication (xa + i ya)(xb + i yb) over Q
        xa, ya = a.point.x.value, a.point.y.value
        xb, yb = b.point.x.value, b.point.y.value
        assert prod.point.x.value == xa * xb - ya * yb
        assert prod.point.y.value == xa * yb + ya * xb
