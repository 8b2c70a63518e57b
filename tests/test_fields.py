from fractions import Fraction

import pytest

from circlering.errors import (
    DescriptorMismatch,
    DivisionByZero,
    FactorBoundExceeded,
    NotASquare,
)
from circlering.fields import (
    PrimeField,
    QuadraticExtension,
    Rationals,
    contains_sqrt_minus_one,
    is_prime,
    parse_descriptor,
    primes_up_to,
    squarefree_part,
)

from oracles import squares_of

F7 = PrimeField(7)
F13 = PrimeField(13)
F49 = QuadraticExtension(7, (1, 0))  # a^2 + 1 = 0
Q = Rationals()


def test_primality_helper():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(1000003)
    assert not is_prime(1000001)  # 101 * 9901
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primality_exact_past_twelve_bases():
    # psi_12, the least strong pseudoprime to the prime bases 2..37
    psi12 = 399165290221 * 798330580441
    assert psi12 == 318665857834031151167461
    assert not is_prime(psi12)
    with pytest.raises(ValueError):
        PrimeField(psi12)
    assert is_prime(2**61 - 1)


def test_descriptor_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        PrimeField(15)
    with pytest.raises(ValueError):
        QuadraticExtension(5, (4, 0))  # x^2 + 4 = x^2 - 1 has roots
    with pytest.raises(ValueError):
        QuadraticExtension(8, (1, 0))


def test_arithmetic_golden_values():
    assert F7(5) * F7(3) == F7(1)
    a = F49((0, 1))
    assert a * a == F49(6)  # a^2 = -1 = 6 mod 7
    assert Q(Fraction(8, 5)) * Q(Fraction(6, 5)) == Q(Fraction(48, 25))


def test_arithmetic_errors():
    with pytest.raises(DivisionByZero):
        F7(3) / F7(0)
    with pytest.raises(DivisionByZero):
        Q(0).inverse()
    with pytest.raises(DescriptorMismatch):
        F7(1) + F13(1)
    with pytest.raises(DescriptorMismatch):
        F7(1) * Q(1)


def test_field_axioms_randomized(rng):
    fields = [F7, PrimeField(101), F49, QuadraticExtension(3, (1, 0)), Q]

    def sample(field):
        if field.is_finite():
            return field(rng.randrange(field.order)) if field.order == field.characteristic \
                else field((rng.randrange(field.characteristic), rng.randrange(field.characteristic)))
        return field(Fraction(rng.randrange(-99, 100), rng.randrange(1, 50)))

    for field in fields:
        for _ in range(200):
            a, b, c = sample(field), sample(field), sample(field)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            assert a + (-a) == field.zero
            if not b.is_zero():
                assert b * b.inverse() == field.one
                assert (a / b) * b == a


def test_square_sets_known_values():
    assert {x for x in range(7) if F7(x).is_square()} == {0, 1, 2, 4}
    assert {x for x in range(13) if F13(x).is_square()} == {0, 1, 3, 4, 9, 10, 12}
    assert not Q(Fraction(16, 5)).is_square()
    assert Q(Fraction(144, 25)).is_square()
    assert Q(0).is_square() and not Q(-4).is_square()


def test_euler_criterion_against_exhaustive_squaring():
    for p in [p for p in primes_up_to(200) if p % 2]:
        field = PrimeField(p)
        sq = squares_of(p)
        assert {x for x in range(p) if field(x).is_square()} == sq
        assert len(sq - {0}) == (p - 1) // 2


def test_extension_square_counts():
    for p, f in [(3, (1, 0)), (5, (3, 0)), (7, (1, 0)), (11, (1, 0)), (13, (11, 0)), (23, (1, 0))]:
        field = QuadraticExtension(p, f)
        by_squaring = {(e * e).value for e in field.elements()}
        by_euler = {e.value for e in field.elements() if e.is_square()}
        assert by_euler == by_squaring
        assert len(by_squaring - {(0, 0)}) == (field.order - 1) // 2


def test_char2_everything_is_a_square():
    for field in (PrimeField(2), QuadraticExtension(2, (1, 1))):
        for e in field.elements():
            assert e.is_square()
            root = e.sqrt()
            assert root * root == e


def test_sqrt_golden_and_roundtrip(rng):
    assert F13(12).sqrt() == F13(5)  # 5^2 = 25 = -1 mod 13
    assert F7(4).sqrt() == F7(2)
    assert Q(Fraction(3600, 625)).sqrt() == Q(Fraction(12, 5))
    with pytest.raises(NotASquare):
        F7(3).sqrt()
    for p in (13, 17, 97, 193):  # p = 1 mod 4 exercises full Tonelli-Shanks
        field = PrimeField(p)
        for _ in range(50):
            a = field(rng.randrange(p))
            if a.is_square():
                root = a.sqrt()
                assert root * root == a
                assert root.value <= (p - 1) // 2
    for _ in range(50):
        v = Fraction(rng.randrange(200), rng.randrange(1, 60)) ** 2
        assert Q(v).sqrt() * Q(v).sqrt() == Q(v)


def test_extension_sqrt_roundtrip():
    field = QuadraticExtension(13, (11, 0))
    for e in field.elements():
        if e.is_square():
            root = e.sqrt()
            assert root * root == e
            assert root.sort_key() <= (-root).sort_key()


def test_sqrt_minus_one_criterion():
    assert not contains_sqrt_minus_one(F7)
    assert contains_sqrt_minus_one(F13)
    assert contains_sqrt_minus_one(F49)
    # exhaustive oracle for F_49: some element squares to -1
    assert any((e * e).value == (6, 0) for e in F49.elements())
    assert not contains_sqrt_minus_one(Q)


def test_sqrt_minus_one_mod4_sweep():
    # |F| = 3 (mod 4) <=> no root, for odd prime powers p^n <= 2000, n <= 2
    for p in [p for p in primes_up_to(2000) if p % 2]:
        assert contains_sqrt_minus_one(PrimeField(p)) == (p % 4 != 3)
        if p * p <= 2000:
            for f in ((1, 0), (2, 0), (1, 1), (2, 1), (3, 0), (5, 0), (7, 1)):
                try:
                    ext = QuadraticExtension(p, f)
                except ValueError:
                    continue
                assert contains_sqrt_minus_one(ext) == (p * p % 4 != 3)
                break


def test_squarefree_part_golden():
    assert squarefree_part(Fraction(25, 16)) == 1
    assert squarefree_part(Fraction(16, 5)) == 5
    assert squarefree_part(-18) == -2
    assert squarefree_part(Fraction(3, 4)) == 3
    assert squarefree_part(Fraction(-49, 2)) == -2


def test_squarefree_part_square_invariance(rng):
    for _ in range(100):
        q = Fraction(rng.randrange(1, 500), rng.randrange(1, 500))
        if rng.random() < 0.5:
            q = -q
        s = Fraction(rng.randrange(1, 60), rng.randrange(1, 60))
        assert squarefree_part(q * s * s) == squarefree_part(q)


def test_squarefree_part_bound():
    with pytest.raises(FactorBoundExceeded):
        squarefree_part(Fraction(1000003 * 1000033, 1), bound=100)
    # perfect-square cofactors are fine even beyond the bound
    assert squarefree_part(Fraction(1000003**2, 1), bound=100) == 1
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_prime_subfield_membership():
    e = F49((2, 0))
    assert e.in_prime_subfield() and e.is_prime_subfield_square()
    e = F49((3, 0))
    assert e.in_prime_subfield() and not e.is_prime_subfield_square()
    e = F49((1, 2))
    assert not e.in_prime_subfield() and not e.is_prime_subfield_square()
    assert F7(2).is_prime_subfield_square()
    assert Q(Fraction(9, 4)).is_prime_subfield_square()
    root = F49((2, 0)).prime_sqrt()
    assert root * root == F49((2, 0)) and root.in_prime_subfield()


def test_descriptor_text_roundtrip():
    for text in ("Fp:7", "Fp:1000003", "Fp2:7,x^2+1", "Fp2:3,x^2+2x+2", "Fp2:2,x^2+x+1", "Q"):
        field = parse_descriptor(text)
        assert field.to_text() == text
        assert parse_descriptor(field.to_text()) == field
    with pytest.raises(ValueError):
        parse_descriptor("GF:7")


def test_element_text_roundtrip():
    cases = {
        F7: ["0", "5"],
        F49: ["0", "3", "a", "5a", "3+2a", "1+a"],
        Q: ["0", "5", "-14/25", "48/25", "-3"],
    }
    for field, texts in cases.items():
        for text in texts:
            e = field.parse(text)
            assert str(e) == text
            assert field.parse(str(e)) == e
    assert F49.parse("2 + 3a") == F49((2, 3))
    assert F7.parse("-1") == F7(6)
