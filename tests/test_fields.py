import ast
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

import circlering

from circlering.errors import (
    DescriptorMismatch,
    DivisionByZero,
    FactorBoundExceeded,
    NotASquare,
)
from circlering.fields import (
    FieldDescriptor,
    PrimeField,
    QuadraticExtension,
    Rationals,
    _is_strong_lucas_probable_prime,
    _prime_square_roots,
    contains_sqrt_minus_one,
    is_prime,
    parse_descriptor,
    primes_up_to,
    squarefree_part,
)

from oracles import field_elements, quadratic_mul, squares_of

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


def test_primality_baillie_psw_past_thirteen_bases():
    # psi_13, the least strong pseudoprime to the prime bases 2..41
    psi13 = 1287836182261 * 2575672364521
    assert psi13 == 3317044064679887385961981
    assert not is_prime(psi13)
    with pytest.raises(ValueError):
        PrimeField(psi13)
    assert is_prime(2**89 - 1) and is_prime(2**127 - 1)


def test_strong_lucas_pseudoprimes():
    primes = set(primes_up_to(20000))
    passing = [n for n in range(7, 20000, 2) if n not in primes and _is_strong_lucas_probable_prime(n)]
    assert passing == [5459, 5777, 10877, 16109, 18971]
    assert all(_is_strong_lucas_probable_prime(p) for p in primes if 7 <= p <= 10**4)


def test_descriptor_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        PrimeField(15)
    with pytest.raises(ValueError):
        QuadraticExtension(5, (4, 0))  # x^2 + 4 = x^2 - 1 has roots
    with pytest.raises(ValueError):
        QuadraticExtension(8, (1, 0))
    with pytest.raises(ValueError):
        QuadraticExtension(2**61 - 1, (-4, 0))  # x^2 - 4 = (x - 2)(x + 2)
    accepted = []
    for f in product(range(2), repeat=2):
        try:
            QuadraticExtension(2, f)
        except ValueError:
            continue
        accepted.append(f)
    assert accepted == [(1, 1)]


def test_finite_fields_refuse_non_integers():
    # a finite field is named and its elements given by integers only; a
    # float or Fraction is refused, not truncated (bools are integers)
    refused = [
        lambda: F7(Fraction(1, 2)),
        lambda: F7(2.5),
        lambda: QuadraticExtension(7, (1.5, 0)),
        lambda: PrimeField(7.5),
        lambda: F49(2.5),
        lambda: F49((1, Fraction(1, 2))),
    ]
    for build in refused:
        with pytest.raises(TypeError):
            build()
    assert F7(True) == F7(1) and F49((True, 3)) == F49((1, 3))
    assert Q(2.5) == Q(Fraction(5, 2))  # Q is unchanged: a float is exact there


def test_modulus_size_cap(monkeypatch, capsys):
    # past 4096 bits a modulus is refused before any primality test runs
    from circlering import fields, keyex
    from circlering.cli import main
    from circlering.errors import MalformedMessage

    def no_primality_test(n):
        raise AssertionError("is_prime ran on an oversized modulus")

    monkeypatch.setattr(fields, "is_prime", no_primality_test)
    m4423 = 2**4423 - 1  # a Mersenne prime
    with pytest.raises(ValueError, match="4423-bit"):
        PrimeField(m4423)
    with pytest.raises(ValueError, match="4423-bit"):
        QuadraticExtension(m4423, (1, 0))
    with pytest.raises(ValueError, match="4423-bit"):
        parse_descriptor(f"Fp:{m4423}")
    assert main(["circle", "enum", "--field", f"Fp:{m4423}", "--radius", "1"]) == 2
    assert "4423-bit" in capsys.readouterr().err
    message = (keyex.MAGIC + bytes([keyex.WIRE_VERSION, keyex._TAG_ELEMENT, keyex._KIND_PRIME])
               + keyex._pack_uint(m4423) + keyex._pack_uint(1))
    with pytest.raises(MalformedMessage, match="4423-bit"):
        keyex.decode(message)
    # the cap is on the bit length: 4096 bits pass on to the primality test
    monkeypatch.setattr(fields, "is_prime", lambda n: True)
    assert PrimeField(2**4096 - 1).p == 2**4096 - 1
    with pytest.raises(ValueError, match="4097-bit"):
        PrimeField(2**4096 + 1)


def test_extension_work_is_polynomial_in_log_p():
    # run apart so that a construction linear in p fails on the timeout instead of hanging
    script = (
        "from circlering.fields import QuadraticExtension\n"
        "from circlering.keyex import decode, encode\n"
        "field = QuadraticExtension(2**61 - 1, (1, 0))\n"
        "root = field((3, 0)).sqrt()\n"
        "assert root * root == field(3)\n"
        "assert decode(encode(field((3, 5)))) == field((3, 5))\n"
    )
    src = os.path.dirname(os.path.dirname(circlering.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=30)
    assert done.returncode == 0


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


def test_call_checks_the_descriptor_of_an_element():
    for field, element in ((F7, F13(1)), (Q, F7(1)), (F49, F7(3))):
        with pytest.raises(DescriptorMismatch):
            field(element)
    assert F13(F13(5)) == F13(5)


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


def test_pow_matches_repeated_product():
    rationals = [Q(Fraction(n, d)) for n in range(-3, 4) for d in (1, 2, 5)]
    for field in (F7, PrimeField(2), F49, QuadraticExtension(2, (1, 1)), Q):
        for e in list(field_elements(field)) if field.is_finite() else rationals:
            acc = field.one
            for n in range(21):
                assert e ** n == acc
                acc = acc * e
            if e.is_zero():
                for n in range(-5, 0):
                    with pytest.raises(DivisionByZero):
                        e ** n
                continue
            acc = field.one
            for n in range(1, 6):
                acc = acc / e
                assert e ** -n == acc
    assert F7(0) ** 0 == F7(1) and F49(0) ** 0 == F49(1) and Q(0) ** 0 == Q(1)


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
        by_squaring = {(e * e).value for e in field_elements(field)}
        by_euler = {e.value for e in field_elements(field) if e.is_square()}
        assert by_euler == by_squaring
        assert len(by_squaring - {(0, 0)}) == (field.order - 1) // 2


def test_char2_everything_is_a_square():
    for field in (PrimeField(2), QuadraticExtension(2, (1, 1))):
        for e in field_elements(field):
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
    # x^2 + 1 over F_7 and F_3 has a square f0, x^2 + 11 over F_13 does
    # not; the x^2 + x + c moduli put f1 into the trace 2 a0 - f1 a1.
    # Every root is the lesser of those a scan in oracle arithmetic finds.
    fields = [QuadraticExtension(13, (11, 0)), F49, QuadraticExtension(3, (1, 0))]
    fields += [QuadraticExtension(p, (c, 1)) for p, c in ((3, 2), (5, 1), (7, 3), (13, 2))]
    for field in fields:
        p, f = field.p, (field.f0, field.f1)
        roots = {}
        for x in product(range(p), repeat=2):
            roots.setdefault(quadratic_mul(p, f, x, x), []).append(x)
        for e in field_elements(field):
            assert e.is_square() == (e.value in roots)
            if e.is_square():
                root = e.sqrt()
                assert root * root == e
                assert root.value == min(roots[e.value])
    # over F_104729[a]/(a^2 + a + 1); 3 is a non-square of F_104729
    big = parse_descriptor("Fp2:104729,x^2+x+1")
    for square, root in (((104724, 3), (2, 3)), ((89520, 87645), (12345, 67890)), (3, (36639, 73278))):
        assert big(square).sqrt() == big(root)


def test_extension_roots_come_from_prime_roots(monkeypatch):
    # Tonelli-Shanks runs over the prime field only: a root in F_{p^2}
    # calls it with the characteristic, never with the extension
    from circlering import fields

    calls = []
    tonelli_shanks = fields._tonelli_shanks

    def record(*args):
        calls.append(args[0])
        return tonelli_shanks(*args)

    monkeypatch.setattr(fields, "_tonelli_shanks", record)
    for field in (QuadraticExtension(13, (11, 0)), parse_descriptor("Fp2:104729,x^2+x+1")):
        calls.clear()
        for v in ((1, 1), (2, 3), (0, 1), (5, 0)):
            root = (field(v) * field(v)).sqrt()
            assert root in (field(v), -field(v))
        assert calls and all(type(p) is int and p == field.characteristic for p in calls)


def test_non_square_found_once_per_field(monkeypatch):
    # Tonelli-Shanks needs a non-square; two roots in one field search
    # for it once.  The least non-square of F_73 is 5.  A frozen field
    # takes no attribute, so the square test is recorded on its class.
    cases = (
        (PrimeField(73), (6, 7), [36, 2, 3, 4, 5, 49]),
    )
    for field, roots, expected in cases:
        tested = []
        is_square = PrimeField._is_square
        monkeypatch.setattr(PrimeField, "_is_square", lambda self, a: tested.append(a) or is_square(self, a))
        for v in roots:
            root = (field(v) * field(v)).sqrt()
            assert root in (field(v), -field(v))
        # each sqrt tests its argument; only the first also searches
        assert tested == expected


def test_sqrt_minus_one_criterion():
    assert not contains_sqrt_minus_one(F7)
    assert contains_sqrt_minus_one(F13)
    assert contains_sqrt_minus_one(F49)
    # exhaustive oracle for F_49: some element squares to -1
    assert any((e * e).value == (6, 0) for e in field_elements(F49))
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


def test_not_a_square_message_is_bounded():
    # 2 * 10^5000 has an odd power of 2, and more digits than CPython will
    # convert to text; the message shows its size instead
    e = Q(2 * 10**5000)
    for root in (e.sqrt, e.prime_sqrt):
        with pytest.raises(NotASquare) as info:
            root()
        text = str(info.value)
        assert len(text) < 200 and "<16611-bit integer>" in text, text
    with pytest.raises(NotASquare, match="-<16611-bit integer> is not a square in Q"):
        Q(-2 * 10**5000).sqrt()


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
    # two primes above the trial-division bound 10^6 leave a cofactor above 10^12
    with pytest.raises(FactorBoundExceeded):
        squarefree_part(Fraction(1000003 * 1000033, 1))
    # perfect-square cofactors are fine even beyond the bound
    assert squarefree_part(Fraction(1000003**2, 1)) == 1
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


def test_prime_squared_distance_reduces_once(rng):
    # the F_p override against the integer formula and the generic body, reduced at each step
    for p in [p for p in primes_up_to(101) if p % 2] + [65537]:
        field = PrimeField(p)
        for _ in range(25):
            a = (rng.randrange(p), rng.randrange(p))
            b = (rng.randrange(p), rng.randrange(p))
            expected = ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) % p
            assert field._squared_distance(a, b) == expected, (p, a, b)
            assert FieldDescriptor._squared_distance(field, a, b) == expected, (p, a, b)


def test_prime_square_roots_agree_with_euler_and_sqrt():
    # the table's square test is Euler's criterion, and its root the field's canonical root
    for p in primes_up_to(1009)[1:]:
        field, root = PrimeField(p), _prime_square_roots(p)
        assert len(root) == p
        euler = [v == 0 or pow(v, (p - 1) // 2, p) == 1 for v in range(p)]
        assert [k >= 0 for k in root] == euler, p
        assert all(root[v] == field._sqrt(v) for v in range(p) if euler[v]), p


def test_field_kinds_are_named_only_at_boundaries():
    # what differs between field kinds lives in the descriptors, so a new kind
    # touches fields.py; elsewhere isinstance names a kind only where an API
    # entry point takes one kind, and in keyex's wire format
    kinds = {"PrimeField", "QuadraticExtension", "Rationals"}
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance":
                named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(child.args[1])}
                if named & kinds:
                    found.add(".".join((module, *scope)))
            visit(child, module, scope)

    for path in pathlib.Path(circlering.__file__).parent.glob("*.py"):
        if path.name != "fields.py":
            visit(ast.parse(path.read_text()), path.stem, ())
    assert found == {
        "keyex.ProtocolParams.__post_init__",
        "maximal.partition_prime_field_circle",
        "maximal.partition_rational_circle_points",
        "plane.enumerate_rational_points",
        "keyex._pack_value",
        "keyex._pack_descriptor",
        "keyex._read_value",
    }
