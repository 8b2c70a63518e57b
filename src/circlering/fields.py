"""Exact arithmetic for the three field families used throughout circlering.

Supported fields:

* ``PrimeField(p)``          -- F_p, residues stored in [0, p)
* ``QuadraticExtension(p, f)`` -- F_p[a]/(f) with f monic of degree 2,
  elements stored as coefficient pairs (c0, c1) meaning c0 + c1*a
* ``Rationals()``            -- Q, elements stored as reduced Fractions

All arithmetic is exact, with no floating point.  Field descriptors and
elements are frozen value objects, safe to share between threads.

Besides the four operations the module provides powers (one
square-and-multiply, or the builtin where the field has one), square
testing (Euler criterion over finite fields, perfect-square test over
Q), canonical square roots (Tonelli-Shanks over F_p, with a non-square
found once per field; over F_{p^2} from F_p roots by norm and trace),
prime-subfield membership, the squarefree-part map naming the coset of
a nonzero rational in Q*/squares, and the primality test of every
modulus (exact below psi_13 = 3317044064679887385961981, Baillie-PSW above).
"""

import dataclasses
import functools
import itertools
import math
import operator
import re
import reprlib
from array import array
from bisect import bisect_right
from dataclasses import InitVar, dataclass
from fractions import Fraction

from .errors import (
    DescriptorMismatch,
    DivisionByZero,
    FactorBoundExceeded,
    InfiniteField,
    NotASquare,
    ParseError,
)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981
# largest modulus accepted, in bits: is_prime's time grows about with
# the cube of the bit length (0.1 s at 1279 bits, 3.6 s at 4423)
_MODULUS_BITS_CAP = 4096
# exception messages show a longer integer by its size: its text takes time
# quadratic in its length, and past CPython's 4300-digit limit str() raises
# ValueError in place of the error being reported
_BRIEF_BITS = 256


def _brief_int(n: int) -> str:
    bits = n.bit_length()
    return str(n) if bits <= _BRIEF_BITS else f"{'-' if n < 0 else ''}<{bits}-bit integer>"


def _brief(obj) -> str:
    """The text of an integer, field element, point or circle for an exception message.

    As str(obj), but an integer of more than _BRIEF_BITS bits is shown by
    its size and never converted to digits.
    """
    return _brief_int(obj) if isinstance(obj, int) else obj._text(_brief_int)


def is_prime(n: int) -> bool:
    """Miller-Rabin over the first 13 prime bases, plus a strong Lucas test above psi_13.

    Exact for every n below psi_13 = 3317044064679887385961981, the
    least strong pseudoprime to all 13 bases (Sorenson-Webster).  From
    psi_13 on, n must also pass a strong Lucas test with Selfridge's
    parameters, which with base 2 makes the Baillie-PSW test: no
    composite passing it is known, but none is proven impossible.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI13 or _is_strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 5.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4; with n + 1 = d 2^s, n passes when U_d = 0 or
    V_(d 2^k) = 0 for some k < s (all mod n).
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    half = (n + 1) // 2  # the inverse of 2 mod n
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # left-to-right over the bits of d: k -> 2k, then k -> k + 1 on a 1 bit
    U, V, Qk = 0, 2, 1
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


_sieve_cache: list[int] = []
_sieve_limit = 0


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit (cached sieve, grown on demand)."""
    global _sieve_cache, _sieve_limit
    if limit > _sieve_limit:
        size = max(limit, 2 * _sieve_limit, 1 << 10)
        flags = bytearray([1]) * (size + 1)
        flags[0] = flags[1] = 0
        for i in range(2, math.isqrt(size) + 1):
            if flags[i]:
                flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
        _sieve_cache = [i for i, f in enumerate(flags) if f]
        _sieve_limit = size
    return _sieve_cache[: bisect_right(_sieve_cache, limit)]


_TRIAL_BOUND = 10**6  # bound on trial-division primes


def _trial_division(n: int) -> tuple[dict[int, int], int]:
    """The primes p <= _TRIAL_BOUND dividing n, with exponents, and the cofactor left.

    Stops once p^2 exceeds what is left, so a cofactor c > 1 has no
    prime factor below min(_TRIAL_BOUND, sqrt(c)).
    """
    exponents: dict[int, int] = {}
    for p in primes_up_to(min(_TRIAL_BOUND, math.isqrt(n) + 1)):
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            exponents[p] = exponents.get(p, 0) + 1
    return exponents, n


def _squarefree_part_int(n: int) -> int:
    """Squarefree part of a positive integer by trial division to _TRIAL_BOUND."""
    root = math.isqrt(n)
    if root * root == n:
        return 1  # every prime exponent is even
    exponents, n = _trial_division(n)
    part = math.prod(p for p, e in exponents.items() if e % 2)
    if n == 1:
        return part
    if n <= _TRIAL_BOUND * _TRIAL_BOUND:
        # no factor <= bound, hence no factor <= sqrt(n): n is prime
        return part * n
    root = math.isqrt(n)
    if root * root == n:
        # perfect square: even exponents throughout, contributes nothing
        return part
    raise FactorBoundExceeded(
        f"cofactor {n} exceeds trial-division bound {_TRIAL_BOUND}^2 and is not a square"
    )


def squarefree_part(q) -> int:
    """Coset representative of a nonzero rational in Q*/squares.

    Returns the signed product of the primes dividing q to an odd power,
    in increasing order; two nonzero rationals land in the same coset of
    the square subgroup exactly when their squarefree parts agree.
    Raises FactorBoundExceeded when trial division up to _TRIAL_BOUND cannot
    settle the factorization.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("squarefree part of 0 is undefined")
    sign = -1 if q < 0 else 1
    num, den = abs(q.numerator), q.denominator
    # num and den are coprime, so their squarefree parts multiply
    return sign * _squarefree_part_int(num) * _squarefree_part_int(den)


@dataclass(frozen=True, slots=True)
class FieldElement:
    """An element of one of the supported fields, in canonical form.

    Arithmetic is exact and closed; mixing elements of different fields
    raises DescriptorMismatch.  Instances are immutable, hashable and
    picklable, and equal exactly when their fields and raw values are.
    """

    field: "FieldDescriptor"
    value: object

    def _peer(self, other):
        if not isinstance(other, FieldElement):
            raise DescriptorMismatch(f"cannot combine FieldElement with {type(other).__name__}")
        if other.field != self.field:
            raise DescriptorMismatch(f"field mismatch: {self.field} vs {other.field}")
        return other

    def __add__(self, other):
        other = self._peer(other)
        return FieldElement(self.field, self.field._add(self.value, other.value))

    def __sub__(self, other):
        other = self._peer(other)
        return FieldElement(self.field, self.field._sub(self.value, other.value))

    def __mul__(self, other):
        other = self._peer(other)
        return FieldElement(self.field, self.field._mul(self.value, other.value))

    def __truediv__(self, other):
        other = self._peer(other)
        return self * other.inverse()

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.value))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an int")
        base = self.inverse() if n < 0 else self
        return FieldElement(self.field, self.field._pow(base.value, abs(n)))

    def inverse(self):
        """Multiplicative inverse; DivisionByZero on the zero element."""
        if self.is_zero():
            raise DivisionByZero(f"inverse of zero in {self.field}")
        return FieldElement(self.field, self.field._inv(self.value))

    def is_zero(self) -> bool:
        return self.value == self.field._zero

    def __bool__(self):
        return not self.is_zero()

    def is_square(self) -> bool:
        """True when some field element squares to this one; 0 counts."""
        return self.field._is_square(self.value)

    def sqrt(self) -> "FieldElement":
        """The canonical square root (see the field's docs for the choice)."""
        if not self.is_square():
            raise NotASquare(f"{_brief(self)} is not a square in {self.field}")
        return FieldElement(self.field, self.field._sqrt(self.value))

    def in_prime_subfield(self) -> bool:
        """True when the element lies in the canonical copy of P(F)."""
        return self.field._in_prime_subfield(self.value)

    def is_prime_subfield_square(self) -> bool:
        """True when the element is a square *of the prime subfield*."""
        return self.field._is_prime_subfield_square(self.value)

    def prime_sqrt(self) -> "FieldElement":
        """Canonical square root taken inside the prime subfield."""
        if not self.is_prime_subfield_square():
            raise NotASquare(f"{_brief(self)} is not a prime-subfield square in {self.field}")
        return FieldElement(self.field, self.field._sqrt(self.value))

    def sort_key(self):
        """Total order on canonical representations, used for enumeration."""
        return self.value

    def _text(self, digits=str) -> str:
        """The element written with `digits` as the text of each integer."""
        return self.field._format(self.value, digits)

    def __str__(self):
        return self._text()

    def __repr__(self):
        return f"<{self} in {self.field}>"


class FieldDescriptor:
    """Shared behaviour of the three field kinds.

    The kinds are frozen slotted dataclasses, checked once when built,
    so no holder of a field can change it under another.  The
    prime-subfield methods default to those of a field that is its
    own prime subfield, as F_p and Q are; QuadraticExtension overrides them.
    The geometry's tests on raw pairs, _rational and _is_at, default to
    the field's own operations; Rationals overrides them on integers.
    """

    __slots__ = ()
    _zero = 0  # raw value of the zero element
    # whether rational pairs split every circle into classes, so a point set is checked
    # against one of its points: over F_p (the two-class theorem) and Q, not over F_{p^2}
    _rational_is_class_relation = True

    # read from p over F_p (F_{p^2} overrides order); Q overrides both
    characteristic = order = property(lambda self: self.p)

    def __call__(self, value) -> FieldElement:
        """The element named by `value`; an element of this field is returned as is."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise DescriptorMismatch(f"{value.field} element given to {self}")
            return value
        return FieldElement(self, self._canon(self._exact(value)))

    @staticmethod
    def _exact(value):
        """An integer or a pair of them, checked: a float or Fraction is refused, not truncated."""
        return operator.index(value) if hasattr(value, "__index__") else tuple(map(operator.index, value))

    def from_int(self, n: int) -> FieldElement:
        """Image of the integer n under the canonical ring map Z -> F."""
        return self(n)

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, self._zero)

    @property
    def one(self) -> FieldElement:
        return self(1)

    def is_finite(self) -> bool:
        return self.order is not None

    def _raw_elements(self):
        raise InfiniteField(f"{self} is infinite")

    def _in_prime_subfield(self, a):
        return True

    def _is_prime_subfield_square(self, a):
        return self._is_square(a)

    def _squared_distance(self, a, b):
        """(a1-b1)^2 + (a2-b2)^2 for raw coordinate pairs, as a raw value."""
        sub, mul = self._sub, self._mul
        dx, dy = sub(a[0], b[0]), sub(a[1], b[1])
        return self._add(mul(dx, dx), mul(dy, dy))

    def _rational(self, a, b):
        """The rational-pair test on raw pairs: their squared distance is a prime-subfield square."""
        return self._is_prime_subfield_square(self._squared_distance(a, b))

    def _is_at(self, a, b, v):
        """Whether the squared distance of the raw pairs a and b is the raw value v."""
        return self._squared_distance(a, b) == v

    def _format(self, a, digits):
        return digits(a)

    def parse(self, text: str) -> FieldElement:
        """The element written as `text`; ParseError when it names none."""
        try:
            return FieldElement(self, self._parse(text))
        except (ValueError, ZeroDivisionError) as exc:  # Fraction("1/0") divides by zero
            raise ParseError(f"cannot parse {reprlib.repr(text)} as an element of {self}: {exc}") from None

    def to_text(self) -> str:
        raise NotImplementedError

    def __str__(self):
        return self.to_text()

    __repr__ = __str__


@dataclass(frozen=True, slots=True, repr=False)
class PrimeField(FieldDescriptor):
    """F_p for a prime p; elements are residues in [0, p)."""

    p: int
    _found_non_square: int | None = dataclasses.field(default=None, init=False, compare=False)

    def __post_init__(self):
        p = operator.index(self.p)
        if p.bit_length() > _MODULUS_BITS_CAP:
            raise ValueError(f"a {p.bit_length()}-bit modulus exceeds the {_MODULUS_BITS_CAP}-bit cap")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def _canon(self, v):
        return int(v) % self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _neg(self, a):
        return -a % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def _pow(self, a, n):
        return pow(a, n, self.p)

    def _is_square(self, a):
        if a == 0 or self.p == 2:
            return True
        return pow(a, (self.p - 1) // 2, self.p) == 1

    # F_p is its own prime subfield; the alias saves the base class's call layer
    _is_prime_subfield_square = _is_square

    def _squared_distance(self, a, b):
        # the integer sum is exact, so one reduction at the end does for five
        (a0, a1), (b0, b1) = a, b
        dx, dy = a0 - b0, a1 - b1
        return (dx * dx + dy * dy) % self.p

    @property
    def _non_square(self):
        """The least non-square, found on first use and kept by the field."""
        if self._found_non_square is None:
            z = next(z for z in range(2, self.p) if not self._is_square(z))
            object.__setattr__(self, "_found_non_square", z)
        return self._found_non_square

    def _sqrt(self, a):
        # canonical choice: the root in [0, (p-1)/2]
        p = self.p
        if a == 0 or p == 2:
            return a
        r = pow(a, (p + 1) // 4, p) if p % 4 == 3 else _tonelli_shanks(p, a, self._non_square)
        return min(r, p - r)

    def _parse(self, text):
        return int(text.strip()) % self.p

    def _raw_elements(self):
        return range(self.p)

    def to_text(self):
        return f"Fp:{self.p}"


def _power(mul, one, a, n: int):
    """a^n for n >= 0 by square-and-multiply over the product `mul`."""
    result = one
    while n:
        if n & 1:
            result = mul(result, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return result


def _tonelli_shanks(p: int, a: int, z: int) -> int:
    """One square root of the nonzero square a mod p, for p = 1 (mod 4) and z a non-square."""
    q, m = p - 1, 0
    while q % 2 == 0:
        q //= 2
        m += 1
    c, x, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, e = 0, t
        while e != 1:
            e = e * e % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def _is_irreducible(prime_field: PrimeField, f0: int, f1: int) -> bool:
    """Whether x^2 + f1 x + f0 has no root in the prime field."""
    p = prime_field.p
    if p == 2:
        return all((x * x + f1 * x + f0) % 2 for x in (0, 1))
    return not prime_field._is_square((f1 * f1 - 4 * f0) % p)


_POLY_RE = re.compile(
    r"^x\^2(?:\+(?P<c1>\d*)x)?(?:\+(?P<c0>\d+))?$"
)


@dataclass(frozen=True, slots=True, repr=False)
class QuadraticExtension(FieldDescriptor):
    """F_p[a]/(f) for f monic of degree 2 and irreducible over F_p.

    The modulus is f = x^2 + c1*x + c0 and elements are pairs (c0, c1)
    standing for c0 + c1*a, both coefficients reduced modulo p.
    Irreducibility is verified at construction: for odd p the
    discriminant c1^2 - 4 c0 must be a non-square of F_p; over F_2 the
    polynomial must not vanish at 0 or 1.
    """

    _zero = (0, 0)
    _rational_is_class_relation = False
    p: int
    f: InitVar[tuple[int, int]]
    f0: int = dataclasses.field(init=False)
    f1: int = dataclasses.field(init=False)
    _prime: PrimeField = dataclasses.field(init=False, compare=False)

    def __post_init__(self, f):
        prime = PrimeField(self.p)
        f0, f1 = (operator.index(c) % prime.p for c in f)
        if not _is_irreducible(prime, f0, f1):
            raise ValueError(f"x^2 + {f1}x + {f0} has a root mod {prime.p}; not irreducible")
        for name, value in (("p", prime.p), ("f0", f0), ("f1", f1), ("_prime", prime)):
            object.__setattr__(self, name, value)

    order = property(lambda self: self.p * self.p)

    def _canon(self, v):
        if isinstance(v, int):
            return (v % self.p, 0)
        c0, c1 = v
        return (int(c0) % self.p, int(c1) % self.p)

    def _add(self, a, b):
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def _sub(self, a, b):
        return ((a[0] - b[0]) % self.p, (a[1] - b[1]) % self.p)

    def _mul(self, a, b):
        # (a0 + a1 x)(b0 + b1 x) with x^2 = -f1 x - f0
        p = self.p
        hi = a[1] * b[1]
        return (
            (a[0] * b[0] - self.f0 * hi) % p,
            (a[0] * b[1] + a[1] * b[0] - self.f1 * hi) % p,
        )

    def _neg(self, a):
        return (-a[0] % self.p, -a[1] % self.p)

    def _norm(self, a):
        # product of a with its conjugate, an element of F_p
        return (a[0] * a[0] - self.f1 * a[0] * a[1] + self.f0 * a[1] * a[1]) % self.p

    def _inv(self, a):
        p = self.p
        n_inv = pow(self._norm(a), -1, p)
        # conjugate of c0 + c1 x is (c0 - f1 c1) - c1 x
        return ((a[0] - self.f1 * a[1]) * n_inv % p, -a[1] * n_inv % p)

    def _pow(self, a, n):
        return _power(self._mul, (1, 0), a, n)

    def _is_square(self, a):
        # a is a square exactly when its norm a^(p+1) is a square of F_p
        return a == (0, 0) or self._prime._is_square(self._norm(a))

    def _sqrt(self, a):
        p, prime, (a0, a1) = self.p, self._prime, a
        if p == 2:
            # Frobenius is bijective: root = a^(|F|/2)
            return self._pow(a, self.order // 2)
        if a1 == 0 and prime._is_square(a0):
            # the roots are (+-s, 0), 0 included; the prime field's canonical s is the lesser
            return (prime._sqrt(a0), 0)
        if a1 == 0:
            # (2a + f1)^2 = D = f1^2 - 4 f0, a non-square: the roots are +-s (f1, 2), s^2 = a0/D
            s = prime._sqrt(a0 * pow(self.f1 * self.f1 - 4 * self.f0, -1, p) % p)
            r = (s * self.f1 % p, 2 * s % p)
        else:
            # a root x has norm delta = +-sqrt(N(a)) and trace t with t^2 = Tr(a) + 2 delta,
            # so x = (a + delta)/t; the other sign gives (x - conj x)^2, a non-square of F_p
            n = prime._sqrt(self._norm(a))
            trace = (2 * a0 - self.f1 * a1) % p
            delta = n if prime._is_square((trace + 2 * n) % p) else p - n
            t_inv = pow(prime._sqrt((trace + 2 * delta) % p), -1, p)
            r = ((a0 + delta) * t_inv % p, a1 * t_inv % p)
        # canonical choice: lexicographically smaller of the two roots
        return min(r, self._neg(r))

    def _in_prime_subfield(self, a):
        return a[1] == 0

    def _is_prime_subfield_square(self, a):
        return a[1] == 0 and self._prime._is_square(a[0])

    def _format(self, a, digits):
        c0, c1 = a
        if c1 == 0:
            return digits(c0)
        term = "a" if c1 == 1 else f"{digits(c1)}a"
        return term if c0 == 0 else f"{digits(c0)}+{term}"

    _ELT_RE = re.compile(r"^(?:(?P<c0>-?\d+)\+)?(?:(?P<c1>-?\d*)a)?$")

    def _parse(self, text):
        s = text.strip().replace(" ", "")
        if "a" not in s:
            return (int(s) % self.p, 0)
        m = self._ELT_RE.match(s)
        if not m or m.group("c1") is None:
            raise ValueError("expected c0+c1a")
        c0 = int(m.group("c0")) if m.group("c0") else 0
        c1_txt = m.group("c1")
        c1 = 1 if c1_txt in ("", "+") else -1 if c1_txt == "-" else int(c1_txt)
        return (c0 % self.p, c1 % self.p)

    def _raw_elements(self):
        return itertools.product(range(self.p), repeat=2)

    def to_text(self):
        poly = "x^2"
        if self.f1 == 1:
            poly += "+x"
        elif self.f1:
            poly += f"+{self.f1}x"
        if self.f0:
            poly += f"+{self.f0}"
        return f"Fp2:{self.p},{poly}"


@dataclass(frozen=True, slots=True, repr=False)
class Rationals(FieldDescriptor):
    """The rational numbers; elements are reduced Fractions."""

    _zero = Fraction(0)
    characteristic = 0
    order = None
    _exact = staticmethod(lambda value: value)

    def _canon(self, v):
        return Fraction(v)

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        return 1 / a

    def _pow(self, a, n):
        return a ** n

    def _is_square(self, a):
        if a < 0:
            return False
        n, d = a.numerator, a.denominator
        return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d

    def _sqrt(self, a):
        # canonical choice: the nonnegative root
        return Fraction(math.isqrt(a.numerator), math.isqrt(a.denominator))

    @staticmethod
    def _q_squared_distance(a, b):
        """(a1-b1)^2 + (a2-b2)^2 for raw pairs as N/L^2, on integers and unreduced: (N, L).

        Each difference x/b - e/f is (x f - e b)/(b f); the two are brought
        to their least common denominator L, so no Fraction is built and no
        gcd is taken but the one of those two denominators.
        """
        (x1, y1), (x2, y2) = a, b
        dx_den, dy_den = x1.denominator * x2.denominator, y1.denominator * y2.denominator
        g = math.gcd(dx_den, dy_den)
        dx = (x1.numerator * x2.denominator - x2.numerator * x1.denominator) * (dy_den // g)
        dy = (y1.numerator * y2.denominator - y2.numerator * y1.denominator) * (dx_den // g)
        return dx * dx + dy * dy, dx_den // g * dy_den

    def _rational(self, a, b):
        # N/L^2 is a rational square exactly when the integer N is a square
        n = self._q_squared_distance(a, b)[0]
        return math.isqrt(n) ** 2 == n

    def _is_at(self, a, b, v):
        # N/L^2 = v exactly when N v.den = v.num L^2
        n, den = self._q_squared_distance(a, b)
        return n * v.denominator == v.numerator * (den * den)

    def _format(self, a, digits):
        num = digits(a.numerator)
        return num if a.denominator == 1 else f"{num}/{digits(a.denominator)}"

    def _parse(self, text):
        return Fraction(text.strip())

    def to_text(self):
        return "Q"


def contains_sqrt_minus_one(field: FieldDescriptor) -> bool:
    """Whether -1 has a square root in the field.

    Over Q this is False (-1 < 0); over a finite field it agrees with
    the classical criterion |F| = 3 (mod 4) <=> no root, where fields of
    characteristic 2 fall on the "root exists" side because -1 = 1.
    """
    return field._is_square(field._canon(-1))


def parse_descriptor(text: str) -> FieldDescriptor:
    """Parse the descriptor syntax ``Fp:7``, ``Fp2:7,x^2+1``, or ``Q``.

    Raises ParseError for text that names no supported field: bad
    syntax, a composite or oversized p, a reducible modulus.
    """
    try:
        return _parse_descriptor(text.strip())
    except ValueError as exc:
        raise ParseError(f"bad field descriptor {reprlib.repr(text)}: {exc}") from None


def _parse_descriptor(s: str) -> FieldDescriptor:
    if s == "Q":
        return Rationals()
    if s.startswith("Fp2:"):
        p_txt, comma, poly = s[4:].partition(",")
        m = _POLY_RE.match(poly.replace(" ", ""))
        if not comma or not m:
            raise ValueError("expected Fp2:p,x^2+c1x+c0")
        c1_txt = m.group("c1")
        c1 = 0 if c1_txt is None else (1 if c1_txt == "" else int(c1_txt))
        c0 = int(m.group("c0") or 0)
        return QuadraticExtension(int(p_txt), (c0, c1))
    if s.startswith("Fp:"):
        return PrimeField(int(s[3:]))
    raise ValueError("expected Fp:p, Fp2:p,x^2+c1x+c0 or Q")


@functools.lru_cache(maxsize=4)
def _prime_square_roots(p: int) -> array:
    """The square-root table of F_p, p odd: root[v] is the least k with k^2 = v, or -1.

    root[v] is PrimeField._sqrt(v), the one root in [0, (p - 1)/2], so
    (p + 1)/2 squarings fill the table.  It holds p 4-byte entries (4 MB
    near 10^6), and each caller stands behind a cap on p (enumeration,
    clique search, sweep bounds); the cache keeps four, so the circles of
    a sweep record share one.  Callers only read it.
    """
    root = array("i", [-1]) * p
    for k in range((p + 1) // 2):
        root[k * k % p] = k
    return root
