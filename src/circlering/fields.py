"""Exact arithmetic for the three field families used throughout circlering.

Supported fields:

* ``PrimeField(p)``          -- F_p, residues stored in [0, p)
* ``QuadraticExtension(p, f)`` -- F_p[a]/(f) with f monic of degree 2,
  elements stored as coefficient pairs (c0, c1) meaning c0 + c1*a
* ``Rationals()``            -- Q, elements stored as reduced Fractions

All arithmetic is exact; there is no floating point anywhere.  Elements
are immutable value objects and safe to share between threads.

Besides the four operations the module provides square testing (Euler
criterion over finite fields, perfect-square test over Q), canonical
square roots (Tonelli-Shanks over finite fields), prime-subfield
membership tests, and the squarefree-part map that names the coset of a
nonzero rational in Q*/squares.
"""

import math
import re
from fractions import Fraction

from .errors import (
    DescriptorMismatch,
    DivisionByZero,
    FactorBoundExceeded,
    InfiniteField,
    NotASquare,
)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first 13 prime bases.

    Exact for every n below psi_13 = 3317044064679887385961981, the
    least strong pseudoprime to all of them (Sorenson-Webster); above
    that bound True means "probable prime".
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
    return True


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
    if limit >= _sieve_limit:
        return list(_sieve_cache)
    # bisect by hand; the cache is small
    out = []
    for p in _sieve_cache:
        if p > limit:
            break
        out.append(p)
    return out


def _squarefree_part_int(n: int, bound: int) -> int:
    """Squarefree part of a positive integer by trial division to `bound`."""
    root = math.isqrt(n)
    if root * root == n:
        return 1  # every prime exponent is even
    part = 1
    for p in primes_up_to(min(bound, math.isqrt(n) + 1)):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                part *= p
    if n == 1:
        return part
    if n <= bound * bound:
        # no factor <= bound, hence no factor <= sqrt(n): n is prime
        return part * n
    root = math.isqrt(n)
    if root * root == n:
        # perfect square: even exponents throughout, contributes nothing
        return part
    raise FactorBoundExceeded(
        f"cofactor {n} exceeds trial-division bound {bound}^2 and is not a square"
    )


def squarefree_part(q, bound: int = 10**6) -> int:
    """Coset representative of a nonzero rational in Q*/squares.

    Returns the signed product of the primes dividing q to an odd power,
    in increasing order; two nonzero rationals land in the same coset of
    the square subgroup exactly when their squarefree parts agree.
    Raises FactorBoundExceeded when trial division up to `bound` cannot
    settle the factorization.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("squarefree part of 0 is undefined")
    sign = -1 if q < 0 else 1
    num, den = abs(q.numerator), q.denominator
    # num and den are coprime, so their squarefree parts multiply
    return sign * _squarefree_part_int(num, bound) * _squarefree_part_int(den, bound)


class FieldElement:
    """An element of one of the supported fields, in canonical form.

    Arithmetic is exact and closed; mixing elements of different fields
    raises DescriptorMismatch.  Instances are immutable and hashable.
    """

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("FieldElement is immutable")

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
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        result = self.field.one
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        """Multiplicative inverse; DivisionByZero on the zero element."""
        if self.is_zero():
            raise DivisionByZero(f"inverse of zero in {self.field}")
        return FieldElement(self.field, self.field._inv(self.value))

    def is_zero(self) -> bool:
        return self.value == self.field.zero.value

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.field, self.value))

    def is_square(self) -> bool:
        """True when some field element squares to this one; 0 counts."""
        return self.field._is_square(self.value)

    def sqrt(self) -> "FieldElement":
        """The canonical square root (see the field's docs for the choice)."""
        if not self.is_square():
            raise NotASquare(f"{self} is not a square in {self.field}")
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
            raise NotASquare(f"{self} is not a prime-subfield square in {self.field}")
        return FieldElement(self.field, self.field._prime_sqrt(self.value))

    def sort_key(self):
        """Total order on canonical representations, used for enumeration."""
        return self.field._sort_key(self.value)

    def __str__(self):
        return self.field._format(self.value)

    def __repr__(self):
        return f"<{self} in {self.field}>"


class FieldDescriptor:
    """Shared behaviour of the three field kinds."""

    kind = "?"
    characteristic = 0
    order: int | None = None  # None for Q

    def __call__(self, value) -> FieldElement:
        return FieldElement(self, self._canon(value))

    def from_int(self, n: int) -> FieldElement:
        """Image of the integer n under the canonical ring map Z -> F."""
        return self(n)

    @property
    def zero(self) -> FieldElement:
        return self(0)

    @property
    def one(self) -> FieldElement:
        return self(1)

    def is_finite(self) -> bool:
        return self.order is not None

    def prime_subfield_order(self) -> int | None:
        return self.characteristic if self.characteristic else None

    def elements(self):
        """All field elements in sort-key order (finite fields only)."""
        raise InfiniteField(f"{self} is infinite")

    def parse(self, text: str) -> FieldElement:
        return FieldElement(self, self._parse(text))

    def to_text(self) -> str:
        raise NotImplementedError

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return self.to_text()


class PrimeField(FieldDescriptor):
    """F_p for a prime p; elements are residues in [0, p)."""

    kind = "prime"
    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.order = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def _canon(self, v):
        if isinstance(v, FieldElement):
            if v.field != self:
                raise DescriptorMismatch(f"{v.field} element given to {self}")
            return v.value
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

    def _is_square(self, a):
        if a == 0 or self.p == 2:
            return True
        return pow(a, (self.p - 1) // 2, self.p) == 1

    def _sqrt(self, a):
        # canonical choice: the root in [0, (p-1)/2]
        r = _tonelli_shanks(a, self.p)
        return min(r, (self.p - r) % self.p)

    def _in_prime_subfield(self, a):
        return True

    def _is_prime_subfield_square(self, a):
        return self._is_square(a)

    def _prime_sqrt(self, a):
        return self._sqrt(a)

    def _sort_key(self, a):
        return a

    def _format(self, a):
        return str(a)

    def _parse(self, text):
        return int(text.strip()) % self.p

    def elements(self):
        for a in range(self.p):
            yield FieldElement(self, a)

    def to_text(self):
        return f"Fp:{self.p}"


def _tonelli_shanks(a: int, p: int) -> int:
    """One square root of a quadratic residue a modulo the prime p."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
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


_POLY_RE = re.compile(
    r"^x\^2(?:\+(?P<c1>\d*)x)?(?:\+(?P<c0>\d+))?$"
)


class QuadraticExtension(FieldDescriptor):
    """F_p[a]/(f) for f monic of degree 2 and irreducible over F_p.

    The modulus is f = x^2 + c1*x + c0 and elements are pairs (c0, c1)
    standing for c0 + c1*a, both coefficients reduced modulo p.
    Irreducibility is verified at construction by scanning the p
    residues for a root.
    """

    kind = "quadratic"
    __slots__ = ("p", "f0", "f1")

    def __init__(self, p: int, f: tuple[int, int]):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        f0, f1 = int(f[0]) % p, int(f[1]) % p
        for x in range(p):
            if (x * x + f1 * x + f0) % p == 0:
                raise ValueError(
                    f"x^2 + {f1}x + {f0} has root {x} mod {p}; not irreducible"
                )
        self.p = p
        self.f0 = f0
        self.f1 = f1
        self.characteristic = p
        self.order = p * p

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticExtension)
            and (other.p, other.f0, other.f1) == (self.p, self.f0, self.f1)
        )

    def __hash__(self):
        return hash(("quadratic", self.p, self.f0, self.f1))

    def _canon(self, v):
        if isinstance(v, FieldElement):
            if v.field != self:
                raise DescriptorMismatch(f"{v.field} element given to {self}")
            return v.value
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
        result = (1, 0)
        while n:
            if n & 1:
                result = self._mul(result, a)
            a = self._mul(a, a)
            n >>= 1
        return result

    def _is_square(self, a):
        if a == (0, 0) or self.p == 2:
            return True
        return self._pow(a, (self.order - 1) // 2) == (1, 0)

    def _sqrt(self, a):
        if a == (0, 0):
            return (0, 0)
        if self.p == 2:
            # Frobenius is bijective: root = a^(|F|/2)
            return self._pow(a, self.order // 2)
        r = self._tonelli(a)
        # canonical choice: lexicographically smaller of the two roots
        return min(r, self._neg(r))

    def _tonelli(self, a):
        n = self.order
        q, s = n - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = next(v for v in self._raw_elements() if v != (0, 0) and not self._is_square(v))
        c = self._pow(z, q)
        x = self._pow(a, (q + 1) // 2)
        t = self._pow(a, q)
        m = s
        while t != (1, 0):
            i, e = 0, t
            while e != (1, 0):
                e = self._mul(e, e)
                i += 1
            b = self._pow(c, 1 << (m - i - 1))
            x = self._mul(x, b)
            c = self._mul(b, b)
            t = self._mul(t, c)
            m = i
        return x

    def _in_prime_subfield(self, a):
        return a[1] == 0

    def _is_prime_subfield_square(self, a):
        if a[1] != 0:
            return False
        c0, p = a[0], self.p
        if c0 == 0 or p == 2:
            return True
        return pow(c0, (p - 1) // 2, p) == 1

    def _prime_sqrt(self, a):
        r = _tonelli_shanks(a[0], self.p)
        return (min(r, (self.p - r) % self.p), 0)

    def _sort_key(self, a):
        return a

    def _format(self, a):
        c0, c1 = a
        if c1 == 0:
            return str(c0)
        term = "a" if c1 == 1 else f"{c1}a"
        return term if c0 == 0 else f"{c0}+{term}"

    _ELT_RE = re.compile(r"^(?:(?P<c0>-?\d+)\+)?(?:(?P<c1>-?\d*)a)?$")

    def _parse(self, text):
        s = text.strip().replace(" ", "")
        if "a" not in s:
            return (int(s) % self.p, 0)
        m = self._ELT_RE.match(s)
        if not m or m.group("c1") is None:
            raise ValueError(f"cannot parse {text!r} as an element of {self}")
        c0 = int(m.group("c0")) if m.group("c0") else 0
        c1_txt = m.group("c1")
        c1 = 1 if c1_txt in ("", "+") else -1 if c1_txt == "-" else int(c1_txt)
        return (c0 % self.p, c1 % self.p)

    def _raw_elements(self):
        for c0 in range(self.p):
            for c1 in range(self.p):
                yield (c0, c1)

    def elements(self):
        for v in self._raw_elements():
            yield FieldElement(self, v)

    def to_text(self):
        poly = "x^2"
        if self.f1 == 1:
            poly += "+x"
        elif self.f1:
            poly += f"+{self.f1}x"
        if self.f0:
            poly += f"+{self.f0}"
        return f"Fp2:{self.p},{poly}"


class Rationals(FieldDescriptor):
    """The rational numbers; elements are reduced Fractions."""

    kind = "rationals"
    __slots__ = ()
    characteristic = 0
    order = None

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def _canon(self, v):
        if isinstance(v, FieldElement):
            if v.field != self:
                raise DescriptorMismatch(f"{v.field} element given to {self}")
            return v.value
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

    def _is_square(self, a):
        if a < 0:
            return False
        n, d = a.numerator, a.denominator
        return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d

    def _sqrt(self, a):
        # canonical choice: the nonnegative root
        return Fraction(math.isqrt(a.numerator), math.isqrt(a.denominator))

    def _in_prime_subfield(self, a):
        return True

    def _is_prime_subfield_square(self, a):
        return self._is_square(a)

    def _prime_sqrt(self, a):
        return self._sqrt(a)

    def _sort_key(self, a):
        return a

    def _format(self, a):
        return str(a)

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
    return field(-1).is_square()


def parse_descriptor(text: str) -> FieldDescriptor:
    """Parse the descriptor syntax ``Fp:7``, ``Fp2:7,x^2+1``, or ``Q``."""
    s = text.strip()
    if s == "Q":
        return Rationals()
    if s.startswith("Fp2:"):
        body = s[4:]
        try:
            p_txt, poly = body.split(",", 1)
        except ValueError:
            raise ValueError(f"bad quadratic descriptor {text!r}") from None
        m = _POLY_RE.match(poly.replace(" ", ""))
        if not m:
            raise ValueError(f"bad modulus polynomial in {text!r}")
        c1_txt = m.group("c1")
        c1 = 0 if c1_txt is None else (1 if c1_txt == "" else int(c1_txt))
        c0 = int(m.group("c0") or 0)
        return QuadraticExtension(int(p_txt), (c0, c1))
    if s.startswith("Fp:"):
        return PrimeField(int(s[3:]))
    raise ValueError(f"unknown field descriptor {text!r}")


def prime_square_values(p: int) -> frozenset:
    """The set of squares in F_p (including 0), as raw residues."""
    return frozenset(x * x % p for x in range((p // 2) + 1))
