"""Diffie-Hellman-style key agreement on the circle rotation group.

Two parties agree on a public base point Q of C((0,0), r), pick private
exponents n and m, exchange Q^n and Q^m, and both arrive at Q^(nm).
An in-process simulation produces the eavesdropper's transcript
(Q, Q^n, Q^m plus both derived secrets for checking) and, on request, a
brute-force discrete-log iteration count as a toy security indicator.

This is a pedagogical protocol simulator, NOT a secure cryptosystem:
the rotation group over F_p embeds into the multiplicative group of
F_{p^2}, so subexponential discrete-log attacks apply, and the hardness
of this discrete-log variant is an unproven conjecture.  Nothing here
is constant-time.

The wire format is a canonical, versioned, length-prefixed binary
layout (magic "CRC1"); decode(encode(x)) reproduces x bit-exactly, and
decode accepts no other bytes.
"""

import dataclasses
import functools
import random
from fractions import Fraction

from .errors import (
    CircleMismatch,
    DegenerateBasePoint,
    MalformedMessage,
    ResultTooLarge,
    VersionMismatch,
    WrongFieldKind,
)
from .fields import FieldElement, PrimeField, QuadraticExtension, Rationals
from .plane import Circle, _point
from .rotation import RotationElement, classify_cyclicity, element_order, rot_pow

DEFAULT_EXPONENT_CAP = 64  # small: over Q coordinate digits grow linearly with the exponent product
_DLOG_CAP = 10**7  # brute_force_dlog's most steps: 2.5 s at 0.24 s per 10**6 (Intel Xeon, Python 3.11)


@dataclasses.dataclass(frozen=True)
class ProtocolParams:
    """Public parameters: the circle, a validated base point, exponent cap.

    Over F_p the base point's order is computed and must exceed 4; over
    Q the base must be acyclic (both coordinates nonzero), which rules
    out the four cyclic axis points.  `exponent_cap` (default 64) bounds
    the private exponents drawn over Q, where coordinate digit counts
    grow linearly with the exponent; there it must exceed 2, the least
    exponent drawn.  `order` is the base's order, None over Q.
    """

    base: RotationElement
    exponent_cap: int = DEFAULT_EXPONENT_CAP
    order: int | None = dataclasses.field(init=False)

    def __post_init__(self):
        field = self.base.field
        if not isinstance(field, (PrimeField, Rationals)):
            raise WrongFieldKind("key exchange runs over prime fields or Q")
        order = element_order(self.base) if field.is_finite() else None
        if order is not None and order <= 4:
            raise DegenerateBasePoint(f"base point order {order} <= 4")
        if order is None and self.exponent_cap <= 2:
            raise ValueError(f"exponent_cap must exceed 2 over Q, got {self.exponent_cap}")
        if order is None and (report := classify_cyclicity(self.base)).verdict != "acyclic":
            raise DegenerateBasePoint(f"cyclic base point of order {report.order} over Q")
        object.__setattr__(self, "order", order)

    @property
    def circle(self) -> Circle:
        return self.base.circle

    @property
    def field(self):
        return self.base.field


@dataclasses.dataclass(frozen=True)
class PartyState:
    """One participant: the private exponent and the share sent."""

    exponent: int
    sent: RotationElement


def keygen(params: ProtocolParams, rng_seed: int) -> PartyState:
    """Draw a private exponent from a seeded RNG and compute the share.

    Deterministic per seed.  Over F_p the exponent is uniform on
    [2, order(Q) - 1]; over Q it is uniform on [2, exponent_cap).
    """
    rng = random.Random(rng_seed)
    upper = params.order if params.order is not None else params.exponent_cap
    exponent = rng.randrange(2, upper)
    return PartyState(exponent=exponent, sent=rot_pow(params.base, exponent))


def derive_shared(me: PartyState, peer_sent: RotationElement) -> RotationElement:
    """The shared secret: the peer's share raised to the private exponent."""
    if peer_sent.circle != me.sent.circle:
        raise CircleMismatch("peer share lives on a different circle")
    return rot_pow(peer_sent, me.exponent)


def brute_force_dlog(base: RotationElement, target: RotationElement, cap: int) -> int | None:
    """Iterations of repeated multiplication needed to hit `target` (<= cap).

    None when no power base^k with k <= cap equals the target, and so
    always for a target on another circle.  The products and comparisons
    are taken on the circle's torus values (one field product per step
    where -1 is a square).  A cap above 10**7 raises ResultTooLarge
    before the first step.
    """
    if cap > _DLOG_CAP:
        raise ResultTooLarge(f"a dlog cap of {cap} exceeds the bound {_DLOG_CAP}")
    if target.circle != base.circle:
        return None
    t, step = base._on_torus()
    goal = target._on_torus()[1]
    mul, same = t.mul, t.same
    acc = step
    for k in range(1, cap + 1):
        if same(acc, goal):
            return k
        acc = mul(acc, step)
    return None


@dataclasses.dataclass(frozen=True)
class Transcript:
    """Everything that crossed the (simulated) wire, plus the check bit.

    `equal` is not passed in: it is whether the two shared secrets
    agree, compared once when the transcript is made.  Frozen, so the
    bit cannot go stale.
    """

    base: RotationElement
    sent_a: RotationElement
    sent_b: RotationElement
    shared_a: RotationElement
    shared_b: RotationElement
    equal: bool = dataclasses.field(init=False)
    dlog_iterations: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "equal", self.shared_a == self.shared_b)


def simulate_exchange(
    params: ProtocolParams,
    seed_a: int,
    seed_b: int,
    dlog_cap: int = 0,
) -> Transcript:
    """Run both parties against each other and return the transcript.

    The parties interact only through the exchanged group elements, so
    the run replays deterministically from the two seeds.  With
    dlog_cap > 0 (finite fields only) the eavesdropper's brute-force
    recovery of A's exponent is attempted for that many iterations.
    """
    a = keygen(params, seed_a)
    b = keygen(params, seed_b)
    shared_a = derive_shared(a, b.sent)
    shared_b = derive_shared(b, a.sent)
    dlog = None
    if dlog_cap > 0 and params.field.is_finite():
        dlog = brute_force_dlog(params.base, a.sent, dlog_cap)
    return Transcript(
        base=params.base,
        sent_a=a.sent,
        sent_b=b.sent,
        shared_a=shared_a,
        shared_b=shared_b,
        dlog_iterations=dlog,
    )


# --- wire format -----------------------------------------------------------

MAGIC = b"CRC1"
WIRE_VERSION = 1

_TAG_ELEMENT = 1
_TAG_ROTATION = 2
_TAG_TRANSCRIPT = 3

_KIND_PRIME = 0
_KIND_QUADRATIC = 1
_KIND_RATIONALS = 2


def _pack_uint(n: int) -> bytes:
    body = n.to_bytes((n.bit_length() + 7) // 8, "big") if n else b""
    return len(body).to_bytes(4, "big") + body


def _pack_value(field, value) -> bytes:
    if isinstance(field, PrimeField):
        return _pack_uint(value)
    if isinstance(field, QuadraticExtension):
        return _pack_uint(value[0]) + _pack_uint(value[1])
    sign = b"\x01" if value < 0 else b"\x00"
    return sign + _pack_uint(abs(value.numerator)) + _pack_uint(value.denominator)


def _pack_descriptor(field) -> bytes:
    if isinstance(field, PrimeField):
        return bytes([_KIND_PRIME]) + _pack_uint(field.p)
    if isinstance(field, QuadraticExtension):
        return bytes([_KIND_QUADRATIC]) + _pack_uint(field.p) + _pack_uint(field.f0) + _pack_uint(field.f1)
    return bytes([_KIND_RATIONALS])


# the points after the descriptor and the value, by tag (layout in decode)
_POINTS = {_TAG_ELEMENT: 0, _TAG_ROTATION: 1, _TAG_TRANSCRIPT: 5}


def encode(obj) -> bytes:
    """Serialize a FieldElement, RotationElement, or Transcript (layout in `decode`)."""
    if isinstance(obj, FieldElement):
        tag, field, value, elements = _TAG_ELEMENT, obj.field, obj.value, ()
    elif isinstance(obj, RotationElement):
        tag, field, value, elements = _TAG_ROTATION, obj.field, obj.circle.radius.value, (obj,)
    elif isinstance(obj, Transcript):
        tag, field, value = _TAG_TRANSCRIPT, obj.base.field, obj.base.circle.radius.value
        elements = (obj.base, obj.sent_a, obj.sent_b, obj.shared_a, obj.shared_b)
    else:
        raise TypeError(f"cannot encode {type(obj).__name__}")
    out = bytearray((*MAGIC, WIRE_VERSION, tag))
    out += _pack_descriptor(field)
    out += _pack_value(field, value)
    for e in elements:
        for v in e.point._xy:
            out += _pack_value(field, v)
    if tag == _TAG_TRANSCRIPT:
        out.append(obj.equal)
    return bytes(out)


# decode's canonicity check re-encodes through this private name, so a
# hook on the public `encode` (a tracer, a profiler) sees only sent messages
_encode = encode


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise MalformedMessage("truncated buffer")
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]

    def uint(self) -> int:
        n = int.from_bytes(self.take(4), "big")
        return int.from_bytes(self.take(n), "big")

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise MalformedMessage(f"{len(self.buf) - self.pos} trailing bytes")


def _read_descriptor(r: _Reader):
    kind = r.byte()
    if kind == _KIND_RATIONALS:
        return Rationals()
    if kind not in (_KIND_PRIME, _KIND_QUADRATIC):
        raise MalformedMessage(f"unknown field kind tag {kind}")
    p = r.uint()
    f0, f1 = (r.uint(), r.uint()) if kind == _KIND_QUADRATIC else (0, 0)
    return _wire_descriptor(kind, p, f0, f1)


@functools.lru_cache(maxsize=64)
def _wire_descriptor(kind: int, p: int, f0: int, f1: int):
    """The finite field a message names, built and checked once per distinct wire values.

    Messages over one field share its descriptor, which is safe only because
    descriptors are frozen.  A bad p or modulus raises, and caches nothing.
    """
    try:
        return PrimeField(p) if kind == _KIND_PRIME else QuadraticExtension(p, (f0, f1))
    except ValueError as exc:  # composite p or reducible modulus
        raise MalformedMessage(f"bad field descriptor: {exc}") from None


def _read_value(r: _Reader, field):
    """One raw value of `field`, reduced; decode's re-encode refuses an unreduced one."""
    if isinstance(field, PrimeField):
        return field._canon(r.uint())
    if isinstance(field, QuadraticExtension):
        return field._canon((r.uint(), r.uint()))  # c0, then c1
    sign = r.byte()
    if sign not in (0, 1):
        raise MalformedMessage(f"bad sign byte {sign}")
    num = r.uint()
    den = r.uint()
    if den == 0:
        raise MalformedMessage("zero denominator")
    return Fraction(-num if sign else num, den)


def decode(buf: bytes):
    """Inverse of encode; raises MalformedMessage / VersionMismatch.

    Every message is "CRC1", version 1, a tag (1 element, 2 rotation
    element, 3 transcript), the field descriptor, one value (the
    element, or the radius), 0, 1 or 5 points (x, y), and a transcript's
    `equal` byte.  It is read whole before any circle is built, so a
    truncated or padded one is malformed; then a radius of 0 raises
    ZeroRadius, and a point off its circle PointNotOnCircle.

    Only canonical encodings are accepted: anything that parses but
    encodes back to other bytes (an unreduced residue or fraction, a
    negative zero, a zero-padded length prefix, an `equal` byte that is
    not whether the decoded shares agree) is rejected.
    """
    result = _parse(buf)
    if _encode(result) != buf:
        raise MalformedMessage("non-canonical encoding")
    return result


def _parse(buf: bytes):
    r = _Reader(buf)
    if r.take(4) != MAGIC:
        raise MalformedMessage("bad magic")
    version = r.byte()
    if version != WIRE_VERSION:
        raise VersionMismatch(f"wire version {version}, expected {WIRE_VERSION}")
    tag = r.byte()
    points = _POINTS.get(tag)
    if points is None:
        raise MalformedMessage(f"unknown message tag {tag}")
    field = _read_descriptor(r)
    value = FieldElement(field, _read_value(r, field))
    coords = [_read_value(r, field) for _ in range(2 * points)]
    if tag == _TAG_TRANSCRIPT:
        r.byte()  # `equal` is derived from the shares; the re-encode checks this byte
    r.done()
    if not points:
        return value
    circle = Circle(_point(field, (field._zero, field._zero)), value)
    xy = iter(coords)
    elements = (RotationElement(circle, _point(field, pair)) for pair in zip(xy, xy))
    return next(elements) if points == 1 else Transcript(*elements)
