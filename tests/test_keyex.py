from fractions import Fraction

import pytest

from circlering.errors import (
    CircleMismatch,
    CircleRingError,
    DegenerateBasePoint,
    MalformedMessage,
    PointNotOnCircle,
    ResultTooLarge,
    VersionMismatch,
    WrongFieldKind,
)
from circlering import fields, keyex
from circlering.fields import PrimeField, QuadraticExtension, Rationals, is_prime, primes_up_to
from circlering.keyex import (
    PartyState,
    ProtocolParams,
    Transcript,
    brute_force_dlog,
    decode,
    derive_shared,
    encode,
    keygen,
    simulate_exchange,
)
from circlering.plane import circle, enumerate_circle, point_from_parameter
from circlering.rotation import RotationElement, rot_pow, rotation_element

from oracles import rot_pow_residues

F13 = PrimeField(13)
Q = Rationals()
C13 = circle(F13, (0, 0), 1)
BASE13 = rotation_element(C13, 2, 6)
BASEQ = rotation_element(circle(Q, (0, 0), 2), Fraction(8, 5), Fraction(6, 5))


def test_params_validation():
    params = ProtocolParams(BASE13)
    assert params.order == 12
    with pytest.raises(DegenerateBasePoint):
        ProtocolParams(rotation_element(C13, 12, 0))  # order 2
    with pytest.raises(DegenerateBasePoint):
        ProtocolParams(rotation_element(circle(Q, (0, 0), 2), 0, 2))  # cyclic
    f49 = QuadraticExtension(7, (1, 0))
    c49 = circle(f49, (0, 0), 1)
    some = enumerate_circle(c49)[5]
    with pytest.raises(WrongFieldKind):
        ProtocolParams(RotationElement(c49, some))
    # exponents over Q are drawn from [2, exponent_cap): a cap of 2 or less
    # leaves none, and is refused here rather than in keygen
    for cap in (2, 0, -5):
        with pytest.raises(ValueError, match="exponent_cap"):
            ProtocolParams(BASEQ, exponent_cap=cap)
    assert keygen(ProtocolParams(BASEQ, exponent_cap=3), 0).exponent == 2
    # over F_p exponents are drawn below the base's order, and the cap is unused
    assert ProtocolParams(BASE13, exponent_cap=2).order == 12


def test_default_exponent_cap_runs_over_q():
    # a cap near 2^64 drew exponents whose powers over Q no one can compute
    params = ProtocolParams(BASEQ)
    assert params.exponent_cap == 64
    for seed in range(4):
        t = simulate_exchange(params, seed, seed + 1)
        assert t.equal and t.shared_a == rot_pow(t.sent_b, keygen(params, seed).exponent)


def test_keygen_deterministic_and_in_range():
    params = ProtocolParams(BASE13)
    a1 = keygen(params, 42)
    a2 = keygen(params, 42)
    assert (a1.exponent, a1.sent) == (a2.exponent, a2.sent)
    for seed in range(30):
        st = keygen(params, seed)
        assert 2 <= st.exponent <= params.order - 1
        assert st.sent == rot_pow(BASE13, st.exponent)
    pq = ProtocolParams(BASEQ, exponent_cap=40)
    st = keygen(pq, 7)
    assert 2 <= st.exponent < 40
    assert st.sent == rot_pow(BASEQ, st.exponent)


def test_known_exponents_shared_secret():
    # n = 2, m = 3: shared secret (2,6)^6 = (12,0)
    a = PartyState(exponent=2, sent=rot_pow(BASE13, 2))
    b = PartyState(exponent=3, sent=rot_pow(BASE13, 3))
    assert a.sent == rotation_element(C13, 7, 11)
    assert b.sent == rotation_element(C13, 0, 12)
    sa = derive_shared(a, b.sent)
    sb = derive_shared(b, a.sent)
    assert sa == sb == rotation_element(C13, 12, 0)
    with pytest.raises(CircleMismatch):
        derive_shared(a, rotation_element(circle(F13, (0, 0), 2), 0, 2))


def test_exponent_blinding_mod_order():
    params = ProtocolParams(BASE13)
    for n in range(2, 30):
        assert rot_pow(BASE13, n) == rot_pow(BASE13, n % params.order + params.order)


def test_simulate_exchange_sweep():
    params = ProtocolParams(BASE13)
    for seed in range(40):
        t = simulate_exchange(params, seed, seed * 31 + 7)
        assert t.equal and t.shared_a == t.shared_b
    # identical seeds still agree (symmetry)
    t = simulate_exchange(params, 5, 5)
    assert t.equal
    pq = ProtocolParams(BASEQ, exponent_cap=24)
    for seed in range(8):
        t = simulate_exchange(pq, seed, seed + 100)
        assert t.equal


def test_brute_force_dlog_cost():
    params = ProtocolParams(BASE13)
    a = keygen(params, 3)
    iters = brute_force_dlog(params.base, a.sent, 20)
    assert iters is not None
    assert rot_pow(BASE13, iters) == a.sent
    t = simulate_exchange(params, 1, 2, dlog_cap=20)
    assert t.dlog_iterations is not None
    # every base and target of small circles, where -1 is a square (13, 17) and
    # where it is not (19): the least k <= cap with base^k = target
    for p in (13, 17, 19):
        for r in (1, 2):
            c = circle(PrimeField(p), (0, 0), r)
            points = [(q.x.value, q.y.value) for q in enumerate_circle(c)]
            cap = len(points)
            for b in points:
                powers = [rot_pow_residues(p, r, b, k) for k in range(1, cap + 1)]
                for target in points:
                    want = powers.index(target) + 1 if target in powers else None
                    got = brute_force_dlog(rotation_element(c, *b), rotation_element(c, *target), cap)
                    assert got == want
    # a target on another circle is never hit, even when its coordinates are
    # those of a power of the base: (1, 0) is BASE13^12 on C13, and it lies
    # on the unit circle over F_17 and on the radius -1 circle over F_13 too
    assert brute_force_dlog(BASE13, rotation_element(C13, 1, 0), 12) == 12
    for other in (circle(PrimeField(17), (0, 0), 1), circle(F13, (0, 0), -1)):
        assert brute_force_dlog(BASE13, rotation_element(other, 1, 0), 12) is None


def test_dlog_cap_is_bounded():
    # 10^7 steps take a few seconds; a larger cap is refused before the first
    target = rot_pow(BASE13, 5)
    assert brute_force_dlog(BASE13, target, 10**7) == 5
    for cap in (10**7 + 1, 10**11):
        with pytest.raises(ResultTooLarge, match="dlog cap"):
            brute_force_dlog(BASE13, target, cap)
    with pytest.raises(ResultTooLarge):
        simulate_exchange(ProtocolParams(BASE13), 1, 2, dlog_cap=10**11)
    # over Q the dlog never runs, so its cap is not checked
    assert simulate_exchange(ProtocolParams(BASEQ), 1, 2, dlog_cap=10**11).dlog_iterations is None


def test_wire_roundtrip_elements(rng):
    f101 = PrimeField(101)
    f49 = QuadraticExtension(7, (1, 0))
    for _ in range(300):
        for e in (
            f101(rng.randrange(101)),
            f49((rng.randrange(7), rng.randrange(7))),
            Q(Fraction(rng.randrange(-999, 1000), rng.randrange(1, 999))),
        ):
            assert decode(encode(e)) == e


def test_wire_roundtrip_rotation_and_transcript(rng):
    params = ProtocolParams(BASE13)
    t = simulate_exchange(params, 9, 10)
    back = decode(encode(t))
    assert isinstance(back, Transcript)
    assert back.base == t.base
    assert back.sent_a == t.sent_a and back.sent_b == t.sent_b
    assert back.shared_a == t.shared_a and back.shared_b == t.shared_b
    assert back.equal == t.equal
    cq = circle(Q, (0, 0), Fraction(5, 3))
    for _ in range(50):
        tparam = Fraction(rng.randrange(-30, 31), rng.randrange(1, 20))
        e = RotationElement(cq, point_from_parameter(cq, tparam))
        assert decode(encode(e)) == e


def test_wire_layout_golden():
    # after the tag: descriptor, one value (element or radius), 0, 1 or 5
    # points, and a transcript's `equal` byte
    head = b"CRC1\x01"
    f13 = b"\x00" + _uint(13)
    assert encode(F13(5)) == head + b"\x01" + f13 + _uint(5)
    assert encode(BASE13) == head + b"\x02" + f13 + _uint(1) + _uint(2) + _uint(6)
    assert encode(BASEQ) == head + b"\x02\x02" + _fraction(2) + _fraction(8, 5) + _fraction(6, 5)
    t = simulate_exchange(ProtocolParams(BASE13), 9, 10)
    points = b"".join(_uint(e.point.x.value) + _uint(e.point.y.value)
                      for e in (t.base, t.sent_a, t.sent_b, t.shared_a, t.shared_b))
    assert encode(t) == head + b"\x03" + f13 + _uint(1) + points + b"\x01"


def test_transcript_equal_is_read_from_its_shares():
    params = ProtocolParams(BASE13)
    t = simulate_exchange(params, 9, 10)
    with pytest.raises(TypeError):
        Transcript(t.base, t.sent_a, t.sent_b, t.shared_a, t.shared_b, equal=False)
    # frozen, so `equal` cannot go stale and encode never writes a byte decode refuses
    with pytest.raises(AttributeError):
        t.shared_b = t.base
    buf = encode(t)
    assert buf[-1] == 1
    # an `equal` byte that contradicts the shares is not canonical
    with pytest.raises(MalformedMessage, match="non-canonical"):
        decode(buf[:-1] + b"\x00")
    # shares that differ make `equal` false, and the byte 1 is refused
    other = Transcript(t.base, t.sent_a, t.sent_b, t.shared_a, t.base)
    assert not other.equal
    wire = encode(other)
    assert wire[-1] == 0 and decode(wire) == other and not decode(wire).equal
    with pytest.raises(MalformedMessage, match="non-canonical"):
        decode(wire[:-1] + b"\x01")


def test_decode_shows_a_huge_point_by_size():
    # radius 1 and the point (10^5000 + 1, 0) over Q: a 2 KB rotation
    # message whose point is off the circle, and too long to print
    buf = b"CRC1\x01\x02\x02" + _fraction(1) + _fraction(10**5000 + 1) + _fraction(0)
    with pytest.raises(PointNotOnCircle) as info:
        decode(buf)
    assert len(str(info.value)) < 200


def test_wire_errors():
    buf = encode(F13(5))
    with pytest.raises(MalformedMessage):
        decode(buf[:-2])
    with pytest.raises(MalformedMessage):
        decode(b"XXXX" + buf[4:])
    with pytest.raises(MalformedMessage):
        decode(buf + b"\x00")
    bad_version = buf[:4] + bytes([99]) + buf[5:]
    with pytest.raises(VersionMismatch):
        decode(bad_version)
    # non-canonical encodings parse but would re-encode to other bytes
    element = b"CRC1\x01\x01"
    non_canonical = [
        element + b"\x00" + _uint(101) + _uint(106),             # 106 as an F_101 residue
        element + b"\x02\x00" + _uint(2) + _uint(4),            # 2/4 over Q
        element + b"\x02\x01" + _uint(0) + _uint(1),            # -0 over Q
        element + b"\x00" + _uint(13) + b"\x00\x00\x00\x02\x00\x05",  # zero-padded length
        encode(simulate_exchange(ProtocolParams(BASE13), 9, 10))[:-1] + b"\x02",  # equal = 2
    ]
    for buf in non_canonical:
        with pytest.raises(MalformedMessage):
            decode(buf)
    # a composite p or a reducible modulus is a malformed message, not a bare ValueError
    for descriptor in (b"\x00" + _uint(15), b"\x01" + _uint(7) + _uint(6) + _uint(0)):
        with pytest.raises(MalformedMessage):
            decode(element + descriptor + _uint(1))


def test_decode_builds_each_field_once(monkeypatch):
    # two transcripts over F_999999999989 test p for primality once; the
    # descriptor is kept by the bounded cache, shared by both messages
    field = PrimeField(999999999989)
    base = rotation_element(circle(field, (0, 0), 1), 799999999992, 599999999994)
    params = ProtocolParams(base)
    bufs = [encode(simulate_exchange(params, seed, seed + 1)) for seed in (1, 2)]
    tested = []
    monkeypatch.setattr(fields, "is_prime", lambda n: tested.append(n) or is_prime(n))
    keyex._wire_descriptor.cache_clear()
    decoded = [decode(buf) for buf in bufs]
    assert tested == [999999999989]
    assert decoded[0].base.field is decoded[1].base.field == field
    # a composite p is refused each time it is read: a failure is not cached
    composite = b"CRC1\x01\x01\x00" + _uint(15) + _uint(1)
    for _ in range(2):
        with pytest.raises(MalformedMessage):
            decode(composite)
    assert tested == [999999999989, 15, 15]


def test_decode_cache_stays_within_its_bound():
    bound = keyex._wire_descriptor.cache_info().maxsize
    primes = primes_up_to(104729)
    assert len(primes) == 10**4
    for p in primes:
        decode(b"CRC1\x01\x01\x00" + _uint(p) + _uint(1))
        assert keyex._wire_descriptor.cache_info().currsize <= bound


def _uint(n: int) -> bytes:
    body = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return len(body).to_bytes(4, "big") + body


def _fraction(num: int, den: int = 1) -> bytes:
    """A nonnegative rational as a wire value: sign byte 0, numerator, denominator."""
    return b"\x00" + _uint(num) + _uint(den)


def test_wire_mutations_roundtrip_or_raise(rng):
    params = ProtocolParams(BASE13)
    f49 = QuadraticExtension(7, (1, 0))
    valid = [
        encode(F13(5)),
        encode(f49((3, 4))),
        encode(Q(Fraction(-7, 12))),
        encode(BASE13),
        encode(BASEQ),
        encode(simulate_exchange(params, 9, 10)),
    ]
    for buf in valid:
        for _ in range(300):
            mutated = bytearray(buf)
            i = rng.randrange(len(mutated))
            action = rng.randrange(3)
            if action == 0:
                mutated[i] = rng.randrange(256)
            elif action == 1:
                mutated.insert(i, rng.randrange(256))
            else:
                del mutated[i]
            mutated = bytes(mutated)
            try:
                back = decode(mutated)
            except CircleRingError:
                continue
            assert encode(back) == mutated
