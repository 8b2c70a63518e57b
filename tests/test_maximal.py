import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, islice, product

import pytest

import circlering
from circlering.errors import (
    CircleTooLarge,
    InfiniteField,
    NotPerfect,
    RadiusSquaredNotInPrimeField,
    WrongFieldKind,
    ZeroRadius,
)
from circlering.fields import FieldElement, PrimeField, QuadraticExtension, Rationals, primes_up_to
from circlering.maximal import (
    CircularPointSet,
    SetStatus,
    _parametrized_perfect,
    check_acp,
    cmaximal_cardinality,
    enumerate_emaximal_sets,
    grow_maximal_set,
    is_perfect_distance,
    is_rational_distance,
    iter_maximal_points,
    iter_perfect_distances,
    partition_prime_field_circle,
    partition_rational_circle_points,
    perfect_distance_report,
    perfect_distances,
    points_at_distance,
)
from circlering.plane import (
    AT_INFINITY,
    Circle,
    PlanePoint,
    circle,
    enumerate_circle,
    point,
    point_from_parameter,
    squared_distance,
)

from oracles import (
    brute_circle_prime,
    brute_circle_quadratic,
    check_uniformity,
    connected_components,
    field_elements,
    least_rational_partner,
    maximal_cliques_through,
    parametrized_perfect_full_walk,
    perfect_distances_by_triangles,
    point_at_distance,
    points_have_uniformity,
    quadratic_mul,
    quadratic_squared_distance,
    rational_triangle_sides,
    rationality_graph_prime,
    rationality_graph_quadratic,
    squares_of,
)
from circlering.rotation import rot_mul, rot_sqrt, rotation_element
from circlering.sweeps import _extension_modulus

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F13 = PrimeField(13)
F49 = QuadraticExtension(7, (1, 0))
Q = Rationals()

C7 = circle(F7, (0, 0), 1)
C13 = circle(F13, (7, 11), 6)
C49 = circle(F49, (0, 0), 1)
SEED49 = point(F49, (4, 1), (2, 5))  # a+4, 5a+2


def test_is_rational_distance_examples():
    assert is_rational_distance(C7, point(F7, 0, 1), point(F7, 1, 0))  # D^2 = 2
    assert not is_rational_distance(C7, point(F7, 0, 1), point(F7, 2, 2))  # D^2 = 5
    other = point(F49, (0, 5), (0, 4))  # 5a, 4a
    assert squared_distance(SEED49, other) == F49(3)
    assert not is_rational_distance(C49, SEED49, other)


def test_partition_golden_f7():
    a, b = partition_prime_field_circle(C7)
    coords = lambda s: {(p.x.value, p.y.value) for p in s}
    assert coords(b) == {(0, 1), (0, 6), (1, 0), (6, 0)}  # marker class
    assert coords(a) == {(2, 2), (2, 5), (5, 2), (5, 5)}
    assert point_from_parameter(C7, AT_INFINITY) in b
    assert {d.value for d in a.distance_values()} <= {2, 4}
    assert {d.value for d in b.distance_values()} <= {2, 4}


def test_partition_golden_f13_and_f3():
    a, b = partition_prime_field_circle(C13)
    assert len(a) == len(b) == 6
    occurring = {d.value for d in a.distance_values() | b.distance_values()}
    assert occurring == {1, 4, 10}
    a3, b3 = partition_prime_field_circle(circle(F3, (0, 0), 1))
    assert len(a3) == len(b3) == 2
    with pytest.raises(WrongFieldKind):
        partition_prime_field_circle(C49)
    with pytest.raises(WrongFieldKind):
        partition_prime_field_circle(circle(PrimeField(2), (0, 0), 1))


def test_partition_matches_graph_components():
    for p in [p for p in primes_up_to(31) if p % 2]:
        field = PrimeField(p)
        for r in range(1, p):
            c = circle(field, (0, 0), r)
            got_a, got_b = partition_prime_field_circle(c)
            pts = sorted(brute_circle_prime(p, 0, 0, r))
            adj = rationality_graph_prime(p, pts)
            comps = connected_components(adj)
            comp_sets = {frozenset(pts[i] for i in comp) for comp in comps}
            lib_sets = {
                frozenset((q.x.value, q.y.value) for q in s) for s in (got_a, got_b)
            }
            assert comp_sets == lib_sets
            # each component is a clique
            for comp in comps:
                mask = sum(1 << i for i in comp)
                for i in comp:
                    assert adj[i] & mask == mask ^ (1 << i)


def test_partition_matches_square_set_oracle(rng):
    # off-origin circles of radius 1, 2, p - 1 and the least non-square: the second class
    # is the marker (m1, m2 + r) and every point at a square distance from it
    for p in [p for p in primes_up_to(61) if p % 2]:
        field, squares = PrimeField(p), squares_of(p)
        m1, m2 = rng.randrange(1, p), rng.randrange(p)
        non_square = min(z for z in range(2, p) if z not in squares)
        for r in sorted({1, 2, p - 1, non_square}):
            marker = (m1, (m2 + r) % p)
            first, second = set(), set()
            for x, y in brute_circle_prime(p, m1, m2, r):
                rational = ((x - marker[0]) ** 2 + (y - marker[1]) ** 2) % p in squares
                (second if rational else first).add((x, y))
            got = partition_prime_field_circle(circle(field, (m1, m2), r))
            assert [{(q.x.value, q.y.value) for q in s} for s in got] == [first, second], (p, m1, m2, r)


def test_partition_rational_cosets():
    c = circle(Q, (0, 0), 1)
    sample = [Fraction(0), Fraction(3, 4), Fraction(4, 3), Fraction(1), AT_INFINITY, Fraction(7)]
    groups = partition_rational_circle_points(c, sample)
    assert sorted(groups) == [1, 2]
    assert len(groups[1]) == 4  # t = 0, 3/4, 4/3 and the marker
    assert len(groups[2]) == 2  # t^2 + 1 in {2, 50}
    inside = groups[1].points
    for i, p in enumerate(inside):
        for q2 in inside[i + 1 :]:
            assert squared_distance(p, q2).is_prime_subfield_square()
    for p in groups[1]:
        for q2 in groups[2]:
            assert not squared_distance(p, q2).is_prime_subfield_square()


def test_check_acp_examples():
    assert check_acp(C7, F7(2))  # 1 - 2/4 = 4, a square
    assert not check_acp(C7, F7(1))  # 1 - 1/4 = 6, not a square
    c5 = circle(F5, (0, 0), 1)
    assert check_acp(c5, F5(4))  # satisfies (*) yet is not perfect there
    assert not is_perfect_distance(c5, F5(4))


def test_perfect_distances_golden():
    assert {q.value for q in perfect_distances(C7)} == {2, 4}
    # witnesses: (A, g_q, g_q^-1) with A = (r, 0); for q = 4r^2 the antipodes
    # and the first point at the first other perfect distance from A
    a = point(F7, 1, 0)
    assert perfect_distances(C7) == {
        F7(2): (a, point(F7, 0, 1), point(F7, 0, 6)),
        F7(4): (a, point(F7, 6, 0), point(F7, 0, 1)),
    }
    # off the origin: A = (m1 + r, m2), then the points at q from A in points_at_distance order
    a = point(F7, 2, 2)
    assert perfect_distances(circle(F7, (1, 2), 1)) == {
        F7(2): (a, point(F7, 1, 1), point(F7, 1, 3)),
        F7(4): (a, point(F7, 0, 2), point(F7, 1, 1)),
    }
    assert perfect_distances(circle(F5, (0, 0), 1)) == {}
    for r in range(1, 5):
        assert perfect_distances(circle(F5, (0, 0), r)) == {}
    assert {q.value for q in perfect_distances(circle(F3, (0, 0), 1))} == set()


def test_witness_points_are_checked_at_their_distance(monkeypatch):
    # a second point at q that is another circle point, -(A g_q^-1) at 4r^2 - q, is caught
    rotations = circlering.maximal._rotations

    def second_mirrored(c, base):
        at = rotations(c, base)
        return lambda q: [at(q)[0], tuple(-v % 13 for v in at(q)[1])]

    monkeypatch.setattr(circlering.maximal, "_rotations", second_mirrored)
    with pytest.raises(AssertionError, match="is at 12, not 4"):
        perfect_distance_report(circle(F13, (0, 0), 2), 4)


def test_perfect_distances_match_triangle_oracle():
    # the perfect distances, and whether 4r^2 is one and its witness, against
    # exhaustive rational triangles in the oracles' own arithmetic
    cases = []
    for p in [p for p in primes_up_to(31) if p % 2]:
        sq = squares_of(p)
        for center in ((0, 0), (1, 2)):
            for r in range(1, p):
                cases.append((circle(PrimeField(p), center, r), brute_circle_prime(p, *center, r),
                              lambda a, b, p=p: ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) % p,
                              sq.__contains__, 4 * r * r % p))
    for field in (QuadraticExtension(3, (1, 0)), QuadraticExtension(5, (3, 0))):
        p, f = field.p, (field.f0, field.f1)
        sq = squares_of(p)
        for center in (((0, 0), (0, 0)), ((1, 0), (2, 0))):
            for r in product(range(p), repeat=2):
                r2 = quadratic_mul(p, f, r, r)
                if r == (0, 0) or r2[1]:  # r^2 outside the prime subfield
                    continue
                cases.append((circle(field, center, r), brute_circle_quadratic(p, f, center, r),
                              lambda a, b, p=p, f=f: quadratic_squared_distance(p, f, a, b),
                              lambda v, sq=sq: v[1] == 0 and v[0] in sq,
                              quadratic_mul(p, f, (4, 0), r2)))
    without_4r2 = set()
    for c, pts, distance, rational, four_r2 in cases:
        expected = rational_triangle_sides(pts, distance, rational)
        assert {q.value for q in perfect_distances(c)} == expected, c
        assert is_perfect_distance(c, four_r2) == (four_r2 in expected), c
        witness = perfect_distance_report(c, four_r2).witness
        if four_r2 not in expected:
            assert witness is None, c
            without_4r2.add((c.field.to_text(), str(c.radius)))
            continue
        raw = [(w.x.value, w.y.value) for w in witness]
        sides = [distance(a, b) for a, b in combinations(raw, 2)]
        assert len(set(raw)) == 3 and set(raw) <= pts, c
        assert all(map(rational, sides)) and four_r2 in sides, c
    # r^2 = 1 over F_5, F_9 and F_25: no parametrized perfect distance, so no 4r^2 either
    assert {("Fp:5", "1"), ("Fp2:3,x^2+1", "1"), ("Fp2:5,x^2+3", "1")} <= without_4r2


def test_parameter_walk_stops_halfway():
    # -t names the distance t does, so t = 1, ..., (p - 1)/2 yields the
    # stream of the full walk, in the same order
    fields = [PrimeField(p) for p in primes_up_to(61) if p % 2]
    fields += [QuadraticExtension(p, _extension_modulus(p)) for p in (3, 5, 7, 11, 13)]
    for field in fields:
        for r in field_elements(field):
            if r.is_zero():
                continue
            c = Circle(PlanePoint(field.zero, field.zero), r)
            assert list(_parametrized_perfect(c)) == parametrized_perfect_full_walk(c), c


def test_perfect_witnesses_are_rational_triangles():
    for c in (C7, C13, C49, circle(PrimeField(11), (3, 1), 5)):
        for q, (p1, p2, p3) in perfect_distances(c).items():
            assert len({p1, p2, p3}) == 3
            pairs = [(p1, p2), (p1, p3), (p2, p3)]
            assert any(squared_distance(a, b) == q for a, b in pairs)
            for a, b in pairs:
                assert squared_distance(a, b).is_prime_subfield_square()


def test_perfect_distances_errors():
    r_ext = F49((1, 1))  # r^2 = 2a, outside F_7
    c = Circle(PlanePoint(F49.zero, F49.zero), r_ext)
    with pytest.raises(RadiusSquaredNotInPrimeField):
        perfect_distances(c)
    with pytest.raises(InfiniteField):
        perfect_distances(circle(Q, (0, 0), 1))
    # every perfect-distance entry point refuses characteristic 2 alike,
    # where 4r^2 = 0; over F_4 with r = a this comes before r^2 = a + 1
    # is found outside the prime subfield
    f4 = QuadraticExtension(2, (1, 1))
    for c in (circle(PrimeField(2), (0, 0), 1), circle(f4, (0, 0), 1), circle(f4, (0, 0), (0, 1))):
        seed = enumerate_circle(c)[0]
        for call in (lambda: check_acp(c, 1), lambda: points_at_distance(c, seed, 1),
                     lambda: is_perfect_distance(c, 1), lambda: perfect_distance_report(c, 1),
                     lambda: perfect_distances(c), lambda: next(iter_perfect_distances(c))):
            with pytest.raises(WrongFieldKind):
                call()


def test_iter_perfect_distances_over_q():
    c = circle(Q, (0, 0), 2)
    first = list(islice(iter_perfect_distances(c), 12))
    values = {q.value for q, _ in first}
    assert Fraction(16) in values  # 4r^2 leads the stream
    assert Fraction(144, 25) in values  # (12/5)^2, reached at t = 2/3
    for q, (p1, p2, p3) in first:
        for a, b in ((p1, p2), (p1, p3), (p2, p3)):
            assert squared_distance(a, b).is_square()
        assert any(squared_distance(a, b) == q for a, b in ((p1, p2), (p1, p3), (p2, p3)))


def test_points_at_distance():
    # q = 4r^2 reaches only the antipode
    base = point(F7, 0, 6)
    four_r2 = F7(4)
    pts = points_at_distance(C7, base, four_r2)
    assert pts == [point(F7, 0, 1)]
    # q = 2 from (0,6)
    assert points_at_distance(C7, base, F7(2)) == [point(F7, 1, 0), point(F7, 6, 0)]
    # F_13 example circle: base (7,5), q = 4 gives exactly two points,
    # matching an exhaustive scan
    base13 = point(F13, 7, 5)
    got = points_at_distance(C13, base13, F13(4))
    scan = [
        p
        for p in enumerate_circle(C13)
        if squared_distance(p, base13) == F13(4)
    ]
    assert got == scan and len(got) == 2
    with pytest.raises(NotPerfect):
        points_at_distance(C7, base, F7(1))
    # from every seed and for every perfect q, the result is the sorted
    # brute scan of the circle in the oracles' own residue arithmetic
    cases = []
    for p in [p for p in primes_up_to(31) if p % 2]:
        for center in ((0, 0), (1, 2)):
            for r in (1, 2):
                pts = brute_circle_prime(p, *center, r)
                cases.append((circle(PrimeField(p), center, r), pts, perfect_distances_by_triangles(p, r),
                              lambda a, b, p=p: ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) % p))
    for field in (QuadraticExtension(3, (1, 0)), F49):
        p, f = field.p, (field.f0, field.f1)
        for center in (((0, 0), (0, 0)), ((1, 0), (2, 0))):
            for r in ((1, 0), (2, 0)):
                c = circle(field, center, r)
                pts = brute_circle_quadratic(p, f, center, r)
                cases.append((c, pts, {q.value for q in perfect_distances(c)},
                              lambda a, b, p=p, f=f: quadratic_squared_distance(p, f, a, b)))
    for c, pts, perfect, distance in cases:
        assert {(s.x.value, s.y.value) for s in enumerate_circle(c)} == pts
        for seed in sorted(pts):
            for q in sorted(perfect):
                got = points_at_distance(c, point(c.field, *seed), q)
                scan = sorted(pt for pt in pts if distance(seed, pt) == q)
                assert [(s.x.value, s.y.value) for s in got] == scan, (c, seed, q)


def test_growth_is_rotation():
    # on an origin-centred circle the points at a perfect q from B are B G and
    # B G^-1, for any circle point G at squared distance q from the identity
    # (r, 0): products of the rotation module, G found by an oracle scan
    cases = []
    for p in [p for p in primes_up_to(31) if p % 2]:
        for r in (1, 2):
            cases.append((PrimeField(p), r, (r % p, 0), brute_circle_prime(p, 0, 0, r),
                          lambda a, b, p=p: ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) % p,
                          squares_of(p)))
    for field in (QuadraticExtension(3, (1, 0)), F49):
        p, f = field.p, (field.f0, field.f1)
        for r in ((1, 0), (2, 0)):
            cases.append((field, r, (r, (0, 0)), brute_circle_quadratic(p, f, ((0, 0), (0, 0)), r),
                          lambda a, b, p=p, f=f: quadratic_squared_distance(p, f, a, b),
                          {(s, 0) for s in squares_of(p)}))
    checked = 0
    for field, r, identity, pts, distance, squares in cases:
        c = circle(field, (field.zero.value, field.zero.value), r)
        for q in sorted(rational_triangle_sides(pts, distance, squares.__contains__)):
            g = rotation_element(c, *point_at_distance(pts, distance, identity, q))
            for b in sorted(pts):
                base = rotation_element(c, *b)
                want = sorted({(e.point.x.value, e.point.y.value)
                               for e in (rot_mul(base, g), rot_mul(base, g.inverse()))})
                got = points_at_distance(c, base.point, q)
                assert [(s.x.value, s.y.value) for s in got] == want, (c, b, q)
                checked += 1
    assert checked > 1000, checked


def test_grow_maximal_set_f49():
    grown = grow_maximal_set(C49, SEED49)
    assert len(grown) == 4
    assert SEED49 in grown
    assert grown.status is SetStatus.C_MAXIMAL
    values = {d.value for d in grown.distance_values()}
    assert values <= {(1, 0), (2, 0), (4, 0)}


def test_grow_maximal_set_f7_matches_partition_class():
    grown = grow_maximal_set(C7, point(F7, 0, 1))
    _, marker_class = partition_prime_field_circle(C7)
    assert set(grown.points) == set(marker_class.points)


def test_grow_maximal_set_fallbacks():
    # F_5: no perfect distances; the best set through any point is a pair
    c5 = circle(F5, (0, 0), 1)
    grown = grow_maximal_set(c5, point(F5, 1, 0))
    assert {(p.x.value, p.y.value) for p in grown} == {(1, 0), (4, 0)}
    # characteristic 2: the whole circle
    c2 = circle(PrimeField(2), (0, 0), 1)
    assert len(grow_maximal_set(c2, point(PrimeField(2), 1, 0))) == 2
    # r^2 outside the prime field: pair search (here F_9 with r = 1+a has none)
    f9 = QuadraticExtension(3, (1, 0))
    c9 = Circle(PlanePoint(f9.zero, f9.zero), f9((1, 1)))
    seed = enumerate_circle(c9)[0]
    assert len(grow_maximal_set(c9, seed)) <= 2


def test_grow_partner_matches_scan():
    # circles without a perfect distance: growth from every seed gives the
    # seed and its least rational partner found by an oracle scan, and the
    # cardinality witness is the marker (0, r) with its least partner
    cases = []
    for p in [p for p in primes_up_to(31) if p % 2]:
        for center in ((0, 0), (1, 2)):
            for r in (1, 2):
                cases.append((circle(PrimeField(p), center, r), brute_circle_prime(p, *center, r),
                              lambda a, b, p=p: ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) % p,
                              squares_of(p)))
    for field in (QuadraticExtension(3, (1, 0)), QuadraticExtension(5, (3, 0)), F49,
                  QuadraticExtension(11, (1, 0)), QuadraticExtension(5, (1, 1)),
                  QuadraticExtension(7, (3, 1))):
        p, f = field.p, (field.f0, field.f1)
        for r in ((1, 0), (2, 0), (0, 1), (1, 1)):
            pts = brute_circle_quadratic(p, f, ((0, 0), (0, 0)), r)
            for m in (0, 1):  # centres (0, 0) and (1, 2), by translation
                cases.append((circle(field, ((m, 0), (2 * m, 0)), r),
                              {(((x[0] + m) % p, x[1]), ((y[0] + 2 * m) % p, y[1])) for x, y in pts},
                              lambda a, b, p=p, f=f: quadratic_squared_distance(p, f, a, b),
                              {(s, 0) for s in squares_of(p)}))
    sizes = []
    for c, pts, distance, squares in cases:
        rational = squares.__contains__
        for seed in sorted(pts):
            grown = [(g.x.value, g.y.value) for g in grow_maximal_set(c, point(c.field, *seed))]
            if len(grown) > 2:
                break  # a pairwise-rational triple: growth went through perfect distances
            partner = least_rational_partner(pts, distance, rational, seed)
            assert grown == sorted({seed} if partner is None else {seed, partner}), (c, seed)
            sizes.append(len(grown))
        if c.center.x.is_zero() and c.center.y.is_zero() and not (c.radius * c.radius).in_prime_subfield():
            marker = (c.center.x.value, c.radius.value)
            partner = least_rational_partner(pts, distance, rational, marker)
            witness = cmaximal_cardinality(c.field, c.radius).witness
            got = witness and [(w.x.value, w.y.value) for w in witness]
            assert got == (partner and [marker, partner]), c
    assert len(sizes) == 960 and set(sizes) == {1, 2}, len(sizes)


def test_single_answers_never_scan_the_circle(monkeypatch):
    # a root, a grown pair, a cardinality witness and a clique search
    # come by formula: none of them lists the circle, here of 516,960,
    # 994,008, 62,710,560 and 39,600 points
    def no_scan(c):
        raise AssertionError(f"{c} was scanned")

    for module in (circlering.rotation, circlering.maximal):
        monkeypatch.setattr(module, "_raw_circle_points", no_scan, raising=False)
    f719 = QuadraticExtension(719, (1, 0))
    c719 = circle(f719, (0, 0), 1)
    assert rot_sqrt(rotation_element(c719, 0, 1)) == rotation_element(c719, 162, 162)
    # r = a has r^2 = 995 + 996a outside F_997, so no perfect distance exists
    f = QuadraticExtension(997, (2, 1))
    c = circle(f, (0, 0), (0, 1))
    marker, partner = point(f, 0, (0, 1)), point(f, (0, 331), (331, 332))
    assert grow_maximal_set(c, marker).points == (marker, partner)
    assert cmaximal_cardinality(f, c.radius).witness == (marker, partner)
    # the same over F_7919[a]/(a^2 + a + 1), where f1 != 0
    f = QuadraticExtension(7919, (1, 1))
    c = circle(f, (0, 0), (0, 1))
    marker = point(f, 0, (0, 1))
    partner = point(f, (4, 2603), (5495, 5496))
    assert grow_maximal_set(c, marker).points == (marker, partner)
    # the clique search over F_{199^2} builds the seed's 197 neighbours from its rotations
    f = QuadraticExtension(199, (1, 0))
    c, seed = circle(f, (0, 0), 1), point(f, 0, 1)
    sets = enumerate_emaximal_sets(c, seed)
    best = [s for s in sets if s.status is SetStatus.C_MAXIMAL]
    assert len(best) == 1 and len(best[0]) == cmaximal_cardinality(f, c.radius).n == 100
    assert best[0] == grow_maximal_set(c, seed)


def test_clique_cap_counts_neighbours(monkeypatch):
    # the cap bounds the seed's neighbours, (p - 1)/2 over F_p and p - 1
    # over F_{p^2}: past it, and over Q, the search is refused before any work
    def no_work(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(circlering.maximal, "_rotations", no_work)
    monkeypatch.setattr(circlering.maximal, "_raw_circle_points", no_work)
    for field in (PrimeField(4099), QuadraticExtension(2053, (2051, 0))):
        with pytest.raises(CircleTooLarge):
            enumerate_emaximal_sets(circle(field, (0, 0), 1), point(field, 0, 1))
    with pytest.raises(InfiniteField):
        enumerate_emaximal_sets(circle(Q, (0, 0), 1), point(Q, 1, 0))


def test_growth_inverts_once(monkeypatch):
    # 1/(2r) and 1/r are fixed for the circle: the partner search over the
    # 3,960 nonzero squares of F_7919 takes them from one inversion
    calls = []
    inv = QuadraticExtension._inv

    def counted(self, a):
        calls.append(a)
        return inv(self, a)

    monkeypatch.setattr(QuadraticExtension, "_inv", counted)
    f = QuadraticExtension(7919, (1, 1))
    c = circle(f, (0, 0), (0, 1))
    marker = point(f, 0, (0, 1))
    assert grow_maximal_set(c, marker).points == (marker, point(f, (4, 2603), (5495, 5496)))
    assert len(calls) <= 2, len(calls)


def test_maximal_stream_repeats_no_point():
    # the stream keeps no record of what it yielded: distinct perfect
    # distances give distinct points, and none is the seed
    for f, r in ((PrimeField(61), 2), (QuadraticExtension(7, (1, 0)), (0, 1))):
        c = circle(f, (1, 2), r)
        seed = enumerate_circle(c)[3]
        pts = list(iter_maximal_points(c, seed))
        assert len(set(pts)) == len(pts) == len(grow_maximal_set(c, seed))


def test_streams_have_no_size_cap():
    # past the enumeration cap the perfect distances and the maximal set
    # still stream item by item; only the calls that build a list refuse
    big = PrimeField(2**61 - 1)
    c = circle(big, (0, 0), 1)
    q, triangle = next(iter_perfect_distances(c))
    assert is_perfect_distance(c, q) and len(triangle) == 3
    stream = iter_maximal_points(c, point(big, 0, 1))
    head = [next(stream) for _ in range(5)]
    for a, b in combinations(head, 2):
        assert is_rational_distance(c, a, b)
    with pytest.raises(CircleTooLarge):
        perfect_distances(c)
    with pytest.raises(CircleTooLarge):
        grow_maximal_set(c, head[0])
    ext = QuadraticExtension(2**61 - 1, (1, 0))
    answer = cmaximal_cardinality(ext, ext((1, 1)))  # r^2 = 2a
    assert answer.kind == "at_most_two" and answer.witness is None


def test_grow_maximal_set_over_q():
    c = circle(Q, (0, 0), 1)
    seed = point(Q, 1, 0)
    grown = grow_maximal_set(c, seed, prefix=24)
    assert grown.is_prefix and len(grown) == 24
    # squares under the rotation map land in this class: the square of the
    # point with parameter t has rational distance to (1, 0)
    for t in (Fraction(2), Fraction(1, 2), Fraction(5, 3)):
        x = 2 * t / (t * t + 1)
        y = (t * t - 1) / (t * t + 1)
        sq = point(Q, x * x - y * y, 2 * x * y)  # complex-squaring of a unit vector
        assert c.contains(sq)
        assert squared_distance(sq, seed).is_square()
    stream = iter_maximal_points(c, seed)
    head = [next(stream) for _ in range(40)]
    assert len(set(head)) == 40
    for i, p in enumerate(head):
        for q2 in head[i + 1 :]:
            assert squared_distance(p, q2).is_square()


def test_no_three_point_sets_when_radius_squared_leaves_prime_field():
    # exhaustive triangle scan over F_{p^2} with r^2 outside F_p
    for p, f in ((3, (1, 0)), (5, (3, 0)), (7, (1, 0)), (11, (1, 0))):
        field = QuadraticExtension(p, f)
        r = field((1, 1))
        if (r * r).in_prime_subfield():
            r = field((2, 1))
        assert not (r * r).in_prime_subfield()
        c = Circle(PlanePoint(field.zero, field.zero), r)
        pts = enumerate_circle(c)
        rational = [
            [squared_distance(a, b).is_prime_subfield_square() for b in pts] for a in pts
        ]
        n = len(pts)
        for i in range(n):
            for j in range(i + 1, n):
                if not rational[i][j]:
                    continue
                for k in range(j + 1, n):
                    assert not (rational[i][k] and rational[j][k]), (p, i, j, k)


def test_enumerate_emaximal_sets():
    sets = enumerate_emaximal_sets(C49, SEED49)
    assert [len(s) for s in sets] == [4, 2, 2]
    assert sets[0].status is SetStatus.C_MAXIMAL
    assert all(s.status is SetStatus.E_MAXIMAL for s in sets[1:])
    assert all(SEED49 in s for s in sets)
    sets7 = enumerate_emaximal_sets(C7, point(F7, 0, 1))
    assert [len(s) for s in sets7] == [4]
    sets3 = enumerate_emaximal_sets(circle(F3, (0, 0), 1), point(F3, 0, 1))
    assert [len(s) for s in sets3] == [2]
    # characteristic 2: every distance is 0, a square, so the one set is the circle
    f4 = QuadraticExtension(2, (1, 1))
    for c in (circle(PrimeField(2), (0, 0), 1), Circle(PlanePoint(f4.zero, f4.zero), f4.one)):
        pts = enumerate_circle(c)
        sets2 = enumerate_emaximal_sets(c, pts[0])
        assert [s.points for s in sets2] == [tuple(pts)]
        assert sets2[0].status is SetStatus.C_MAXIMAL


def test_enumerate_emaximal_sets_past_the_recursion_limit():
    # the one clique through the seed is its whole class of 998 points,
    # a search 998 levels deep
    f = PrimeField(1997)
    c = circle(f, (0, 0), 1)
    seed = point(f, 0, 1)
    sets = enumerate_emaximal_sets(c, seed)
    assert [s.status for s in sets] == [SetStatus.C_MAXIMAL]
    seed_class = next(s for s in partition_prime_field_circle(c) if seed in s)
    assert len(seed_class) == 998 and sets[0].points == seed_class.points


def test_enumerate_emaximal_sets_matches_clique_oracle():
    # from every seed, the maximal cliques through it of the rationality
    # graph on all circle points, built in the oracles' own arithmetic,
    # largest first and then in raw order; the largest are c-maximal
    cases = [(13, None, (5, 9), 1)]
    for p, f in ((3, (1, 0)), (5, (2, 0)), (5, (2, 1)), (7, (1, 0))):
        cases += [(p, f, ((0, 0), (0, 0)), (1, 0)), (p, f, ((1, 2), (2, 0)), (0, 1)),
                  (p, f, ((2, 1), (0, 1)), (1, 1))]
    for p, f, center, r in cases:
        if f is None:
            field = PrimeField(p)
            pts = sorted(brute_circle_prime(p, *center, r))
            adj = rationality_graph_prime(p, pts)
        else:
            field = QuadraticExtension(p, f)
            pts = sorted(brute_circle_quadratic(p, f, center, r))
            adj = rationality_graph_quadratic(p, f, pts)
        c = Circle(point(field, *center), field(r))
        for s, xy in enumerate(pts):
            expected = sorted(([pts[i] for i in clique] for clique in maximal_cliques_through(adj, s)),
                              key=lambda ms: (-len(ms), ms))
            sets = enumerate_emaximal_sets(c, point(field, *xy))
            assert [[(q.x.value, q.y.value) for q in st] for st in sets] == expected, (p, f, center, r, xy)
            best = len(expected[0])
            assert [st.status for st in sets] == [
                SetStatus.C_MAXIMAL if len(ms) == best else SetStatus.E_MAXIMAL for ms in expected
            ]


def test_cmaximal_cardinality_cases():
    assert cmaximal_cardinality(F49, F49(1)).n == 4
    f9 = QuadraticExtension(3, (1, 0))
    assert cmaximal_cardinality(f9, f9((0, 1))).n == 2
    ans = cmaximal_cardinality(f9, f9((1, 1)))
    assert ans.kind == "at_most_two" and ans.witness is None
    f25 = QuadraticExtension(5, (3, 0))
    ans25 = cmaximal_cardinality(f25, f25((1, 1)))
    assert ans25.kind == "at_most_two" and ans25.witness is not None
    assert cmaximal_cardinality(Q, Q(2)).kind == "countably_infinite"
    assert cmaximal_cardinality(PrimeField(2), 1).n == 2
    with pytest.raises(ValueError):
        cmaximal_cardinality(F7, 0)


def test_cmaximal_cardinality_tests_no_primality(monkeypatch):
    # the answer reads whether -1 is a square off the given field, building no new one
    f13, f169 = PrimeField(13), QuadraticExtension(13, (11, 0))

    def no_primality(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(circlering.fields, "is_prime", no_primality)
    assert cmaximal_cardinality(f13, 1).n == cmaximal_cardinality(f13, 2).n == 6
    assert cmaximal_cardinality(f169, 1).n == 6
    assert cmaximal_cardinality(f169, (0, 1)).n == 7  # r = a, r^2 = 2 in F_13


def test_cmaximal_cardinality_refuses_zero_radius():
    for field in (PrimeField(7), QuadraticExtension(7, (1, 0)), Rationals()):
        with pytest.raises(ZeroRadius):
            cmaximal_cardinality(field, 0)


def test_cap_refusals_name_the_characteristic():
    # the cap bounds the characteristic, which bounds the parameter walk
    f = PrimeField(1000003)
    c = circle(f, (0, 0), 1)
    for build in (perfect_distances, lambda c: grow_maximal_set(c, point(f, 1, 0))):
        with pytest.raises(CircleTooLarge, match="characteristic 1000003 exceeds the cap 1000000"):
            build(c)


def test_raw_constructions_build_no_field_element(monkeypatch):
    # enumeration, partition and growth compute on raw pairs and wrap them as points directly
    f = PrimeField(101)
    built = []
    init = FieldElement.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    for center, r in (((0, 0), 1), ((3, 5), 2)):
        c = circle(f, center, r)
        seed = point(f, center[0] + r, center[1])
        monkeypatch.setattr(FieldElement, "__init__", counted)
        pts = enumerate_circle(c)
        classes = partition_prime_field_circle(c)
        grown = grow_maximal_set(c, seed)
        monkeypatch.undo()
        assert built == []
        assert len(pts) == 100 and [len(s) for s in classes] == [50, 50] and len(grown) == 50


def test_grow_from_every_seed_matches_table():
    # the grown set through any seed is pairwise-rational (validated at
    # construction) and always reaches the closed-form cardinality
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        for r in (1, 2):
            c = circle(field, (0, 0), r)
            expected = cmaximal_cardinality(field, field(r)).n
            for seed in enumerate_circle(c):
                assert len(grow_maximal_set(c, seed)) == expected


def test_uniformity():
    assert check_uniformity(C7)
    assert check_uniformity(C13)
    assert check_uniformity(C49)
    parabola = [point(F5, x, x * x % 5) for x in range(5)]
    assert not points_have_uniformity(parabola)


def test_qr_orbit_identity():
    # q_r(t) = q_r(-t) = q_r(r^2/t) for admissible t
    for p in (7, 11, 13):
        field = PrimeField(p)
        for r_val in range(1, p):
            r2 = field(r_val * r_val)
            four = field.from_int(4)

            def q_of(t):
                denom = t * t + r2
                if denom.is_zero():
                    return None
                v = four * t * r2 / denom
                return v * v

            for t_val in range(1, p):
                t = field(t_val)
                q = q_of(t)
                if q is None:
                    continue
                assert q_of(-t) == q
                assert q_of(r2 / t) == q


def test_circular_point_set_validation():
    with pytest.raises(ValueError):
        CircularPointSet(C7, [point(F7, 0, 1), point(F7, 2, 2)])  # distance 5
    with pytest.raises(Exception):
        CircularPointSet(C7, [point(F7, 1, 1)])  # not on the circle
    cq = circle(Q, (0, 0), 1)
    coset1 = [point_from_parameter(cq, t) for t in (Fraction(0), Fraction(3, 4), Fraction(4, 3))]
    CircularPointSet(cq, coset1)
    with pytest.raises(ValueError):  # t = 1 has t^2 + 1 = 2, another coset
        CircularPointSet(cq, coset1 + [point_from_parameter(cq, Fraction(1))])


def test_point_set_validation_matches_clique_oracle(rng):
    # over F_p rationality is a class relation, so the one-point check
    # must accept exactly the cliques of the brute-force rationality graph
    outcomes = set()
    for p in [p for p in primes_up_to(50) if p % 2]:
        field = PrimeField(p)
        for _ in range(2):
            center = (rng.randrange(p), rng.randrange(p))
            c = circle(field, center, rng.randrange(1, p))
            pts = sorted(brute_circle_prime(p, *center, c.radius.value))
            adj = rationality_graph_prime(p, pts)
            for _ in range(12):
                first = rng.randrange(len(pts))
                pool = [first] + [j for j in range(len(pts)) if adj[first] >> j & 1]
                chosen = set(rng.sample(pool, rng.randint(1, min(len(pool), 6))))
                if rng.random() < 0.5:
                    chosen.add(rng.randrange(len(pts)))
                clique = all(adj[i] >> j & 1 for i in chosen for j in chosen if i != j)
                members = [point(field, *pts[i]) for i in chosen]
                try:
                    CircularPointSet(c, members)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == clique, (p, center, sorted(chosen))
                outcomes.add(accepted)
    assert outcomes == {True, False}


def test_point_set_validation_checks_every_pair_over_extensions():
    # (0,1) is rational to both other points, but (0,6)-(a,4) has squared
    # distance a^2 + 4 = 3, a non-square of F_7: checking one point is not enough
    marker, antipode, third = point(F49, 0, 1), point(F49, 0, 6), point(F49, (0, 1), 4)
    assert is_rational_distance(C49, marker, antipode)
    assert is_rational_distance(C49, marker, third)
    assert squared_distance(antipode, third) == F49(3)
    CircularPointSet(C49, [marker, antipode])
    CircularPointSet(C49, [marker, third])
    with pytest.raises(ValueError):
        CircularPointSet(C49, [marker, antipode, third])


def test_invariant_checks_survive_optimize():
    # internal invariants are explicit checks, not asserts that -O strips
    # over F_7 every squared distance reads 1 = r^2, so each built point passes
    # membership and only the check of its distance from the base can refuse it;
    # over Q every point reads at r^2 = 1 and none at 36/25, with the same effect
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import circlering.maximal as m\n"
        "from circlering.fields import PrimeField, Rationals\n"
        "from circlering.plane import circle, point\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(2)\n"
        "f, q = PrimeField(7), Rationals()\n"
        "PrimeField._squared_distance = lambda self, a, b: self._canon(1)\n"
        "Rationals._is_at = lambda self, a, b, v: v == 1\n"
        "for c, base, d in ((circle(f, (0, 0), 1), point(f, 0, 1), 2),\n"
        "                   (circle(q, (0, 0), 1), point(q, 1, 0), Fraction(36, 25))):\n"
        "    try:\n"
        "        m.points_at_distance(c, base, d)\n"
        "        sys.exit(1)\n"
        "    except AssertionError:\n"
        "        pass\n"
    )
    src = os.path.dirname(os.path.dirname(circlering.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert done.returncode == 0
