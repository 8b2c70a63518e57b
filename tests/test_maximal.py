import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice

import pytest

import circlering
from circlering.errors import (
    InfiniteField,
    NotPerfect,
    RadiusSquaredNotInPrimeField,
    WrongFieldKind,
)
from circlering.fields import PrimeField, QuadraticExtension, Rationals, primes_up_to
from circlering.maximal import (
    CircularPointSet,
    SetStatus,
    check_acp,
    check_uniformity,
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
    points_have_uniformity,
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
    connected_components,
    perfect_distances_by_triangles,
    rationality_graph_prime,
)

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
    assert perfect_distances(circle(F5, (0, 0), 1)) == {}
    for r in range(1, 5):
        assert perfect_distances(circle(F5, (0, 0), r)) == {}
    assert {q.value for q in perfect_distances(circle(F3, (0, 0), 1))} == set()


def test_perfect_distances_match_triangle_oracle():
    for p in [p for p in primes_up_to(31) if p % 2]:
        field = PrimeField(p)
        for r in range(1, p):
            got = {q.value for q in perfect_distances(circle(field, (0, 0), r))}
            assert got == perfect_distances_by_triangles(p, r), (p, r)


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
    with pytest.raises(WrongFieldKind):
        perfect_distances(circle(PrimeField(2), (0, 0), 1))
    with pytest.raises(InfiniteField):
        perfect_distances(circle(Q, (0, 0), 1))


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
    script = (
        "import sys\n"
        "import circlering.maximal as m\n"
        "from circlering.fields import PrimeField\n"
        "from circlering.plane import circle, point\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(2)\n"
        "f = PrimeField(7)\n"
        "m.squared_distance = lambda p, q: f(0)\n"
        "try:\n"
        "    m.points_at_distance(circle(f, (0, 0), 1), point(f, 0, 1), 2)\n"
        "except AssertionError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(circlering.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert done.returncode == 0
