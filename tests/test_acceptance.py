"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime against the stated budget."""

import json
import random
import time
from fractions import Fraction
from itertools import islice

import pytest

import circlering as cr
from circlering import sweeps
from circlering.cli import main as cli_main

from oracles import identity_power_sweep, perfect_distances_by_triangles

SEED = 20260810


class criterion:
    """Times a block and prints one pass/fail line for it."""

    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.label} exceeded {self.budget}s ({elapsed:.2f}s)"
        return False


def _cli_json(capsys, *argv):
    assert cli_main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_01_f7_golden_example(capsys):
    with criterion("01 F7-golden", 1.0):
        doc = _cli_json(capsys, "circle", "enum", "--field", "Fp:7",
                        "--center", "0,0", "--radius", "1")
        assert doc["count"] == 8
        assert [(p["x"], p["y"]) for p in doc["points"]] == [
            ("0", "1"), ("0", "6"), ("1", "0"), ("2", "2"),
            ("2", "5"), ("5", "2"), ("5", "5"), ("6", "0"),
        ]
        part = _cli_json(capsys, "circle", "partition", "--field", "Fp:7",
                         "--center", "0,0", "--radius", "1")
        assert part["match"] and part["class_size"] == 4
        assert sorted(len(c) for c in part["classes"]) == [4, 4]
        F7 = cr.PrimeField(7)
        c = cr.circle(F7, (0, 0), 1)
        a, b = cr.partition_prime_field_circle(c)
        squares7 = {0, 1, 2, 4}
        for cls in (a, b):
            assert {d.value for d in cls.distance_values()} <= {2, 4}
        for p in a:
            for q in b:
                assert cr.squared_distance(p, q).value not in squares7


def test_02_f13_golden_example(capsys):
    with criterion("02 F13-golden", 1.0):
        doc = _cli_json(capsys, "circle", "enum", "--field", "Fp:13",
                        "--center", "7,11", "--radius", "6")
        expected = {
            ("7", "5"), ("0", "11"), ("4", "12"), ("8", "8"), ("6", "1"),
            ("10", "10"), ("4", "10"), ("8", "1"), ("6", "8"), ("10", "12"),
            ("1", "11"), ("7", "4"),
        }
        assert {(p["x"], p["y"]) for p in doc["points"]} == expected
        F13 = cr.PrimeField(13)
        c = cr.circle(F13, (7, 11), 6)
        a, b = cr.partition_prime_field_circle(c)
        assert len(a) == len(b) == 6
        occurring = {d.value for d in a.distance_values() | b.distance_values()}
        assert occurring == {1, 4, 10}


def test_03_prime_field_theorem_sweep():
    with criterion("03 prime-theorem p<=500", 60.0):
        records = sweeps.verify_prime_field_theorem(500, graph_max=97)
        assert len(records) == 94
        assert all(rec["match"] for rec in records)
        assert all(rec["graph_checked"] for rec in records if rec["p"] <= 97)
        for rec in records:
            expected = (rec["p"] - 1) // 2 if rec["p"] % 4 == 1 else (rec["p"] + 1) // 2
            assert rec["class_count"] == 2 and rec["class_size"] == expected


def test_04_cardinality_table():
    with criterion("04 cardinality-table", 30.0):
        records = sweeps.verify_cmax_table()
        assert all(rec["match"] for rec in records)
        by_key = {(rec["field"], rec["radius"]): rec for rec in records}
        # the nine finite cells, spot-checked
        assert by_key[("Fp:3", "1")]["grown"] == 2
        assert by_key[("Fp2:3,x^2+1", "a")]["grown"] == 2
        assert by_key[("Fp2:3,x^2+1", "1+a")]["expected"] == "<=2"
        assert by_key[("Fp:5", "2")]["grown"] == 2
        assert by_key[("Fp2:5,x^2+3", "a")]["grown"] == 3
        assert by_key[("Fp:7", "1")]["grown"] == 4
        assert by_key[("Fp2:7,x^2+1", "a")]["grown"] == 3
        assert by_key[("Fp:13", "1")]["grown"] == 6
        assert by_key[("Fp2:13,x^2+11", "a")]["grown"] == 7


def test_05_f49_example():
    with criterion("05 F49-example", 5.0):
        F49 = cr.QuadraticExtension(7, (1, 0))
        c = cr.circle(F49, (0, 0), 1)
        seed = cr.point(F49, (4, 1), (2, 5))  # a+4, 5a+2
        grown = cr.grow_maximal_set(c, seed)
        assert len(grown) == 4 and seed in grown
        sets = cr.enumerate_emaximal_sets(c, seed)
        assert len(sets) == 3
        assert sorted(len(s) for s in sets) == [2, 2, 4]
        assert all(seed in s for s in sets)
        assert set(sets[0].points) == set(grown.points)


def test_06_perfect_distance_equivalence():
    with criterion("06 perfect-equivalence p<=50", 30.0):
        for p in [p for p in cr.fields.primes_up_to(50) if p % 2]:
            field = cr.PrimeField(p)
            for r in range(1, p):
                c = cr.circle(field, (0, 0), r)
                got = {q.value for q in cr.perfect_distances(c)}
                assert got == perfect_distances_by_triangles(p, r), (p, r)
        assert cr.perfect_distances(cr.circle(cr.PrimeField(5), (0, 0), 1)) == {}
        f7_set = {q.value for q in cr.perfect_distances(cr.circle(cr.PrimeField(7), (0, 0), 1))}
        assert f7_set == {2, 4}


def test_07_rotation_group_suite():
    with criterion("07 rotation-group", 30.0):
        rng = random.Random(SEED)
        # group axioms, 10^4 random triples per field kind
        f101 = cr.PrimeField(101)
        f49 = cr.QuadraticExtension(7, (1, 0))
        q = cr.Rationals()
        pools = []
        c101 = cr.circle(f101, (0, 0), 1)
        pools.append((c101, [cr.RotationElement(c101, p) for p in cr.enumerate_circle(c101)]))
        c49 = cr.circle(f49, (0, 0), 1)
        pools.append((c49, [cr.RotationElement(c49, p) for p in cr.enumerate_circle(c49)]))
        cq = cr.circle(q, (0, 0), 1)
        stream = []
        for _ in range(200):
            t = Fraction(rng.randrange(-60, 61), rng.randrange(1, 40))
            stream.append(cr.RotationElement(cq, cr.point_from_parameter(cq, t)))
        pools.append((cq, stream))
        for c, pool in pools:
            ident = cr.identity_element(c)
            for _ in range(10_000):
                a = pool[rng.randrange(len(pool))]
                b = pool[rng.randrange(len(pool))]
                d = pool[rng.randrange(len(pool))]
                ab = cr.rot_mul(a, b)
                assert c.contains(ab.point)
                assert cr.rot_mul(ab, d) == cr.rot_mul(a, cr.rot_mul(b, d))
                assert ab == cr.rot_mul(b, a)
                assert cr.rot_mul(a, ident) == a
                assert cr.rot_mul(a, a.inverse()) == ident

        # group order p -+ 1 by the square-root-of-minus-one criterion, p <= 200
        for p in [p for p in cr.fields.primes_up_to(200) if p % 2]:
            field = cr.PrimeField(p)
            expected = p - 1 if p % 4 == 1 else p + 1
            for r in (1, 2, p - 1):
                c = cr.circle(field, (0, 0), r)
                assert cr.group_order(c) == expected
                assert len(cr.enumerate_circle(c)) == expected
        for p in (7, 11, 13, 17, 19, 23, 29, 31):
            c = cr.circle(cr.PrimeField(p), (0, 0), 1)
            n = cr.group_order(c)
            for point in cr.enumerate_circle(c):
                assert n % cr.element_order(cr.RotationElement(c, point)) == 0

        # rot_pow equals iterated rot_mul for n <= 64
        c13 = cr.circle(cr.PrimeField(13), (0, 0), 1)
        els13 = [cr.RotationElement(c13, p) for p in cr.enumerate_circle(c13)]
        for a in els13:
            acc = cr.identity_element(c13)
            for n in range(65):
                assert cr.rot_pow(a, n) == acc
                acc = cr.rot_mul(acc, a)

        # square roots exist exactly for perfect induced distances,
        # exhaustively for p in {7, 11, 13, 17, 19, 23} and every radius
        for p in (7, 11, 13, 17, 19, 23):
            field = cr.PrimeField(p)
            for r in range(1, p):
                c = cr.circle(field, (0, 0), r)
                elements = [cr.RotationElement(c, pt) for pt in cr.enumerate_circle(c)]
                squares = {cr.rot_mul(b, b) for b in elements}
                for a in elements:
                    root = cr.rot_sqrt(a)
                    assert (root is not None) == (a in squares)
                    if root is not None:
                        assert cr.rot_mul(root, root) == a
                    if not a.is_identity():
                        induced = cr.induced_squared_distance(a)
                        assert (a in squares) == cr.is_perfect_distance(c, induced)


def test_08_rational_exactness():
    with criterion("08 Q-exactness", 5.0):
        q = cr.Rationals()
        c = cr.circle(q, (0, 0), 2)
        b = cr.rotation_element(c, Fraction(8, 5), Fraction(6, 5))
        b2 = cr.rot_mul(b, b)
        assert b2 == cr.rotation_element(c, Fraction(14, 25), Fraction(48, 25))
        induced = cr.induced_squared_distance(b2)
        assert induced == q(Fraction(144, 25))
        assert induced.sqrt() == q(Fraction(12, 5))
        report = cr.classify_cyclicity(b)
        assert report.verdict == "acyclic"
        assert identity_power_sweep(b, 10_000) is None


def test_09_key_exchange_and_serialization():
    with criterion("09 key-exchange", 30.0):
        rng = random.Random(SEED)
        counts = {13: 334, 101: 333, 1000003: 333}
        for p, runs in counts.items():
            field = cr.PrimeField(p)
            c = cr.circle(field, (0, 0), 1)
            t = 2
            while True:
                base = cr.RotationElement(c, cr.point_from_parameter(c, field(t)))
                if cr.element_order(base) > 4:
                    break
                t += 1
            params = cr.ProtocolParams(base)
            for _ in range(runs):
                transcript = cr.simulate_exchange(params, rng.randrange(2**32), rng.randrange(2**32))
                assert transcript.equal
        qf = cr.Rationals()
        cq = cr.circle(qf, (0, 0), 2)
        base_q = cr.rotation_element(cq, Fraction(8, 5), Fraction(6, 5))
        params_q = cr.ProtocolParams(base_q, exponent_cap=64)
        for _ in range(50):
            transcript = cr.simulate_exchange(params_q, rng.randrange(2**32), rng.randrange(2**32))
            assert transcript.equal

        # serialization round-trips, 10^4 random elements per field kind
        f101 = cr.PrimeField(101)
        f49 = cr.QuadraticExtension(7, (1, 0))
        for _ in range(10_000):
            e1 = f101(rng.randrange(101))
            e2 = f49((rng.randrange(7), rng.randrange(7)))
            e3 = qf(Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4)))
            for e in (e1, e2, e3):
                assert cr.decode(cr.encode(e)) == e


def test_10_mod4_corollary():
    with criterion("10 mod4-corollary", 10.0):
        records = sweeps.verify_mod4_criterion(2000)
        assert all(rec["match"] for rec in records)
        prime_orders = {rec["order"] for rec in records if rec["field"].startswith("Fp:")}
        assert len(prime_orders) == 302  # odd primes below 2000
        assert any(rec["field"].startswith("Fp2:") for rec in records)
        for rec in records:
            assert rec["sqrt_minus_one"] == (rec["order"] % 4 == 1)


def test_11_countable_infinity_substitute():
    with criterion("11 countable-infinity", 10.0):
        rng = random.Random(SEED)
        q = cr.Rationals()
        c = cr.circle(q, (1, -2), Fraction(3, 2))
        pts = list(islice(cr.enumerate_rational_points(c), 1000))
        assert len(set(pts)) == 1000
        for n, p in enumerate(pts, start=1):
            assert c.contains(p)
            t = Fraction(n * n - 1, 2 * n)
            assert cr.squarefree_part(t * t + 1) == 1  # coset 1 of Q*/squares
        # pairwise rational squared distances: full check on a 120-point
        # prefix, then 3000 random pairs over the rest
        head = pts[:120]
        for i, a in enumerate(head):
            for b in head[i + 1 :]:
                assert cr.squared_distance(a, b).is_square()
        for _ in range(3000):
            i = rng.randrange(1000)
            j = rng.randrange(1000)
            if i != j:
                assert cr.squared_distance(pts[i], pts[j]).is_square()
