"""Independent output checks for the benchmark workloads.

Every checker recomputes what an operation must have returned with its
own arithmetic: plain integers modulo p for prime fields, integer pairs
for quadratic extensions and `fractions.Fraction` over Q.  Library
objects are only read through their raw ``.value`` fields.  The library
itself is called only where a check is defined in terms of it
(``cmaximal_cardinality`` and the ``encode``/``decode`` round trip).

Each checker returns a list of problems; an empty list means the output
is correct.
"""

import json
import math
import random
from fractions import Fraction

GRAPH_MAX = 97  # primes up to this also get the brute-force graph check
TABLE_CELLS = 4 * 4 + 3  # four cells for each of F_3, F_5, F_7, F_13, plus F_2 / F_4 rows
SAMPLED_PAIRS = 8


def odd_primes_up_to(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(3, n + 1) if flags[i]]


def class_size(p: int) -> int:
    """Size of each of the two rationality classes of a circle over F_p."""
    return (p - 1) // 2 if p % 4 == 1 else (p + 1) // 2


# --- prime fields ------------------------------------------------------------


def nonzero_square_mod(a: int, p: int) -> bool:
    return a % p != 0 and pow(a, (p - 1) // 2, p) == 1


def prime_dist(u, v, p: int) -> int:
    return ((u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2) % p


def prime_on_circle(pt, p: int, a: int, b: int, r: int) -> bool:
    return ((pt[0] - a) ** 2 + (pt[1] - b) ** 2 - r * r) % p == 0


def prime_circle_point(p: int, a: int, b: int, r: int, t: int | None):
    """Second intersection of the secant through (a, b - r) with slope t.

    t = None names the point (a, b + r).
    """
    if t is None:
        return (a % p, (b + r) % p)
    w = pow((t * t + 1) % p, p - 2, p)
    return ((a + 2 * t * r * w) % p, (b + r * (t * t - 1) * w) % p)


def prime_circle_classes(p: int, a: int, b: int, r: int):
    """All points of the circle and its two classes, split by distance to (a, b + r)."""
    top = prime_circle_point(p, a, b, r, None)
    points = {top}
    points.update(
        prime_circle_point(p, a, b, r, t) for t in range(p) if (t * t + 1) % p
    )
    with_top = {q for q in points if q == top or nonzero_square_mod(prime_dist(top, q, p), p)}
    return points, with_top, points - with_top


def check_triangles(perfect: dict, on_circle, dist, rational) -> list[str]:
    problems = []
    for q, tri in perfect.items():
        if len(set(tri)) != 3 or not all(on_circle(v) for v in tri):
            problems.append(f"witness triangle of {q} is not three circle points")
            continue
        sides = [dist(tri[0], tri[1]), dist(tri[0], tri[2]), dist(tri[1], tri[2])]
        if not all(rational(s) for s in sides) or q not in sides:
            problems.append(f"witness triangle of {q} is not rational with side {q}")
    return problems


def check_cliques(cliques, grown: set) -> list[str]:
    if cliques is None:
        return []
    best = max(len(c) for c in cliques)
    if best != len(grown) or grown not in [set(c) for c in cliques if len(c) == best]:
        return [f"largest clique (size {best}) differs from the grown set (size {len(grown)})"]
    return []


def check_prime_construct(spec: dict, out: dict, cmax_n: int) -> list[str]:
    p, a, b, r = spec["p"], spec["a"], spec["b"], spec["r"]
    points, with_top, rest = prime_circle_classes(p, a, b, r)
    half = class_size(p)
    problems = []
    if len(out["points"]) != len(points) or set(out["points"]) != points:
        problems.append(f"enumerate_circle gave {len(out['points'])} points, expected {len(points)}")
    classes = [set(c) for c in out["classes"]]
    if sorted(len(c) for c in classes) != [half, half]:
        problems.append(f"class sizes {[len(c) for c in classes]}, expected {half} each")
    if with_top not in classes or rest not in classes:
        problems.append("partition classes differ from the rationality classes")
    rng = random.Random(f"{p}:{a}:{b}:{r}")
    for cls in out["classes"]:
        ordered = sorted(cls)
        n = len(ordered)
        pairs = [(ordered[i], ordered[(i + 1) % n]) for i in range(n)] if n > 1 else []
        pairs += [tuple(rng.sample(ordered, 2)) for _ in range(SAMPLED_PAIRS) if n > 1]
        bad = [pq for pq in pairs if not nonzero_square_mod(prime_dist(*pq, p), p)]
        if bad:
            problems.append(f"{len(bad)} pairs inside a class are not rational, e.g. {bad[0]}")
    grown = set(out["grown"])
    seed = spec["seed_point"]
    expected = with_top if seed in with_top else rest
    if grown != expected:
        problems.append("grown set is not the seed's rationality class")
    if len(grown) != half or cmax_n != half:
        problems.append(f"grown size {len(grown)}, cmaximal_cardinality {cmax_n}, expected {half}")
    perfect = out["perfect"]
    problems += check_triangles(
        perfect,
        lambda v: prime_on_circle(v, p, a, b, r),
        lambda u, v: prime_dist(u, v, p),
        lambda d: nonzero_square_mod(d, p),
    )
    four_r2 = 4 * r * r % p
    predicted = 1 + 2 * sum(q != four_r2 for q in perfect) + (four_r2 in perfect)
    if perfect and predicted != len(grown):  # without perfect distances the set is a pair
        problems.append(f"{len(perfect)} perfect distances predict {predicted} points, grown {len(grown)}")
    return problems + check_cliques(out["cliques"], grown)


# --- quadratic extensions F_p[x]/(x^2 + f1 x + f0) -----------------------------


class Fp2:
    """Raw arithmetic on coefficient pairs (c0, c1) meaning c0 + c1*x."""

    def __init__(self, p: int, f0: int, f1: int):
        self.p, self.f0, self.f1 = p, f0, f1

    def add(self, u, v):
        return ((u[0] + v[0]) % self.p, (u[1] + v[1]) % self.p)

    def sub(self, u, v):
        return ((u[0] - v[0]) % self.p, (u[1] - v[1]) % self.p)

    def mul(self, u, v):
        hi = u[1] * v[1]
        return (
            (u[0] * v[0] - self.f0 * hi) % self.p,
            (u[0] * v[1] + u[1] * v[0] - self.f1 * hi) % self.p,
        )

    def inv(self, u):
        p = self.p
        norm = (u[0] * u[0] - self.f1 * u[0] * u[1] + self.f0 * u[1] * u[1]) % p
        n_inv = pow(norm, p - 2, p)
        return ((u[0] - self.f1 * u[1]) * n_inv % p, -u[1] * n_inv % p)

    def elements(self):
        return [(c0, c1) for c0 in range(self.p) for c1 in range(self.p)]

    def irreducible(self) -> bool:
        return all((x * x + self.f1 * x + self.f0) % self.p for x in range(self.p))

    def dist(self, u, v):
        dx, dy = self.sub(u[0], v[0]), self.sub(u[1], v[1])
        return self.add(self.mul(dx, dx), self.mul(dy, dy))

    def rational(self, d) -> bool:
        """Nonzero square of the prime subfield."""
        return d[1] == 0 and nonzero_square_mod(d[0], self.p)

    def on_circle(self, pt, center, r) -> bool:
        return self.dist(pt, center) == self.mul(r, r)

    def circle_point(self, center, r, t):
        """Parametrized circle point, as in the prime-field case; t = None is (m1, m2 + r)."""
        if t is None:
            return (center[0], self.add(center[1], r))
        one = (1, 0)
        tt = self.mul(t, t)
        w = self.inv(self.add(tt, one))
        two_t = self.add(t, t)
        return (
            self.add(center[0], self.mul(self.mul(two_t, r), w)),
            self.add(center[1], self.mul(self.mul(r, self.sub(tt, one)), w)),
        )


def check_quadratic_construct(spec: dict, out: dict, cmax_n: int | None) -> list[str]:
    p = spec["p"]
    fq = Fp2(p, spec["f0"], spec["f1"])
    center, r, seed = spec["center"], spec["r"], spec["seed_point"]
    problems = []
    pts = out["points"]
    if len(pts) != p * p - 1 or len(set(pts)) != len(pts):
        problems.append(f"enumerate_circle gave {len(pts)} points, expected {p * p - 1}")
    if not all(fq.on_circle(v, center, r) for v in pts):
        problems.append("enumerate_circle returned a point off the circle")
    grown = set(out["grown"])
    if seed not in grown or not all(fq.on_circle(v, center, r) for v in grown):
        problems.append("grown set misses the seed or leaves the circle")
    ordered = sorted(grown)
    if not all(
        fq.rational(fq.dist(u, v)) for i, u in enumerate(ordered) for v in ordered[i + 1 :]
    ):
        problems.append("grown set has a pair at non-rational distance")
    r2 = fq.mul(r, r)
    if r2[1] == 0:
        minus_one_square = nonzero_square_mod(p - 1, p)
        r_in_prime = r[1] == 0
        half = (p - 1) // 2 if minus_one_square == r_in_prime else (p + 1) // 2
        if len(grown) != half or cmax_n != half:
            problems.append(f"grown size {len(grown)}, cmaximal_cardinality {cmax_n}, expected {half}")
        problems += check_triangles(
            out["perfect"],
            lambda v: fq.on_circle(v, center, r),
            fq.dist,
            fq.rational,
        )
    else:
        partner = any(v != seed and fq.rational(fq.dist(seed, v)) for v in pts)
        if len(grown) != (2 if partner else 1):
            problems.append(f"r^2 outside F_{p}: grown size {len(grown)}, rational partner {partner}")
    return problems + check_cliques(out["cliques"], grown)


# --- the rationals -------------------------------------------------------------


def q_rational(d: Fraction) -> bool:
    """Nonzero square of Q."""
    n, m = d.numerator, d.denominator
    return n > 0 and math.isqrt(n) ** 2 == n and math.isqrt(m) ** 2 == m


def q_dist(u, v) -> Fraction:
    return (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2


def q_on_circle(pt, center, r) -> bool:
    return q_dist(pt, center) == r * r


def check_q_grow(spec: dict, out: dict) -> list[str]:
    center, r = spec["center"], spec["r"]
    pts = out["grown"]
    problems = []
    if len(pts) != spec["prefix"] or len(set(pts)) != len(pts) or not out["is_prefix"]:
        problems.append(f"prefix has {len(pts)} points, expected {spec['prefix']}")
    if spec["seed_point"] not in pts:
        problems.append("prefix misses the seed")
    if not all(q_on_circle(v, center, r) for v in pts):
        problems.append("prefix point off the circle")
    if not all(q_rational(q_dist(u, v)) for i, u in enumerate(pts) for v in pts[i + 1 :]):
        problems.append("prefix has a pair at non-rational distance")
    return problems


def check_q_partition(spec: dict, out: dict) -> list[str]:
    center, r = spec["center"], spec["r"]
    groups = out["groups"]
    labelled = [(pt, key) for key, pts in groups.items() for pt in pts]
    problems = []
    if len(labelled) != len(spec["sample"]) or len({pt for pt, _ in labelled}) != len(labelled):
        problems.append(f"{len(labelled)} grouped points for {len(spec['sample'])} parameters")
    if not all(q_on_circle(pt, center, r) for pt, _ in labelled):
        problems.append("grouped point off the circle")
    for i, (u, ku) in enumerate(labelled):
        for v, kv in labelled[i + 1 :]:
            if q_rational(q_dist(u, v)) != (ku == kv):
                problems.append(f"points in groups {ku} and {kv} disagree with their distance")
                return problems
    return problems


# --- key exchange --------------------------------------------------------------


def rot_pow_mod(pt, r: int, n: int, p: int):
    """n-th power in the rotation group of C((0,0), r) over F_p, on raw residues."""
    r_inv = pow(r, p - 2, p)

    def mul(u, v):
        return (
            (u[0] * v[0] - u[1] * v[1]) * r_inv % p,
            (u[0] * v[1] + u[1] * v[0]) * r_inv % p,
        )

    acc, base = (r % p, 0), pt
    while n:
        if n & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        n >>= 1
    return acc


def check_keyex(spec: dict, out: dict, roundtrip) -> list[str]:
    """`out` holds raw transcript points, the wire bytes and the decoded points.

    `roundtrip(wire)` decodes the bytes again and returns the raw decoded
    transcript together with its re-encoding.
    """
    p, r = spec["p"], spec["r"]
    pts = out["points"]
    problems = []
    if not out["equal"] or pts["shared_a"] != pts["shared_b"]:
        problems.append("parties derived different secrets")
    if pts["base"] != spec["base"]:
        problems.append("transcript base differs from the public base point")
    for name, (x, y) in pts.items():
        on = (x * x + y * y - r * r) % p == 0 if p else x * x + y * y == r * r
        if not on:
            problems.append(f"{name} is off the circle")
    sent = (pts, out["equal"])
    if out["decoded"] != sent:
        problems.append("decoded transcript differs from the sent one")
    wire = out["wire"]
    try:
        decoded, encoded = roundtrip(wire)
    except Exception as exc:  # any refusal of the bytes is a failed check
        return problems + [f"wire bytes do not decode: {type(exc).__name__}: {exc}"]
    if encoded != wire:
        problems.append("encode(decode(wire)) != wire")
    if decoded != sent:
        problems.append("wire bytes decode to another transcript")
    k = out["dlog"]
    if k is not None and (not p or rot_pow_mod(spec["base"], r, k, p) != pts["sent_a"]):
        problems.append(f"dlog hit {k} is not a discrete log of sent_a")
    return problems


# --- sweeps --------------------------------------------------------------------


def check_prime_record(p: int, rec: dict) -> list[str]:
    expected = {
        "p": p,
        "radii": p - 1,
        "class_size": class_size(p),
        "graph_checked": p <= GRAPH_MAX,
        "match": True,
    }
    wrong = {k: rec.get(k) for k, v in expected.items() if rec.get(k) != v}
    if wrong or "counterexample" in rec:
        return [f"record for p={p} is wrong in {wrong or 'counterexample'}"]
    return []


def check_cli_sweep(out: dict, expected_records: int) -> list[str]:
    """`out` holds the exit code and the parsed JSON lines of one CLI sweep."""
    docs = out["docs"]
    problems = []
    if out["code"] != 0:
        problems.append(f"exit code {out['code']}")
    if not docs or "summary" not in docs[-1]:
        return problems + ["no summary line"]
    records, summary = docs[:-1], docs[-1]["summary"]
    if summary.get("mismatches") != 0 or not all(rec.get("match") is True for rec in records):
        problems.append(f"mismatching records, summary {summary}")
    if not (len(records) == summary.get("records") == expected_records):
        problems.append(f"{len(records)} records, summary {summary.get('records')}, expected {expected_records}")
    return problems


def check_mod4(m: int, out: dict) -> list[str]:
    primes = odd_primes_up_to(m)
    orders = sorted(primes + [p * p for p in primes if p * p <= m])
    problems = check_cli_sweep(out, len(orders))
    records = out["docs"][:-1]
    if sorted(rec.get("order") for rec in records) != orders:
        problems.append("record orders are not the odd primes and prime squares up to pmax")
    if not all(rec.get("sqrt_minus_one") == (rec.get("order", 0) % 4 == 1) for rec in records):
        problems.append("sqrt_minus_one disagrees with the order mod 4")
    return problems


def check_table(out: dict) -> list[str]:
    return check_cli_sweep(out, TABLE_CELLS)


def parse_json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]
