"""Brute-force oracles the tests check the library against.

Two kinds live here:

* Independent oracles work on raw residues and Fractions with their own
  arithmetic, so a bug in the library cannot hide inside them:
  `squares_of`, `brute_circle_prime`, `quadratic_mul`,
  `quadratic_squared_distance`, `brute_circle_quadratic`,
  `rationality_graph_prime`, `rationality_graph_quadratic`,
  `maximal_cliques_through`, `connected_components`,
  `rational_triangle_sides`, `perfect_distances_by_triangles`,
  `point_at_distance`, `least_rational_partner`, `residue_ops`,
  `rotation_roots`, `rot_mul_residues`, `rot_pow_residues`,
  `rot_mul_fractions`, `square_and_multiply`, `fraction_is_square`,
  and the Gaussian-integer branch of `identity_power_sweep` over Q.
* Exhaustive scans that drive the library's own field elements, points
  and products, checking a global property the library decides by a
  theorem or a closed form: `brute_circle_field`,
  `distance_from_parameters`, `parametrized_perfect_full_walk`,
  `iterated_rot_pow`, `has_vanishing_distance_pair`,
  `all_distances_vanish`, `distance_profile`, `points_have_uniformity`,
  `check_uniformity`, and the finite-field branch of
  `identity_power_sweep`.  `field_elements` lists a finite field's
  elements for them and for the tests.
"""

import math
from fractions import Fraction


def squares_of(p: int) -> frozenset:
    """All squares mod p, including 0."""
    return frozenset(x * x % p for x in range(p))


def brute_circle_prime(p: int, m1: int, m2: int, r: int) -> set:
    """Circle points over F_p found by scanning all p^2 coordinate pairs.

    The pair (x, y) is kept when (y - m2)^2 = r^2 - (x - m1)^2; the p
    values of (y - m2)^2 are computed once, before the scan.
    """
    dy2 = [(y - m2) ** 2 % p for y in range(p)]
    return {
        (x, y)
        for x in range(p)
        for need in [(r * r - (x - m1) ** 2) % p]
        for y, v in enumerate(dy2)
        if v == need
    }


def quadratic_mul(p: int, f: tuple, a: tuple, b: tuple) -> tuple:
    """(a0 + a1 x)(b0 + b1 x) in F_p[x]/(x^2 + f1 x + f0), on coefficient pairs (c0, c1)."""
    f0, f1 = f
    hi = a[1] * b[1]
    return ((a[0] * b[0] - f0 * hi) % p, (a[0] * b[1] + a[1] * b[0] - f1 * hi) % p)


def quadratic_squared_distance(p: int, f: tuple, a: tuple, b: tuple) -> tuple:
    """(a1-b1)^2 + (a2-b2)^2 for points whose coordinates are coefficient pairs."""
    dx = ((a[0][0] - b[0][0]) % p, (a[0][1] - b[0][1]) % p)
    dy = ((a[1][0] - b[1][0]) % p, (a[1][1] - b[1][1]) % p)
    sx, sy = quadratic_mul(p, f, dx, dx), quadratic_mul(p, f, dy, dy)
    return ((sx[0] + sy[0]) % p, (sx[1] + sy[1]) % p)


def brute_circle_quadratic(p: int, f: tuple, center: tuple, r: tuple) -> set:
    """Circle points over F_p[x]/(x^2 + f1 x + f0) by scanning all p^4 coordinate pairs."""
    elements = [(c0, c1) for c0 in range(p) for c1 in range(p)]
    rr = quadratic_mul(p, f, r, r)
    return {
        (x, y)
        for x in elements
        for y in elements
        if quadratic_squared_distance(p, f, (x, y), center) == rr
    }


def field_elements(field):
    """All elements of a finite field, in sort-key order."""
    from circlering.fields import FieldElement

    return (FieldElement(field, v) for v in field._raw_elements())


def brute_circle_field(field, center, radius) -> set:
    """Circle points over any finite field by full coordinate scan."""
    m1, m2 = center
    rr = radius * radius
    pts = set()
    for x in field_elements(field):
        for y in field_elements(field):
            dx, dy = x - m1, y - m2
            if dx * dx + dy * dy == rr:
                pts.add((x, y))
    return pts


def distance_from_parameters(c, t1, t2):
    """Squared distance between parametrized circle points, in closed form.

    Evaluates 4r^2 (t1-t2)^2 / ((t1^2+1)(t2^2+1)), with the marker point
    handled through its limit form 4r^2/(t^2+1); characteristic 2 gives 0.
    Kept apart from the library's coordinate-level squared_distance so
    the two can cross-check each other.
    """
    from circlering.plane import AT_INFINITY

    field = c.field
    if field.characteristic == 2:
        return field.zero
    r2 = c.radius * c.radius
    four = field.from_int(4)
    inf1, inf2 = t1 is AT_INFINITY, t2 is AT_INFINITY
    if inf1 and inf2:
        return field.zero
    if inf1 or inf2:
        t = field(t2 if inf1 else t1)
        return four * r2 * (t * t + field.one).inverse()
    t1, t2 = field(t1), field(t2)
    d = t1 - t2
    denom = (t1 * t1 + field.one) * (t2 * t2 + field.one)
    return four * r2 * d * d * denom.inverse()


def parametrized_perfect_full_walk(c) -> list:
    """The raw values (4tr^2/(t^2+r^2))^2 other than 4r^2 for t = 1, ..., p - 1.

    Each value is listed once, in the order of its least parameter t.
    Over a finite field of characteristic p only.
    """
    field = c.field
    r2 = c.radius * c.radius
    four_r2 = field.from_int(4) * r2
    seen, stream = {four_r2}, []
    for t in range(1, field.characteristic):
        t = field.from_int(t)
        denom = t * t + r2
        if denom.is_zero():
            continue
        q = (four_r2 * t / denom) ** 2
        if q not in seen:
            seen.add(q)
            stream.append(q.value)
    return stream


def rationality_graph_prime(p: int, points: list) -> list:
    """Bitmask adjacency over raw residue pairs; edge = square distance."""
    sq = squares_of(p)
    n = len(points)
    adj = [0] * n
    for i in range(n):
        xi, yi = points[i]
        for j in range(i + 1, n):
            xj, yj = points[j]
            if ((xi - xj) ** 2 + (yi - yj) ** 2) % p in sq:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def rationality_graph_quadratic(p: int, f: tuple, points: list) -> list:
    """Bitmask adjacency over points of F_p[x]/(x^2 + f1 x + f0); edge = distance in F_p, a square."""
    sq = squares_of(p)
    n = len(points)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            d0, d1 = quadratic_squared_distance(p, f, points[i], points[j])
            if d1 == 0 and d0 in sq:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def maximal_cliques_through(adj: list, s: int) -> set:
    """Every maximal clique of a bitmask graph that contains vertex s, as sorted index tuples.

    Grows every clique through s one common neighbour at a time and
    keeps those that no vertex extends; no pivoting, no pruning.
    """
    maximal, seen, frontier = set(), set(), [frozenset([s])]
    while frontier:
        clique = frontier.pop()
        if clique in seen:
            continue
        seen.add(clique)
        common = [v for v in range(len(adj)) if v not in clique and all(adj[u] >> v & 1 for u in clique)]
        if not common:
            maximal.add(tuple(sorted(clique)))
        frontier.extend(clique | {v} for v in common)
    return maximal


def connected_components(adj: list) -> list:
    """Components of a bitmask graph, as sorted index tuples."""
    n = len(adj)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            m = adj[v]
            while m:
                bit = m & -m
                w = bit.bit_length() - 1
                if w not in comp:
                    stack.append(w)
                m &= ~bit
        for v in comp:
            seen[v] = True
        comps.append(tuple(sorted(comp)))
    return comps


def rational_triangle_sides(points, distance, rational) -> set:
    """Perfect distances of a finite circle, given all its points, by exhaustive triangles.

    A squared-distance value is collected when it joins two points of
    some triangle whose three pairwise distances are all rational.
    `distance(a, b)` and `rational(value)` supply the field's arithmetic.
    """
    pts = sorted(points)
    n = len(pts)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rational(distance(pts[i], pts[j])):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return {
        distance(pts[i], pts[j])
        for i in range(n)
        for j in range(i + 1, n)
        if adj[i] >> j & 1 and adj[i] & adj[j]
    }


def perfect_distances_by_triangles(p: int, r: int) -> set:
    """Perfect distances of C((0,0), r) over F_p by exhaustive triangles."""
    return rational_triangle_sides(
        brute_circle_prime(p, 0, 0, r),
        lambda a, b: ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) % p,
        squares_of(p).__contains__,
    )


def point_at_distance(points, distance, origin, q):
    """The least of `points` at squared distance q from `origin`, by scan; None if there is none."""
    return min((pt for pt in points if distance(origin, pt) == q), default=None)


def least_rational_partner(points, distance, rational, seed):
    """The least of `points` other than `seed` at rational squared distance from it, by scan."""
    return min((pt for pt in points if pt != seed and rational(distance(seed, pt))), default=None)


def residue_ops(p: int, f: tuple | None = None) -> tuple:
    """(add, sub, mul) on raw values: residues mod p, or coefficient pairs of F_p[x]/(f)."""
    if f is None:
        return (lambda a, b: (a + b) % p, lambda a, b: (a - b) % p, lambda a, b: a * b % p)
    return (
        lambda a, b: ((a[0] + b[0]) % p, (a[1] + b[1]) % p),
        lambda a, b: ((a[0] - b[0]) % p, (a[1] - b[1]) % p),
        lambda a, b: quadratic_mul(p, f, a, b),
    )


def rotation_roots(points, ops, r, a) -> list:
    """The points b of C((0,0), r) with b * b = a in the rotation group, by scan.

    b * b = ((b1^2 - b2^2)/r, 2 b1 b2/r), so b is a root exactly when
    b1^2 - b2^2 = r a1 and 2 b1 b2 = r a2; `ops` is residue_ops' triple.
    """
    add, sub, mul = ops
    ra1, ra2 = mul(r, a[0]), mul(r, a[1])
    return sorted(
        b for b in points
        if sub(mul(b[0], b[0]), mul(b[1], b[1])) == ra1 and add(mul(b[0], b[1]), mul(b[0], b[1])) == ra2
    )


def rot_mul_residues(p: int, r: int, a: tuple, b: tuple) -> tuple:
    """Rotation product on C((0,0), r) over F_p, from the defining formula."""
    r_inv = pow(r, -1, p)
    (a1, a2), (b1, b2) = a, b
    return ((a1 * b1 - a2 * b2) * r_inv % p, (a1 * b2 + a2 * b1) * r_inv % p)


def rot_pow_residues(p: int, r: int, a: tuple, n: int) -> tuple:
    """n-fold rotation product of a over F_p, starting from the identity (r, 0)."""
    acc = (r % p, 0)
    for _ in range(n):
        acc = rot_mul_residues(p, r, acc, a)
    return acc


def rot_mul_fractions(r: Fraction, a: tuple, b: tuple) -> tuple:
    """Rotation product on C((0,0), r) over Q, from the defining formula on Fractions."""
    (a1, a2), (b1, b2) = a, b
    return (a1 * b1 - a2 * b2) / r, (a1 * b2 + a2 * b1) / r


def square_and_multiply(mul, identity, a, n: int):
    """a^n for n >= 0 over the product `mul`, by binary exponentiation."""
    result = identity
    while n:
        if n & 1:
            result = mul(result, a)
        a = mul(a, a)
        n >>= 1
    return result


def iterated_rot_pow(element, n: int):
    """n-fold rotation product, the slow way."""
    from circlering.rotation import identity_element, rot_mul

    acc = identity_element(element.circle)
    for _ in range(n):
        acc = rot_mul(acc, element)
    return acc


def fraction_is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def has_vanishing_distance_pair(c) -> bool:
    """Whether two *different* circle points sit at squared distance 0.

    False for every finite field of odd characteristic, True in
    characteristic 2, where all distances on a circle vanish.
    """
    from circlering.plane import enumerate_circle, squared_distance

    pts = enumerate_circle(c)
    zero = c.field.zero
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            if squared_distance(p, q) == zero:
                return True
    return False


def all_distances_vanish(c) -> bool:
    """Whether every pairwise squared distance on the circle is 0."""
    from circlering.plane import enumerate_circle, squared_distance

    pts = enumerate_circle(c)
    zero = c.field.zero
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            if squared_distance(p, q) != zero:
                return False
    return True


def distance_profile(points: list, origin_point) -> tuple:
    """Multiset of squared distances from one point to the rest."""
    from circlering.plane import squared_distance

    values = [
        squared_distance(origin_point, p).sort_key()
        for p in points
        if p != origin_point
    ]
    return tuple(sorted(values))


def points_have_uniformity(points: list) -> bool:
    """Whether every point of the finite curve sees one distance profile."""
    if not points:
        return True
    first = distance_profile(points, points[0])
    return all(distance_profile(points, p) == first for p in points[1:])


def check_uniformity(c, cap: int = 4096) -> bool:
    """Exhaustive uniformity check for a finite-field circle."""
    from circlering.errors import CircleTooLarge
    from circlering.plane import enumerate_circle

    pts = enumerate_circle(c)
    if len(pts) > cap:
        raise CircleTooLarge(f"{len(pts)} circle points exceed the cap {cap}")
    return points_have_uniformity(pts)


def identity_power_sweep(a, bound: int) -> int | None:
    """Smallest n in [1, bound] with a^n = identity, or None.

    Over Q it iterates the integer Gaussian form (u + iv) <- (u + iv)(x + iy)
    and compares against D^n, so no fraction reduction happens along
    the way; over finite fields it multiplies with the library's rot_mul.
    """
    if a.field.is_finite():
        from circlering.rotation import rot_mul

        acc = a
        for n in range(1, bound + 1):
            if acc.is_identity():
                return n
            acc = rot_mul(acc, a)
        return None
    r = a.circle.radius
    w1 = Fraction(a.point.x.value) / Fraction(r.value)
    w2 = Fraction(a.point.y.value) / Fraction(r.value)
    d = math.lcm(w1.denominator, w2.denominator)
    x, y = w1.numerator * (d // w1.denominator), w2.numerator * (d // w2.denominator)
    u, v = 1, 0
    dn = 1
    for n in range(1, bound + 1):
        u, v = u * x - v * y, u * y + v * x
        dn *= d
        if v == 0 and u == dn:
            return n
    return None
