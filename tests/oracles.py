"""Independent brute-force oracles the tests check the library against.

Everything here works on raw residues with its own arithmetic, so a bug
in the library cannot hide inside its oracle.
"""

import math
from fractions import Fraction


def squares_of(p: int) -> frozenset:
    """All squares mod p, including 0."""
    return frozenset(x * x % p for x in range(p))


def brute_circle_prime(p: int, m1: int, m2: int, r: int) -> set:
    """Circle points over F_p found by scanning all p^2 coordinate pairs."""
    rr = r * r % p
    return {
        (x, y)
        for x in range(p)
        for y in range(p)
        if ((x - m1) ** 2 + (y - m2) ** 2) % p == rr
    }


def brute_circle_field(field, center, radius) -> set:
    """Circle points over any finite field by full coordinate scan."""
    m1, m2 = center
    rr = radius * radius
    pts = set()
    for x in field.elements():
        for y in field.elements():
            dx, dy = x - m1, y - m2
            if dx * dx + dy * dy == rr:
                pts.add((x, y))
    return pts


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


def perfect_distances_by_triangles(p: int, r: int) -> set:
    """Perfect distances of C((0,0), r) over F_p by exhaustive triangles.

    A squared-distance value is collected when it joins two points of
    some triangle whose three pairwise distances are all squares.
    """
    pts = sorted(brute_circle_prime(p, 0, 0, r))
    sq = squares_of(p)
    n = len(pts)
    adj = rationality_graph_prime(p, pts)
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            if not adj[i] >> j & 1:
                continue
            if adj[i] & adj[j] & ~(1 << i) & ~(1 << j):
                xi, yi = pts[i]
                xj, yj = pts[j]
                out.add(((xi - xj) ** 2 + (yi - yj) ** 2) % p)
    return out


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
