"""Theorem verification sweeps over ranges of fields.

Each sweep pits a closed-form claim against an independent construction
and reports one JSON-ready record per field instance:

* the prime-field two-class theorem (class count and sizes, with the
  brute-force rationality graph confirming the clique structure for
  small primes),
* the c-maximal cardinality table (closed form vs. grown sets),
* the mod-4 criterion for square roots of -1 (Euler test vs. counting
  parameter orbits {+-t, +-1/t}).
"""

from .errors import ResultTooLarge
from .fields import (
    PrimeField,
    QuadraticExtension,
    _is_irreducible,
    contains_sqrt_minus_one,
    prime_square_values,
    primes_up_to,
)
from .maximal import _raw_partition, cmaximal_cardinality, grow_maximal_set
from .plane import Circle, PlanePoint, circle, enumerate_circle


# largest prime bound a sweep accepts, checked before the sieve: the sieve
# needs about 4 bytes per integer below the bound, and verify mod4 takes
# about 0.15 s at 2000, growing as the bound squared
_PMAX_CAP = 10**5


def _odd_primes(limit: int) -> list[int]:
    if limit > _PMAX_CAP:
        raise ResultTooLarge(f"a sweep to {limit} exceeds the cap {_PMAX_CAP}")
    return [p for p in primes_up_to(limit) if p != 2]


def _is_two_clique_graph(p, squares, class_a, class_b):
    """Brute-force check: the rationality graph is exactly these two cliques."""
    pts = sorted(class_a | class_b)
    n = len(pts)
    index = {pt: i for i, pt in enumerate(pts)}
    adj = [0] * n
    for i in range(n):
        xi, yi = pts[i]
        for j in range(i + 1, n):
            xj, yj = pts[j]
            if ((xi - xj) ** 2 + (yi - yj) ** 2) % p in squares:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    mask_a = sum(1 << index[pt] for pt in class_a)
    mask_b = sum(1 << index[pt] for pt in class_b)
    for mask, other in ((mask_a, mask_b), (mask_b, mask_a)):
        m = mask
        while m:
            bit = m & -m
            i = bit.bit_length() - 1
            if adj[i] & mask != mask ^ bit or adj[i] & other:
                return False
            m &= ~bit
    return True


def prime_theorem_record(p: int, graph_max: int = 97) -> dict:
    """Check the two-class theorem for every radius of one prime field.

    The unit circle is partitioned once; scaling by r carries its two
    classes (and its marker (0, 1)) to those of radius r, because
    squared distances scale by the square r^2.  `class_size` is the
    measured size of the first class, `expected` the theorem's.  A
    mismatch names its failed check (`class_sizes` or `two_cliques`) in
    `failed`, and the first radius where it failed in `counterexample`.
    """
    field = PrimeField(p)
    first, second = _raw_partition(circle(field, (0, 0), 1))
    squares = prime_square_values(p)
    expected = cmaximal_cardinality(field, 1).n
    checks = {"class_sizes": True, "two_cliques": True}
    failure = None
    graph_checked = p <= graph_max
    for r in range(1, p):
        class_a = {(r * x % p, r * y % p) for x, y in first}
        class_b = {(r * x % p, r * y % p) for x, y in second}
        if len(class_a) != expected or len(class_b) != expected:
            checks["class_sizes"] = False
            failure = {"r": r, "sizes": [len(class_a), len(class_b)]}
            break
        if graph_checked and not _is_two_clique_graph(p, squares, class_a, class_b):
            checks["two_cliques"] = False
            failure = {"r": r, "reason": "rationality graph is not two disjoint cliques"}
            break
    record = _with_verdict({
        "p": p,
        "radii": p - 1,
        "class_count": 2,
        "class_size": len(first),
        "expected": expected,
        "graph_checked": graph_checked,
    }, checks)
    if failure is not None:
        record["counterexample"] = failure
    return record


def verify_prime_field_theorem(p_max: int, graph_max: int = 97) -> list[dict]:
    """Two-class theorem sweep over every odd prime up to p_max."""
    return [prime_theorem_record(p, graph_max) for p in _odd_primes(p_max)]


def default_table_cells():
    """(field, radius) pairs covering every finite cell of the cardinality table.

    For each characteristic in {3, 5, 7, 13}: the prime field itself,
    the quadratic extension with a prime-subfield radius, a radius whose
    square (only) lies in the prime subfield, and a radius whose square
    does not; plus the characteristic-2 sanity rows F_2 and F_4.
    """
    cells = []
    # (p, f0, r_p): the extension modulus x^2 + f0 and the prime field's radius
    for p, f0, r_p in ((3, 1, 1), (5, 3, 2), (7, 1, 1), (13, 11, 1)):
        fp = PrimeField(p)
        fq = QuadraticExtension(p, (f0, 0))
        cells += [(fp, fp(r_p)), (fq, fq(1)), (fq, fq((0, 1))), (fq, fq((1, 1)))]
    f2 = PrimeField(2)
    f4 = QuadraticExtension(2, (1, 1))
    cells += [(f2, f2(1)), (f4, f4(1)), (f4, f4((0, 1)))]
    return cells


def table_cell_record(field, radius) -> dict:
    """Compare the table answer against a grown set for one cell."""
    answer = cmaximal_cardinality(field, radius)
    origin = PlanePoint(field.zero, field.zero)
    c = Circle(origin, radius)
    seed = enumerate_circle(c)[0]
    grown = grow_maximal_set(c, seed)
    if answer.kind == "finite":
        expected_text = str(answer.n)
        checks = {"grown_size": len(grown) == answer.n}
    else:  # at_most_two (countably infinite never occurs on finite cells)
        expected_text = "<=2"
        checks = {
            "grown_size": len(grown) <= 2,
            "witness": (answer.witness is not None) == (len(grown) == 2),
        }
    return _with_verdict({
        "field": field.to_text(),
        "radius": str(radius),
        "expected": expected_text,
        "grown": len(grown),
    }, checks)


def _with_verdict(record: dict, checks: dict) -> dict:
    """Add `match` to a sweep record and, on a mismatch, the names of the failed checks."""
    failed = [name for name, ok in checks.items() if not ok]
    record["match"] = not failed
    if failed:
        record["failed"] = failed
    return record


def verify_cmax_table() -> list[dict]:
    """Cardinality-table sweep over the full finite cell set, default_table_cells()."""
    return [table_cell_record(field, radius) for field, radius in default_table_cells()]


def _mod4_record(field) -> dict:
    """Orbit-counting derivation of the mod-4 criterion for one field.

    Admissible parameters t (t^2 != -1) fall into orbits {+-t, +-1/t} of
    size 4, except the single orbit {1, -1}.  The leftover counts force
    |F| = 1 (mod 4) exactly when two parameters are inadmissible, which
    happens exactly when -1 is a square; that conclusion is compared
    with the direct Euler-criterion test.
    """
    order = field.order
    has_root = contains_sqrt_minus_one(field)
    mul, neg, inv = field._mul, field._neg, field._inv
    zero = field._zero
    minus_one = neg(field._canon(1))
    visited = set()
    inadmissible = 0
    orbit_pairs = 0
    orbit_quads = 0
    for t in field._raw_elements():
        if t == zero or t in visited:
            continue
        if mul(t, t) == minus_one:
            visited.add(t)
            inadmissible += 1
            continue
        t_inv = inv(t)
        orbit = {t, neg(t), t_inv, neg(t_inv)}
        visited.update(orbit)
        if len(orbit) == 2:
            orbit_pairs += 1
        else:
            orbit_quads += 1
    orbit_conclusion = 1 if inadmissible == 2 else 3
    return _with_verdict({
        "field": field.to_text(),
        "order": order,
        "sqrt_minus_one": has_root,
        "inadmissible": inadmissible,
        "pair_orbits": orbit_pairs,
        "quad_orbits": orbit_quads,
        "order_mod_4": order % 4,
    }, {
        "accounted": inadmissible + 2 * orbit_pairs + 4 * orbit_quads == order - 1,
        "pair_orbits": orbit_pairs == 1,
        "inadmissible": inadmissible in (0, 2),
        "sqrt_minus_one": (inadmissible == 2) == has_root,
        "order_mod_4": order % 4 == orbit_conclusion,
    })


def _extension_modulus(p: int) -> tuple[int, int]:
    """A monic irreducible quadratic x^2 + c1 x + c0 over F_p."""
    prime_field = PrimeField(p)
    for c0 in range(p):
        for c1 in range(p):
            if _is_irreducible(prime_field, c0, c1):
                return (c0, c1)
    raise AssertionError(f"no irreducible quadratic over F_{p}")


def verify_mod4_criterion(p_max: int) -> list[dict]:
    """Mod-4 sweep over all odd prime powers p^n <= p_max with n in {1, 2}."""
    records = []
    for p in _odd_primes(p_max):
        records.append(_mod4_record(PrimeField(p)))
        if p * p <= p_max:
            records.append(_mod4_record(QuadraticExtension(p, _extension_modulus(p))))
    records.sort(key=lambda rec: rec["order"])
    return records
