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
    primes_up_to,
)
from .maximal import _raw_partition, cmaximal_cardinality, grow_maximal_set, is_rational_distance
from .plane import AT_INFINITY, Circle, PlanePoint, circle, point_from_parameter


# largest prime bound each sweep accepts, checked before the sieve, which
# needs about 4 bytes per integer below the bound; both sweeps grow as the
# bound squared: verify mod4 took 11.2 s at 2 * 10^4 (about 280 s at its
# cap), verify prime-theorem 375 s with its bound and graph_max at their caps
_PMAX_CAP = 10**5
_PRIME_THEOREM_PMAX_CAP = 2 * 10**4
# largest graph_max: a graph-checked record took 1.1 s at p = 1009, growing
# as p^2, and graph-checking every prime up to the cap took 37 s
_GRAPH_MAX_CAP = 1000


def _odd_primes(limit: int, cap: int = _PMAX_CAP) -> list[int]:
    if limit > cap:
        raise ResultTooLarge(f"a sweep to {limit} exceeds the cap {cap}")
    return [p for p in primes_up_to(limit) if p != 2]


def _prime_theorem_primes(p_max: int, graph_max: int) -> list[int]:
    """The primes of a two-class sweep, once its bound and graph_max pass their caps."""
    if graph_max > _GRAPH_MAX_CAP:
        raise ResultTooLarge(f"graph checks up to {graph_max} exceed the cap {_GRAPH_MAX_CAP}")
    return _odd_primes(p_max, _PRIME_THEOREM_PMAX_CAP)


def _is_two_clique_graph(p, class_a, class_b):
    """Brute-force check: the rationality graph is exactly these two cliques.

    Every pair is tested once: rational exactly when both points lie in the same class.
    The squared distance and the square set are this function's own integer formulas,
    not the field's _squared_distance and square-root table, which the partition
    uses: keep them so, or the check would share the kernels it checks.
    """
    squares = {x * x % p for x in range(p)}
    pts = [(x, y, (x, y) in class_a) for x, y in sorted(class_a | class_b)]
    for i, (xi, yi, in_a) in enumerate(pts):
        for xj, yj, also_in_a in pts[i + 1:]:
            if (((xi - xj) ** 2 + (yi - yj) ** 2) % p in squares) != (in_a == also_in_a):
                return False
    return True


def prime_theorem_record(p: int, graph_max: int = 97) -> dict:
    """Check the two-class theorem for every radius of one prime field.

    The library partitions C((0,0), r) for r in 1, 2, p - 1 and the least
    non-square; each partition must give two classes of the theorem's
    size and, for p <= graph_max, a rationality graph of exactly those
    two cliques.  These radii decide all p - 1: scaling by r carries the
    unit circle onto radius r and multiplies squared distances by the
    nonzero square r^2, keeping sizes and rationality.  `class_size` is
    the measured size of the unit circle's first class, `expected` the
    theorem's.  A mismatch names its failed check (`class_sizes` or
    `two_cliques`) in `failed`, and the first radius where it failed in
    `counterexample`.
    """
    field = PrimeField(p)
    expected = cmaximal_cardinality(field, 1).n
    checks = {"class_sizes": True, "two_cliques": True}
    failure = None
    graph_checked = p <= graph_max
    for r in sorted({1, 2, p - 1, field._non_square}):
        first, second = _raw_partition(circle(field, (0, 0), r))
        if r == 1:
            class_size = len(first)
        if len(first) != expected or len(second) != expected:
            checks["class_sizes"] = False
            failure = {"r": r, "sizes": [len(first), len(second)]}
            break
        if graph_checked and not _is_two_clique_graph(p, set(first), set(second)):
            checks["two_cliques"] = False
            failure = {"r": r, "reason": "rationality graph is not two disjoint cliques"}
            break
    record = _with_verdict({
        "p": p,
        "radii": p - 1,
        "class_count": 2,
        "class_size": class_size,
        "expected": expected,
        "graph_checked": graph_checked,
    }, checks)
    if failure is not None:
        record["counterexample"] = failure
    return record


def verify_prime_field_theorem(p_max: int, graph_max: int = 97) -> list[dict]:
    """Two-class theorem sweep over every odd prime up to p_max."""
    return [prime_theorem_record(p, graph_max) for p in _prime_theorem_primes(p_max, graph_max)]


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
    """Compare the table answer against a grown set for one cell.

    The set is grown from the marker, which lies on every circle; the
    rotations act transitively, so its size does not depend on the seed.
    An "at most two" answer's witness must be a rational pair of the
    circle, and may be missing only when the grown set has one point.
    """
    answer = cmaximal_cardinality(field, radius)
    c = Circle(PlanePoint(field.zero, field.zero), radius)
    grown = grow_maximal_set(c, point_from_parameter(c, AT_INFINITY))
    if answer.kind == "finite":
        expected_text = str(answer.n)
        checks = {"grown_size": len(grown) == answer.n}
    else:  # at_most_two (countably infinite never occurs on finite cells)
        expected_text = "<=2"
        checks = {
            "grown_size": len(grown) <= 2,
            "witness": len(grown) < 2 if answer.witness is None else _is_rational_pair(c, answer.witness),
        }
    return _with_verdict({
        "field": field.to_text(),
        "radius": str(radius),
        "expected": expected_text,
        "grown": len(grown),
    }, checks)


def _is_rational_pair(c: Circle, pair: tuple) -> bool:
    """Whether `pair` is two distinct points of `c` at rational squared distance."""
    return pair[0] != pair[1] and all(map(c.contains, pair)) and is_rational_distance(c, *pair)


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
