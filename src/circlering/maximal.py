"""Rationality classification of circle distances and maximal point sets.

A squared distance between two circle points is *rational* when it is a
square of the prime subfield.  A *circular point set* is a subset of a
circle whose points pairwise have rational squared distance; it is
e-maximal when no further circle point can be added, and c-maximal when
it also has the largest cardinality among e-maximal subsets.

This module builds those sets three ways (the two-class partition over
prime fields, growth through perfect distances, and exact clique search
on the seed's neighbours, which growth's rotations give) and also knows
the closed-form cardinality answer for every field kind and radius case.
"""

import dataclasses
import enum
from fractions import Fraction

from .errors import (
    CircleTooLarge,
    InfiniteField,
    NotPerfect,
    RadiusSquaredNotInPrimeField,
    WrongFieldKind,
)
from .fields import (
    FieldDescriptor,
    FieldElement,
    PrimeField,
    Rationals,
    _brief,
    _prime_square_roots,
    squarefree_part,
)
from .plane import (
    _ENUMERATION_CAP,
    AT_INFINITY,
    Circle,
    PlanePoint,
    PointAtInfinityMarker,
    _point,
    _positive_rationals,
    _raw_circle_points,
    _raw_marker,
    enumerate_circle,
    point_from_parameter,
    squared_distance,
)


class SetStatus(enum.Enum):
    UNCLASSIFIED = "unclassified"
    E_MAXIMAL = "e-maximal"
    C_MAXIMAL = "c-maximal"


@dataclasses.dataclass(frozen=True, slots=True)
class CircularPointSet:
    """A set of circle points with pairwise rational squared distances.

    The defining property is always validated at construction: every
    point must lie on the circle, and squared distances are tested on
    raw field values by the field's _rational.  Over a prime field and
    over Q rationality is a class relation (the field's
    _rational_is_class_relation), so every point is checked against the
    first one only; over a quadratic extension every pair is checked.
    `points` is kept as a sorted tuple without repeats.  `is_prefix`
    marks the finite prefix of a countably infinite set over Q.  Sets
    are frozen, and equal exactly when their circles and points are;
    `status` and `is_prefix` are not compared.
    """

    circle: Circle
    points: tuple
    status: SetStatus = dataclasses.field(default=SetStatus.UNCLASSIFIED, compare=False)
    is_prefix: bool = dataclasses.field(default=False, compare=False)

    def __post_init__(self):
        circle = self.circle
        pts = sorted(set(self.points), key=PlanePoint.sort_key)
        for p in pts:
            circle.require(p)
        field = circle.field
        anchors = pts[:1] if field._rational_is_class_relation else pts
        for i, p in enumerate(anchors):
            for q in pts[i + 1 :]:
                if not field._rational(p._xy, q._xy):
                    raise ValueError(
                        f"non-rational distance {squared_distance(p, q)} between {p} and {q}"
                    )
        object.__setattr__(self, "points", tuple(pts))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return p in self.points

    def distance_values(self) -> set:
        """All pairwise squared distances occurring inside the set."""
        field = self.circle.field
        raw = [p._xy for p in self.points]
        values = {field._squared_distance(a, b) for i, a in enumerate(raw) for b in raw[i + 1 :]}
        return {FieldElement(field, v) for v in values}

    def __repr__(self):
        body = ",".join(str(p) for p in self.points)
        return f"CircularPointSet[{self.status.value}]{{{body}}}"


@dataclasses.dataclass(frozen=True)
class PerfectDistanceReport:
    """Everything known about one candidate squared distance."""

    circle: Circle
    q: FieldElement
    is_rational: bool
    satisfies_acp: bool
    is_perfect: bool
    witness: tuple | None  # three points forming a rational triangle


@dataclasses.dataclass(frozen=True)
class CardinalityAnswer:
    """Cardinality of c-maximal circular point sets for one field/radius.

    kind is "finite" (with n set), "countably_infinite", or
    "at_most_two"; for the last, `witness` carries a rational pair when
    one exists, and is None when none does or when the characteristic
    passes the enumeration cap (10^6).
    """

    kind: str
    n: int | None = None
    witness: tuple | None = None


# most neighbours of the seed enumerate_emaximal_sets searches
_CLIQUE_CAP = 2048


def is_rational_distance(c: Circle, p: PlanePoint, q: PlanePoint) -> bool:
    """Whether two circle points have rational squared distance."""
    c.require(p)
    c.require(q)
    return c.field._rational(p._xy, q._xy)


def partition_prime_field_circle(c: Circle):
    """Split a prime-field circle into its two e-maximal classes.

    Returns (the points not rational to the marker (m1, m2 + r), the
    marker together with the points rational to it).  By the two-class
    theorem these two classes are exactly the e-maximal (hence
    c-maximal) circular point sets over a prime field.
    """
    field = c.field
    if not isinstance(field, PrimeField) or field.characteristic == 2:
        raise WrongFieldKind("partition needs a finite prime field of odd characteristic")
    return tuple(
        CircularPointSet(c, [_point(field, xy) for xy in cls], SetStatus.C_MAXIMAL)
        for cls in _raw_partition(c)
    )


def _raw_partition(c: Circle) -> tuple[list, list]:
    """partition_prime_field_circle on raw pairs, each class in sorted order (odd F_p only).

    The field's _rational as lookups in the square-root table of F_p,
    the one that listed the points: v is a square exactly when root[v] >= 0.
    """
    field = c.field
    marker = _raw_marker(c)
    distance = field._squared_distance
    root = _prime_square_roots(field.p)
    first, second = [], []
    for xy in _raw_circle_points(c):
        (second if root[distance(marker, xy)] >= 0 else first).append(xy)
    return first, second


def partition_rational_circle_points(c: Circle, sample):
    """Group sampled parameters on a Q-circle by rationality class.

    Each parameter t is keyed by the squarefree part of t^2 + 1 (the
    marker goes to coset 1); two sampled points have rational squared
    distance exactly when their keys agree.  Returns a dict from coset
    representative to CircularPointSet.
    """
    if not isinstance(c.field, Rationals):
        raise WrongFieldKind("coset partition applies to circles over Q")
    groups: dict[int, list[PlanePoint]] = {}
    for t in sample:
        if isinstance(t, PointAtInfinityMarker):
            key = 1
        else:
            value = t.value if isinstance(t, FieldElement) else Fraction(t)
            key = squarefree_part(value * value + 1)
        groups.setdefault(key, []).append(point_from_parameter(c, t))
    return {
        key: CircularPointSet(c, pts, SetStatus.UNCLASSIFIED)
        for key, pts in sorted(groups.items())
    }


def _four_r2(c: Circle):
    """The raw value 4r^2 of the circle; WrongFieldKind in characteristic 2, where it is 0."""
    field = c.field
    four_r2 = field._mul(field._canon(4), c._r2)
    if four_r2 == field._zero:
        raise WrongFieldKind("perfect distances are defined for characteristic != 2")
    return four_r2


def _acp(c: Circle, q) -> bool:
    """The algebraic circle property of a raw q: q and 1 - q/(4r^2) both prime squares."""
    field = c.field
    rest = field._sub(field._canon(1), field._mul(q, field._inv(_four_r2(c))))
    return field._is_prime_subfield_square(q) and field._is_prime_subfield_square(rest)


def check_acp(c: Circle, q) -> bool:
    """The algebraic circle property: q and 1 - q/(4r^2) both prime squares."""
    return _acp(c, c.field(q).value)


def _rotations(c: Circle, base: tuple):
    """q -> [base g_q, base g_q^-1], raw pairs, for a raw base on `c`; unchecked.

    g_q = (r - h, y), with h = q/(2r) and y the canonical root of
    q(1 - q/(4r^2)) = q - h^2 in F, is the point of C((0,0), r) at
    squared distance q from the identity (r, 0); the base rotated about
    the center by g_q^(+-1) is base - u h +- i u y, u = (base - center)/r.
    The closure returns None when q - h^2 is not a square of F; for q
    with the a.c.p. y is a prime-subfield root.  The one inversion is
    1/(2r) = 2r/(4r^2).
    """
    field = c.field
    add, sub, mul = field._add, field._sub, field._mul
    r = c.radius.value
    inv_2r = mul(add(r, r), field._inv(_four_r2(c)))
    inv_r = add(inv_2r, inv_2r)
    (b1, b2), (m1, m2) = base, c.center._xy
    u1, u2 = mul(sub(b1, m1), inv_r), mul(sub(b2, m2), inv_r)

    def at(q):
        h = mul(q, inv_2r)
        y_sq = sub(q, mul(h, h))  # q(1 - q/(4r^2))
        if not field._is_square(y_sq):
            return None
        y = field._sqrt(y_sq)
        x1, x2 = sub(b1, mul(u1, h)), sub(b2, mul(u2, h))
        uy1, uy2 = mul(u1, y), mul(u2, y)
        # base - u h +- i u y, with i u y = (-u2 y, u1 y)
        return [(sub(x1, uy2), add(x2, uy1)), (add(x1, uy2), sub(x2, uy1))]

    return at


def _rational_neighbours(c: Circle, at):
    """(xy, q) for every circle point xy at a nonzero prime-subfield square q from a base.

    `at` is _rotations(c, base); q runs through k^2, k = 1, ..., (p - 1)/2.
    The antipode, the one point at q = 4r^2, comes twice.
    """
    field = c.field
    squares = (field._canon(k * k) for k in range(1, (field.characteristic + 1) // 2))
    return ((xy, q) for q in squares for xy in at(q) or ())


def _witnesses(c: Circle):
    """q -> the witness triangle of a perfect raw value q: three circle points, pairwise rational.

    A = (m1 + r, m2) is checked on the circle once; the other two points
    are _points_at_distance(c, _rotations(c, A), A, q), each checked on
    the circle at squared distance q from A, in its sorted order.  For
    q = 4r^2 that is the antipode B alone, and C, the first point at
    _first_other_perfect(c) from A, follows, with (B, C) checked rational.
    The sort puts A g_q before A g_q^-1 on an origin-centred circle over
    a finite field; off the origin and over Q it may not.
    """
    field = c.field
    (m1, m2), r = c.center._xy, c.radius.value
    a = (field._add(m1, r), m2)
    at_a = _rotations(c, a)
    point_a = _point(field, a)
    c.require(point_a)

    def triangle(q):
        pts = _points_at_distance(c, at_a, a, q)
        if len(pts) == 1:  # q = 4r^2
            pts.append(_points_at_distance(c, at_a, a, _first_other_perfect(c))[0])
            if not field._rational(pts[0]._xy, pts[1]._xy):
                raise AssertionError(f"antipode triangle through {pts[1]} is not rational")
        return (point_a, *pts)

    return triangle


def _parametrized_perfect(c: Circle):
    """The raw perfect distances (4tr^2/(t^2+r^2))^2 other than 4r^2, each once.

    t runs through 1, ..., (p - 1)/2 of the prime subfield over a finite
    field, and through the positive rationals (Calkin-Wilf order) over
    Q; values t with t^2 = -r^2 name no distance.  The finite walk stops
    halfway because -t names the distance t does, so every distance's
    least parameter is at most (p - 1)/2.
    """
    field = c.field
    add, mul, inv = field._add, field._mul, field._inv
    r2 = c._r2
    four_r2 = _four_r2(c)
    if field.is_finite():
        params = map(field._canon, range(1, (field.characteristic + 1) // 2))
    else:
        params = _positive_rationals()
    zero = field._zero
    seen = {four_r2}
    for t in params:
        denom = add(mul(t, t), r2)
        if denom == zero:
            continue
        val = mul(mul(four_r2, t), inv(denom))
        q = mul(val, val)
        if q not in seen:
            seen.add(q)
            yield q


def _perfect_values(c: Circle):
    """The perfect distances of a circle in stream order, as raw values, without witnesses.

    Every q != 4r^2 arises as (4tr^2/(t^2+r^2))^2 for a prime-subfield
    parameter t; the remaining candidate 4r^2 is included only when it
    is a prime-subfield square and another perfect distance exists (see
    _first_other_perfect).  Finite fields give the parametrized
    values in ascending t and 4r^2 last; over Q the stream is infinite,
    starts with 4r^2, and then walks t through the positive rationals.
    Each value costs O(1) field operations, so the stream has no size
    cap; the callers that build the whole list check one.
    """
    field = c.field
    four_r2 = _four_r2(c)
    if not field._in_prime_subfield(c._r2):
        raise RadiusSquaredNotInPrimeField(
            "no circular point set of size >= 3 exists when r^2 is outside P(F)"
        )
    if field.is_finite():
        yield from _parametrized_perfect(c)
        if _is_perfect(c, four_r2):
            yield four_r2
        return
    # over Q: 4r^2 is always perfect (r is rational and other perfect
    # distances exist for every parameter t)
    yield four_r2
    yield from _parametrized_perfect(c)


def iter_perfect_distances(c: Circle):
    """Yield (q, witness_triangle) for the perfect distances of a circle.

    Finite fields yield the parametrized values in ascending parameter
    and 4r^2 last, when a rational triangle realizes it; over Q the
    stream is infinite and starts with 4r^2.
    """
    field = c.field
    witness = _witnesses(c)
    for q in _perfect_values(c):
        yield FieldElement(field, q), witness(q)


def perfect_distances(c: Circle) -> dict:
    """The exact set of perfect distances of a finite-field circle.

    Returns a dict mapping each perfect q to a witness triangle.  Over Q
    the set is countably infinite; use iter_perfect_distances there.  A
    characteristic past the enumeration cap (10^6) raises CircleTooLarge
    before any work.
    """
    if not c.field.is_finite():
        raise InfiniteField("use iter_perfect_distances over Q")
    p = c.field.characteristic
    if p > _ENUMERATION_CAP:
        raise CircleTooLarge(f"the characteristic {p} exceeds the cap {_ENUMERATION_CAP}")
    return dict(iter_perfect_distances(c))


def _first_other_perfect(c: Circle):
    """The first parametrized perfect distance different from 4r^2 (raw), if any.

    When 4r^2 is a prime-subfield square it is perfect exactly when this
    is not None.  For the antipodes A, B and every circle point C,
    d(A,C) + d(B,C) = 4r^2 (Thales), so a rational triangle ABC makes
    u = d(A,C) a value with u and 1 - u/(4r^2) both squares: another
    perfect distance.  Conversely _witnesses builds ABC from one.
    """
    return next(_parametrized_perfect(c), None)


def is_perfect_distance(c: Circle, q) -> bool:
    """Whether q is perfect for the circle (no witness construction).

    q != 4r^2 is perfect exactly when it is nonzero, rational, and
    satisfies the algebraic circle property; q = 4r^2 additionally
    needs some rational triangle to realize it, which exists exactly
    when some other perfect distance does.
    """
    return _is_perfect(c, c.field(q).value)


def _is_perfect(c: Circle, q) -> bool:
    """is_perfect_distance on a raw q, the one perfectness rule; False when r^2 is outside P(F)."""
    field = c.field
    four_r2 = _four_r2(c)
    if q == field._zero or not _acp(c, q) or not field._in_prime_subfield(c._r2):
        return False
    return q != four_r2 or _first_other_perfect(c) is not None


def perfect_distance_report(c: Circle, q) -> PerfectDistanceReport:
    """Classify one squared distance: rationality, a.c.p., perfectness."""
    q = c.field(q)
    rational = q.is_prime_subfield_square()
    acp = _acp(c, q.value)
    perfect = _is_perfect(c, q.value)
    witness = _witnesses(c)(q.value) if perfect else None
    return PerfectDistanceReport(c, q, rational, acp, perfect, witness)


def points_at_distance(c: Circle, base: PlanePoint, q) -> list[PlanePoint]:
    """The circle points at a perfect squared distance q from `base`.

    Exactly two points unless q = 4r^2, which is realized only by the
    antipode.  They are the base rotated about the center by g_q and by
    its inverse (see _rotations).  Raises NotPerfect when q lacks the
    algebraic certificate (nonzero, rational, a.c.p.) the construction
    needs.
    """
    q = c.field(q)
    c.require(base)
    if q.is_zero() or not _acp(c, q.value):
        raise NotPerfect(f"{_brief(q)} is not realizable as a perfect distance on {_brief(c)}")
    raw = base._xy
    return _points_at_distance(c, _rotations(c, raw), raw, q.value)


def _points_at_distance(c: Circle, at, base: tuple, q) -> list[PlanePoint]:
    """The circle points at squared distance q from a raw base on `c`, sorted, for a raw q.

    `at` is _rotations(c, base), and q(1 - q/(4r^2)) must be a square of
    F, as it is for a perfect q.  Every returned point is checked to lie
    on the circle at squared distance q from the base.
    """
    field = c.field
    out = [_point(field, xy) for xy in sorted(set(at(q)))]
    for p in out:
        c.require(p)
        if not field._is_at(base, p._xy, q):
            d = field._squared_distance(base, p._xy)
            raise AssertionError(
                f"{p} is at {FieldElement(field, d)}, not {FieldElement(field, q)}, "
                f"from {_point(field, base)}"
            )
    return out


def iter_maximal_points(c: Circle, seed: PlanePoint):
    """Lazy stream of the c-maximal circular point set containing `seed`.

    Yields the seed and then, for each perfect distance in stream
    order, the one or two circle points realizing it from the seed.
    No point repeats: the perfect distances are distinct and nonzero,
    and each point's squared distance from the seed names its q.
    Over Q this never terminates (the set is countably infinite).
    """
    c.require(seed)
    yield seed
    base = seed._xy
    at = _rotations(c, base)
    for q in _perfect_values(c):
        yield from _points_at_distance(c, at, base, q)


def grow_maximal_set(c: Circle, seed: PlanePoint, prefix: int = 64) -> CircularPointSet:
    """The c-maximal circular point set containing `seed`.

    Constructed as the seed plus every point at a perfect distance from
    it; the result is validated like every CircularPointSet.  Finite
    fields give the complete set, whose size is 1 + 2*(#perfect
    distances != 4r^2) + (1 if 4r^2 is perfect).  Over Q the set is
    countably infinite and a prefix of `prefix` points is returned
    (is_prefix=True); iter_maximal_points continues the stream.

    When r^2 lies outside the prime subfield, or no perfect distance
    exists, the best rational set through the seed has at most two
    points: the seed and the least of _rational_neighbours in raw order,
    if any, checked at its distance.  A characteristic past the
    enumeration cap (10^6) raises CircleTooLarge before any work.
    """
    field = c.field
    c.require(seed)
    if field.characteristic == 2:
        return CircularPointSet(c, enumerate_circle(c), SetStatus.C_MAXIMAL)
    if not field.is_finite():
        stream = iter_maximal_points(c, seed)
        pts = [next(stream) for _ in range(max(prefix, 1))]
        return CircularPointSet(c, pts, SetStatus.C_MAXIMAL, is_prefix=True)
    p = field.characteristic
    if p > _ENUMERATION_CAP:
        raise CircleTooLarge(f"the characteristic {p} exceeds the cap {_ENUMERATION_CAP}")
    pts = list(iter_maximal_points(c, seed)) if field._in_prime_subfield(c._r2) else [seed]
    if len(pts) == 1:  # no perfect distance: the least rational partner, if any
        base = seed._xy
        at = _rotations(c, base)
        least = min(_rational_neighbours(c, at), default=None)
        if least:  # the least partner is the lesser point at its q, checked there
            pts.append(_points_at_distance(c, at, base, least[1])[0])
    return CircularPointSet(c, pts, SetStatus.C_MAXIMAL)


def _rationality_adjacency(field: FieldDescriptor, points: list[tuple]) -> list[int]:
    """Bitmask adjacency of the rationality graph on raw points of a finite field.

    Compares raw squared distances against the squares of F_p's square-root table.
    """
    root = _prime_square_roots(field.characteristic)
    squares = {field._canon(v) for v, k in enumerate(root) if k >= 0}
    distance = field._squared_distance
    n = len(points)
    adj = [0] * n
    for i in range(n):
        pi = points[i]
        for j in range(i + 1, n):
            if distance(pi, points[j]) in squares:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _maximal_cliques(adj: list[int]) -> list[int]:
    """Every maximal clique of a bitmask graph, as masks: pivoted Bron-Kerbosch on an explicit stack.

    A frame branches on its lowest pool vertex and is pushed back below
    that branch, so cliques come in the order of the recursive form.
    """
    found = []
    stack = [(0, (1 << len(adj)) - 1, 0, None)]
    while stack:
        grown, cands, excluded, pool = stack.pop()
        if pool is None:
            if not cands | excluded:
                found.append(grown)
                continue
            pool = cands & ~adj[(cands | excluded).bit_length() - 1]
        if pool:
            bit = pool & -pool
            v = bit.bit_length() - 1
            stack.append((grown, cands & ~bit, excluded | bit, pool & ~bit))
            stack.append((grown | bit, cands & adj[v], excluded & adj[v], None))
    return found


def enumerate_emaximal_sets(c: Circle, seed: PlanePoint):
    """All e-maximal circular point sets containing `seed`, by clique search.

    A maximal clique through the seed is the seed plus a maximal clique
    of its neighbours, and _rational_neighbours builds them all: every
    other point is seed g at d = 2r(r - g1), so d fixes g1 and g2 = +-y.
    Exact pivoted Bron-Kerbosch runs on their rationality graph, on an
    explicit stack.  Results are sorted largest-first, then by raw
    points; the largest are c-maximal, which is globally correct because
    rotations carry cliques through any point to cliques through any
    other.  In characteristic 2 the one set is the circle.  The seed has
    at most (p - 1)/2 neighbours where rationality is a class relation
    (its class has (p +- 1)/2 points), p - 1 over F_{p^2} (two per
    square of F_p^*); a bound past _CLIQUE_CAP raises CircleTooLarge
    before any work.
    """
    field = c.field
    if not field.is_finite():
        raise InfiniteField("circles over Q have infinitely many points")
    p = field.characteristic
    bound = (p - 1) // 2 if field._rational_is_class_relation else p - 1
    if bound > _CLIQUE_CAP:
        raise CircleTooLarge(f"{bound} possible neighbours of the seed exceed the cap {_CLIQUE_CAP}")
    if p == 2:
        return [grow_maximal_set(c, seed)]
    c.require(seed)
    s = seed._xy
    nbrs = sorted({xy for xy, _ in _rational_neighbours(c, _rotations(c, s))})
    cliques = [
        sorted([s, *(xy for i, xy in enumerate(nbrs) if mask >> i & 1)])
        for mask in _maximal_cliques(_rationality_adjacency(field, nbrs))
    ]
    cliques.sort(key=lambda ms: (-len(ms), ms))
    best = len(cliques[0])  # the seed alone is a clique when it has no neighbour
    return [
        CircularPointSet(c, [_point(field, xy) for xy in ms],
                         SetStatus.C_MAXIMAL if len(ms) == best else SetStatus.E_MAXIMAL)
        for ms in cliques
    ]


def cmaximal_cardinality(field: FieldDescriptor, r) -> CardinalityAnswer:
    """Cardinality of c-maximal circular point sets for this field and radius.

    Implements the closed-form answer: |F| in characteristic 2; 2 in
    characteristic 3 (at most 2 when r^2 leaves the prime subfield);
    (char +- 1)/2 for larger finite characteristic, the sign fixed by
    whether -1 is a square in the prime subfield and by where r sits;
    countably infinite over Q.  "At most two" answers carry the witness
    pair (marker (0, r), its least rational partner) that
    grow_maximal_set finds from the marker, or None when there is no
    partner; past the enumeration cap (characteristic above 10^6) the
    witness is not looked for and is None.
    """
    c = Circle(PlanePoint(field.zero, field.zero), field(r))  # ZeroRadius for r = 0
    r, char = c.radius, field.characteristic
    if char == 2:
        return CardinalityAnswer("finite", field.order)
    if char == 0:
        return CardinalityAnswer("countably_infinite")
    if not field._in_prime_subfield(c._r2):
        witness = None
        if char <= _ENUMERATION_CAP:
            marker = point_from_parameter(c, AT_INFINITY)
            partner = [pt for pt in grow_maximal_set(c, marker) if pt != marker]
            witness = (marker, *partner) if partner else None
        return CardinalityAnswer("at_most_two", witness=witness)
    if char == 3:
        return CardinalityAnswer("finite", 2)
    root_of_minus_one = field(-1).is_prime_subfield_square()
    if r.in_prime_subfield():
        n = (char - 1) // 2 if root_of_minus_one else (char + 1) // 2
    else:
        n = (char + 1) // 2 if root_of_minus_one else (char - 1) // 2
    return CardinalityAnswer("finite", n)
