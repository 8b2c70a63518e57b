"""Rationality classification of circle distances and maximal point sets.

A squared distance between two circle points is *rational* when it is a
square of the prime subfield.  A *circular point set* is a subset of a
circle whose points pairwise have rational squared distance; it is
e-maximal when no further circle point can be added, and c-maximal when
it also has the largest cardinality among e-maximal subsets.

This module builds those sets three independent ways (the two-class
partition over prime fields, growth through perfect distances, and
exact clique search on the rationality graph) and also knows the
closed-form cardinality answer for every field kind and radius case.
"""

import enum
from dataclasses import dataclass
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
    QuadraticExtension,
    Rationals,
    contains_sqrt_minus_one,
    prime_square_values,
    squarefree_part,
)
from .plane import (
    AT_INFINITY,
    Circle,
    PlanePoint,
    PointAtInfinityMarker,
    _positive_rationals,
    enumerate_circle,
    point_from_parameter,
    rotate,
    rotation_between,
    squared_distance,
)


class SetStatus(enum.Enum):
    UNCLASSIFIED = "unclassified"
    E_MAXIMAL = "e-maximal"
    C_MAXIMAL = "c-maximal"


class CircularPointSet:
    """A set of circle points with pairwise rational squared distances.

    The defining property is always validated at construction.  Over a
    prime field and over Q rationality is a class relation (two-class
    theorem), so every point is checked against the first one only;
    over a quadratic extension it is not transitive and every pair is
    checked.  `is_prefix` marks the finite prefix of a countably
    infinite set over Q.
    """

    __slots__ = ("circle", "points", "status", "is_prefix")

    def __init__(self, circle, points, status=SetStatus.UNCLASSIFIED,
                 is_prefix=False):
        pts = sorted(set(points), key=PlanePoint.sort_key)
        for p in pts:
            circle.require(p)
        anchors = pts if isinstance(circle.field, QuadraticExtension) else pts[:1]
        for i, p in enumerate(anchors):
            for q in pts[i + 1 :]:
                if not _rational(p, q):
                    raise ValueError(
                        f"non-rational distance {squared_distance(p, q)} between {p} and {q}"
                    )
        self.circle = circle
        self.points = tuple(pts)
        self.status = status
        self.is_prefix = is_prefix

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return p in self.points

    def __eq__(self, other):
        return (
            isinstance(other, CircularPointSet)
            and self.circle == other.circle
            and self.points == other.points
        )

    def __hash__(self):
        return hash((self.circle, self.points))

    def distance_values(self) -> set:
        """All pairwise squared distances occurring inside the set."""
        out = set()
        for i, p in enumerate(self.points):
            for q in self.points[i + 1 :]:
                out.add(squared_distance(p, q))
        return out

    def __repr__(self):
        body = ",".join(str(p) for p in self.points)
        return f"CircularPointSet[{self.status.value}]{{{body}}}"


@dataclass(frozen=True)
class PerfectDistanceReport:
    """Everything known about one candidate squared distance."""

    circle: Circle
    q: FieldElement
    is_rational: bool
    satisfies_acp: bool
    is_perfect: bool
    witness: tuple | None  # three points forming a rational triangle


@dataclass(frozen=True)
class CardinalityAnswer:
    """Cardinality of c-maximal circular point sets for one field/radius.

    kind is "finite" (with n set), "countably_infinite", or
    "at_most_two"; for the last, `witness` carries a rational pair when
    one exists.
    """

    kind: str
    n: int | None = None
    witness: tuple | None = None


def _rational(p: PlanePoint, q: PlanePoint) -> bool:
    """The rational-pair relation: the squared distance is a prime-subfield square."""
    return squared_distance(p, q).is_prime_subfield_square()


def is_rational_distance(c: Circle, p: PlanePoint, q: PlanePoint) -> bool:
    """Whether two circle points have rational squared distance."""
    c.require(p)
    c.require(q)
    return _rational(p, q)


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
    marker = point_from_parameter(c, AT_INFINITY)
    first, second = [], []
    for p in enumerate_circle(c):
        (second if _rational(marker, p) else first).append(p)
    return (
        CircularPointSet(c, first, SetStatus.C_MAXIMAL),
        CircularPointSet(c, second, SetStatus.C_MAXIMAL),
    )


def partition_rational_circle_points(c: Circle, sample, bound: int = 10**6):
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
            key = squarefree_part(value * value + 1, bound)
        groups.setdefault(key, []).append(point_from_parameter(c, t))
    return {
        key: CircularPointSet(c, pts, SetStatus.UNCLASSIFIED)
        for key, pts in sorted(groups.items())
    }


def check_acp(c: Circle, q) -> bool:
    """The algebraic circle property: q and 1 - q/(4r^2) both prime squares."""
    field = c.field
    q = field(q)
    r2 = c.radius * c.radius
    rest = field.one - q / (field.from_int(4) * r2)
    return q.is_prime_subfield_square() and rest.is_prime_subfield_square()


def _witness_triangle(c: Circle, q: FieldElement):
    """Rational triangle realizing q: (r,0), (x,y), (x,-y) shifted to center.

    x = r - q/(2r) and y is the prime-subfield root of q(1 - q/(4r^2));
    valid whenever q is nonzero, rational, and satisfies the algebraic
    circle property.
    """
    field = c.field
    r = c.radius
    two = field.from_int(2)
    four = field.from_int(4)
    x = r - q / (two * r)
    y = (q * (field.one - q / (four * r * r))).prime_sqrt()
    p1 = c.center + PlanePoint(r, field.zero)
    p2 = c.center + PlanePoint(x, y)
    p3 = c.center + PlanePoint(x, -y)
    for p in (p1, p2, p3):
        c.require(p)
    if squared_distance(p1, p2) != q:
        raise AssertionError(f"witness triangle for {q} has side {squared_distance(p1, p2)}")
    return (p1, p2, p3)


def _antipode_triangle(c: Circle, other_q: FieldElement):
    """Rational triangle with one side 4r^2, built from another perfect q."""
    field = c.field
    r = c.radius
    p1 = c.center + PlanePoint(r, field.zero)
    p2 = c.center + PlanePoint(-r, field.zero)
    third = points_at_distance(c, p1, other_q)[0]
    if not _rational(p2, third):
        raise AssertionError(f"antipode triangle through {third} is not rational")
    return (p1, p2, third)


def _search_antipodal_triangle(c: Circle):
    """Exhaustive search for a rational triangle with a 4r^2 side."""
    field = c.field
    if not field.is_finite():
        return None
    r = c.radius
    p1 = c.center + PlanePoint(r, field.zero)
    p2 = c.center + PlanePoint(-r, field.zero)
    for cand in enumerate_circle(c):
        if cand in (p1, p2):
            continue
        if _rational(p1, cand) and _rational(p2, cand):
            return (p1, p2, cand)
    return None


def _antipodal_witness(c: Circle):
    """A rational triangle with a 4r^2 side, or None when none exists."""
    other = _first_other_perfect(c)
    return _antipode_triangle(c, other) if other is not None else _search_antipodal_triangle(c)


def _q_of(t: FieldElement, r2: FieldElement) -> FieldElement | None:
    """The perfect distance (4tr^2/(t^2+r^2))^2 named by t; None when t^2 = -r^2."""
    denom = t * t + r2
    if denom.is_zero():
        return None
    val = t.field.from_int(4) * t * r2 / denom
    return val * val


def iter_perfect_distances(c: Circle):
    """Yield (q, witness_triangle) for the perfect distances of a circle.

    Every q != 4r^2 arises as (4tr^2/(t^2+r^2))^2 for a prime-subfield
    parameter t; the remaining candidate 4r^2 is included only when a
    rational triangle actually realizes it.  Finite fields yield the
    parametrized values in ascending t and 4r^2 last; over Q the stream
    is infinite, starts with 4r^2, and then walks t through the
    positive rationals.
    """
    field = c.field
    if field.characteristic == 2:
        raise WrongFieldKind("perfect distances are defined for characteristic != 2")
    r = c.radius
    r2 = r * r
    if not r2.in_prime_subfield():
        raise RadiusSquaredNotInPrimeField(
            "no circular point set of size >= 3 exists when r^2 is outside P(F)"
        )
    four_r2 = field.from_int(4) * r2

    if field.is_finite():
        seen = set()
        for k in range(1, field.characteristic):
            q = _q_of(field.from_int(k), r2)
            if q is None or q == four_r2 or q in seen:
                continue
            seen.add(q)
            yield q, _witness_triangle(c, q)
        if four_r2.is_prime_subfield_square():
            triangle = _antipodal_witness(c)
            if triangle is not None:
                yield four_r2, triangle
        return

    # over Q: 4r^2 is always perfect (r is rational and other perfect
    # distances exist for every parameter t)
    yield four_r2, _antipodal_witness(c)
    seen = {four_r2}
    for t in _positive_rationals():
        q = _q_of(field(t), r2)
        if q is not None and q not in seen:
            seen.add(q)
            yield q, _witness_triangle(c, q)


def perfect_distances(c: Circle) -> dict:
    """The exact set of perfect distances of a finite-field circle.

    Returns a dict mapping each perfect q to a witness triangle.  Over Q
    the set is countably infinite; use iter_perfect_distances there.
    """
    if not c.field.is_finite():
        raise InfiniteField("use iter_perfect_distances over Q")
    return dict(iter_perfect_distances(c))


def _first_other_perfect(c: Circle) -> FieldElement | None:
    """The first parametrized perfect distance different from 4r^2, if any."""
    field = c.field
    r2 = c.radius * c.radius
    four_r2 = field.from_int(4) * r2
    bound = field.characteristic if field.is_finite() else 4
    for k in range(1, bound):
        q = _q_of(field.from_int(k), r2)
        if q is not None and q != four_r2:
            return q
    return None


def is_perfect_distance(c: Circle, q) -> bool:
    """Whether q is perfect for the circle (no witness construction).

    q != 4r^2 is perfect exactly when it is nonzero, rational, and
    satisfies the algebraic circle property; q = 4r^2 additionally
    needs some rational triangle to realize it, which is automatic as
    soon as any other perfect distance exists.
    """
    field = c.field
    if field.characteristic == 2:
        raise WrongFieldKind("perfect distances are defined for characteristic != 2")
    q = field(q)
    return _is_perfect(c, q, check_acp(c, q))


def _is_perfect(c: Circle, q: FieldElement, acp: bool) -> bool:
    """is_perfect_distance for a q whose a.c.p. verdict is already known."""
    r2 = c.radius * c.radius
    if q.is_zero() or not acp or not r2.in_prime_subfield():
        return False
    if q != c.field.from_int(4) * r2:
        return True
    if _first_other_perfect(c) is not None:
        return True
    return _search_antipodal_triangle(c) is not None


def perfect_distance_report(c: Circle, q) -> PerfectDistanceReport:
    """Classify one squared distance: rationality, a.c.p., perfectness."""
    field = c.field
    if field.characteristic == 2:
        raise WrongFieldKind("perfect distances are defined for characteristic != 2")
    q = field(q)
    rational = q.is_prime_subfield_square()
    acp = check_acp(c, q)
    perfect = _is_perfect(c, q, acp)
    witness = None
    if perfect:
        if q != field.from_int(4) * (c.radius * c.radius):
            witness = _witness_triangle(c, q)
        else:
            witness = _antipodal_witness(c)
    return PerfectDistanceReport(c, q, rational, acp, perfect, witness)


def points_at_distance(c: Circle, base: PlanePoint, q) -> list[PlanePoint]:
    """The circle points at a perfect squared distance q from `base`.

    Exactly two points unless q = 4r^2, which is realized only by the
    antipode.  The base is moved to (0, -r) by an isometry, the closed
    form (+-alpha*beta, q/(2r) - r) is applied, and the isometry is
    undone.  Raises NotPerfect when q lacks the algebraic certificate
    (nonzero, rational, a.c.p.) the construction needs.
    """
    field = c.field
    q = field(q)
    c.require(base)
    if q.is_zero() or not check_acp(c, q):
        raise NotPerfect(f"{q} is not realizable as a perfect distance on {c}")
    r = c.radius
    two = field.from_int(2)
    four = field.from_int(4)
    alpha = q.prime_sqrt()
    beta = (field.one - q / (four * r * r)).prime_sqrt()
    origin_circle = Circle(PlanePoint(field.zero, field.zero), r)
    anchor = PlanePoint(field.zero, -r)
    rho = rotation_between(anchor, base - c.center, origin_circle)
    second = q / (two * r) - r
    raw = {PlanePoint(alpha * beta, second), PlanePoint(-(alpha * beta), second)}
    out = sorted((rotate(p, rho) + c.center for p in raw), key=PlanePoint.sort_key)
    for p in out:
        c.require(p)
        if squared_distance(base, p) != q:
            raise AssertionError(f"{p} is at {squared_distance(base, p)}, not {q}, from {base}")
    return out


def _rational_partner(c: Circle, seed: PlanePoint) -> PlanePoint | None:
    """The first circle point other than `seed` rational to it, or None.

    Exhaustive scan of a finite circle.  By the uniformity property a
    rational partner of any point exists exactly when one exists for
    the seed.
    """
    for cand in enumerate_circle(c):
        if cand != seed and _rational(seed, cand):
            return cand
    return None


def iter_maximal_points(c: Circle, seed: PlanePoint):
    """Lazy stream of the c-maximal circular point set containing `seed`.

    Yields the seed and then, for each perfect distance in stream
    order, the one or two circle points realizing it from the seed.
    Over Q this never terminates (the set is countably infinite).
    """
    c.require(seed)
    yield seed
    emitted = {seed}
    for q, _ in iter_perfect_distances(c):
        for p in points_at_distance(c, seed, q):
            if p not in emitted:
                emitted.add(p)
                yield p


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
    points and is found by exhaustive scan.
    """
    field = c.field
    c.require(seed)
    if field.characteristic == 2:
        return CircularPointSet(c, enumerate_circle(c), SetStatus.C_MAXIMAL)
    if not field.is_finite():
        stream = iter_maximal_points(c, seed)
        pts = [next(stream) for _ in range(max(prefix, 1))]
        return CircularPointSet(c, pts, SetStatus.C_MAXIMAL, is_prefix=True)
    pd = perfect_distances(c) if (c.radius * c.radius).in_prime_subfield() else {}
    pts = [seed]
    for q in pd:
        pts.extend(points_at_distance(c, seed, q))
    if not pd:
        partner = _rational_partner(c, seed)
        if partner is not None:
            pts.append(partner)
    return CircularPointSet(c, pts, SetStatus.C_MAXIMAL)


def rationality_adjacency(points: list[PlanePoint]) -> list[int]:
    """Bitmask adjacency of the rationality graph on the given points."""
    n = len(points)
    adj = [0] * n
    if n == 0:
        return adj
    field = points[0].field
    if field.is_finite() and field.characteristic != 2:
        # fast path: compare raw residues against the prime-subfield squares
        squares = prime_square_values(field.characteristic)
        if not isinstance(field, PrimeField):
            squares = {(s, 0) for s in squares}
        rational = lambda p, q: squared_distance(p, q).value in squares
    else:
        rational = _rational
    for i in range(n):
        pi = points[i]
        for j in range(i + 1, n):
            if rational(pi, points[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _bron_kerbosch(adj, grown, cands, excluded, out):
    if cands == 0 and excluded == 0:
        out.append(grown)
        return
    pivot = (cands | excluded).bit_length() - 1
    pool = cands & ~adj[pivot]
    while pool:
        bit = pool & -pool
        v = bit.bit_length() - 1
        _bron_kerbosch(adj, grown | bit, cands & adj[v], excluded & adj[v], out)
        cands &= ~bit
        excluded |= bit
        pool &= ~bit


def enumerate_emaximal_sets(c: Circle, seed: PlanePoint, cap: int = 4096):
    """All e-maximal circular point sets containing `seed`, by clique search.

    Runs exact Bron-Kerbosch on the rationality graph restricted to the
    seed's closed neighbourhood (a clique through the seed can only use
    its neighbours, so maximality there is maximality in the full
    graph).  Results are sorted largest-first; the largest are marked
    c-maximal, which is also globally correct because rotations carry
    cliques through any point to cliques through any other.
    """
    pts = enumerate_circle(c)
    if len(pts) > cap:
        raise CircleTooLarge(f"{len(pts)} circle points exceed the cap {cap}")
    c.require(seed)
    index = {p: i for i, p in enumerate(pts)}
    adj = rationality_adjacency(pts)
    s = index[seed]
    found: list[int] = []
    _bron_kerbosch(adj, 1 << s, adj[s], 0, found)
    cliques = []
    for mask in found:
        members = [pts[i] for i in range(len(pts)) if mask >> i & 1]
        cliques.append(members)
    cliques.sort(key=lambda ms: (-len(ms), [m.sort_key() for m in ms]))
    best = len(cliques[0]) if cliques else 0
    return [
        CircularPointSet(
            c,
            ms,
            SetStatus.C_MAXIMAL if len(ms) == best else SetStatus.E_MAXIMAL,
        )
        for ms in cliques
    ]


def cmaximal_cardinality(field: FieldDescriptor, r, witness_cap: int = 10_000) -> CardinalityAnswer:
    """Cardinality of c-maximal circular point sets for this field and radius.

    Implements the closed-form answer: |F| in characteristic 2; 2 in
    characteristic 3 (at most 2 when r^2 leaves the prime subfield);
    (char +- 1)/2 for larger finite characteristic, the sign fixed by
    whether -1 is a square in the prime subfield and by where r sits;
    countably infinite over Q.  "At most two" answers carry a witness
    pair through the marker point (0, r) when an exhaustive scan (up to
    witness_cap circle points) finds one.
    """
    r = field(r)
    if r.is_zero():
        raise ValueError("radius must be nonzero")
    char = field.characteristic
    if char == 2:
        return CardinalityAnswer("finite", field.order)
    if char == 0:
        return CardinalityAnswer("countably_infinite")
    r2 = r * r
    if not r2.in_prime_subfield():
        witness = None
        if field.order + 1 <= witness_cap:
            c = Circle(PlanePoint(field.zero, field.zero), r)
            marker = point_from_parameter(c, AT_INFINITY)
            partner = _rational_partner(c, marker)
            if partner is not None:
                witness = (marker, partner)
        return CardinalityAnswer("at_most_two", witness=witness)
    if char == 3:
        return CardinalityAnswer("finite", 2)
    root_of_minus_one = contains_sqrt_minus_one(PrimeField(char))
    if r.in_prime_subfield():
        n = (char - 1) // 2 if root_of_minus_one else (char + 1) // 2
    else:
        n = (char + 1) // 2 if root_of_minus_one else (char - 1) // 2
    return CardinalityAnswer("finite", n)


def distance_profile(points: list[PlanePoint], origin_point: PlanePoint):
    """Multiset of squared distances from one point to the rest."""
    values = [
        squared_distance(origin_point, p).sort_key()
        for p in points
        if p != origin_point
    ]
    return tuple(sorted(values))


def points_have_uniformity(points: list[PlanePoint]) -> bool:
    """Whether every point of the finite curve sees one distance profile."""
    if not points:
        return True
    first = distance_profile(points, points[0])
    return all(distance_profile(points, p) == first for p in points[1:])


def check_uniformity(c: Circle, cap: int = 4096) -> bool:
    """Exhaustive uniformity check for a finite-field circle (test oracle)."""
    pts = enumerate_circle(c)
    if len(pts) > cap:
        raise CircleTooLarge(f"{len(pts)} circle points exceed the cap {cap}")
    return points_have_uniformity(pts)
