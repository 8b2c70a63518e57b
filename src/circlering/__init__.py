"""circlering: exact circles over prime fields, quadratic extensions, and Q.

Construction and classification of rational circular point sets,
perfect distances, the circle rotation group, and a toy key exchange on
it, all in exact arithmetic.
"""

from .errors import (
    CircleMismatch,
    CircleRingError,
    CircleTooLarge,
    DegenerateBasePoint,
    DescriptorMismatch,
    DivisionByZero,
    FactorBoundExceeded,
    InfiniteField,
    MalformedMessage,
    NotASquare,
    NotCoprime,
    NotPerfect,
    ParameterSquaresToMinusOne,
    ParseError,
    PointNotOnCircle,
    RadiusSquaredNotInPrimeField,
    ResultTooLarge,
    VersionMismatch,
    WrongFieldKind,
    ZeroRadius,
)
from .fields import (
    FieldDescriptor,
    FieldElement,
    PrimeField,
    QuadraticExtension,
    Rationals,
    contains_sqrt_minus_one,
    is_prime,
    parse_descriptor,
    squarefree_part,
)
from .plane import (
    AT_INFINITY,
    Circle,
    PlanePoint,
    circle,
    circle_cardinality,
    enumerate_circle,
    enumerate_rational_points,
    point,
    point_from_parameter,
    squared_distance,
)
from .maximal import (
    CardinalityAnswer,
    CircularPointSet,
    PerfectDistanceReport,
    SetStatus,
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
from .rotation import (
    CyclicityReport,
    RotationElement,
    classify_cyclicity,
    element_order,
    gaussian_norm_square_check,
    group_order,
    identity_element,
    induced_squared_distance,
    rot_mul,
    rot_pow,
    rot_sqrt,
    rotation_element,
)
from .keyex import (
    PartyState,
    ProtocolParams,
    Transcript,
    brute_force_dlog,
    decode,
    derive_shared,
    encode,
    keygen,
    simulate_exchange,
)
from . import sweeps

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
