"""Exception types shared by all circlering modules.

Every error subclasses CircleRingError, and additionally the closest
builtin (ZeroDivisionError, TypeError, ValueError) so that generic
handlers keep working.
"""


class CircleRingError(Exception):
    """Base class for all circlering errors."""


class DivisionByZero(CircleRingError, ZeroDivisionError):
    """Division by zero or inverse of zero in a field."""


class DescriptorMismatch(CircleRingError, TypeError):
    """Arithmetic between elements of different fields."""


class NotASquare(CircleRingError, ValueError):
    """Square root requested of a non-square element."""


class InfiniteField(CircleRingError, ValueError):
    """A finite enumeration was requested over the rationals."""


class FactorBoundExceeded(CircleRingError, ValueError):
    """Trial division exceeded its bound; input is outside desk scale."""


class WrongFieldKind(CircleRingError, TypeError):
    """Operation requires a different field kind (e.g. a prime field)."""


class ZeroRadius(CircleRingError, ValueError):
    """Circle constructed with radius zero (degenerate conic)."""


class PointNotOnCircle(CircleRingError, ValueError):
    """A point required to lie on a circle does not."""


class ParameterSquaresToMinusOne(CircleRingError, ValueError):
    """Circle parameter t with t^2 = -1 does not name a point."""


class RadiusSquaredNotInPrimeField(CircleRingError, ValueError):
    """r^2 lies outside the prime subfield; no three-point rational set exists."""


class NotPerfect(CircleRingError, ValueError):
    """Squared distance lacks the algebraic certificate needed here."""


class CircleTooLarge(CircleRingError, ValueError):
    """Circle exceeds a fixed size cap for enumeration or exhaustive search."""


class CircleMismatch(CircleRingError, TypeError):
    """Rotation-group operation across different circles."""


class NotCoprime(CircleRingError, ValueError):
    """Integer pair expected to be coprime is not."""


class DegenerateBasePoint(CircleRingError, ValueError):
    """Key-exchange base point generates a trivially small subgroup."""


class MalformedMessage(CircleRingError, ValueError):
    """Serialized buffer is truncated or structurally invalid."""


class VersionMismatch(CircleRingError, ValueError):
    """Serialized buffer uses an unsupported wire version."""


class ResultTooLarge(CircleRingError, ValueError):
    """A result would exceed a size cap; refused before any work."""


class ParseError(CircleRingError, ValueError):
    """Text does not name a field, an element or a point."""
