"""Exception types shared across the library.

Everything deriving from DomainError is an input-domain failure (degenerate
discriminant, invalid orbit datum, ...); the CLI maps these to exit status 2.
I/O and parse problems are left to the standard exceptions and map to exit 1.
"""


class DomainError(Exception):
    """Base class for domain failures reported to callers."""


class DegenerateForm(DomainError):
    """Binary form has vanishing discriminant where a nonzero one is required."""


class DegeneratePencil(DomainError):
    """Pencil has vanishing discriminant where a nonzero one is required."""


class PrecisionExhausted(DomainError):
    """Certification failed at the maximum allowed working precision."""


class SingularVariant(DomainError):
    """A single-form covariant variant has a (numerically) zero diagonal value."""


class DimensionMismatch(DomainError):
    """Matrix/vector dimensions do not agree."""


class DimensionTooLarge(DomainError):
    """Exact enumeration requested beyond the supported dimension."""


class RangeError(DomainError):
    """Argument outside its documented range."""


class InvalidDatum(DomainError):
    """Orbit datum fails the norm equation z^2 N(alpha) = f0^(n+1)."""


class DivisorMeetsWeierstrass(DomainError):
    """Divisor polynomial shares a factor with the curve polynomial."""


class InconsistentW(DomainError):
    """Divisor z-coordinate product is inconsistent with the divisor polynomial."""


class NotFound(DomainError):
    """Bounded search exhausted its budget (not a disproof of existence)."""


class NotPrimitive(DomainError):
    """Integral form expected to have unit content does not."""


class HeightExceedsCutoff(DomainError):
    """Form height is not below the family cutoff."""


class EmptyStatistics(DomainError):
    """A statistic was requested of a batch with no usable items."""


class PreconditionError(DomainError):
    """A documented operation precondition was violated."""
