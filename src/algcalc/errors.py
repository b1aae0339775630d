"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(GeometryError):
    """Operands or coordinates do not agree on (m, p, r)."""


class IndexOutOfRange(GeometryError):
    """A tensor or coordinate index is outside its declared range."""


class NonSmoothPoint(GeometryError):
    """Evaluation or differentiation hit a point where the field is not smooth.

    Raised for division by zero, log/sqrt outside their domains, abs at a
    kink, and non-integer powers of a non-positive base.
    """


class ExprSyntaxError(GeometryError):
    """Malformed expression source.  Carries the byte offset and the token
    kinds that would have been accepted there."""

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = tuple(sorted(expected))


class UnknownIdentifier(GeometryError):
    """Identifier is not a known function, constant, or in-range variable."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier '{name}' at offset {offset}")
        self.name = name
        self.offset = offset


class ArityError(GeometryError):
    """A function call has the wrong number of arguments."""


class SingularFrame(GeometryError):
    """A moving frame is not invertible at a probe point."""


class SingularTransition(GeometryError):
    """Supplied transition matrices are not mutually inverse at a sample."""


class SingularMetric(GeometryError):
    """A metric block (or Hessian) is singular at a sample point."""


class EmptyBox(GeometryError):
    """Sampling box cannot produce points satisfying the constraints."""


class ConfigError(GeometryError):
    """Configuration file is missing, malformed, or inconsistent."""


class ShapeError(ConfigError):
    """An array in the configuration has the wrong shape."""
