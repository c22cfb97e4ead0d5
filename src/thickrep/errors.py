"""Exception types shared across the package."""


class ThickRepError(Exception):
    pass


class FieldMismatch(ThickRepError):
    pass


class DivisionByZero(ThickRepError, ZeroDivisionError):
    pass


class BadScalar(ThickRepError, ValueError):
    """Scalar text that does not name an element of its field."""


class NotMonic(ThickRepError):
    pass


class WrongField(ThickRepError):
    pass


class ZeroInput(ThickRepError):
    pass


class NotSquare(ThickRepError):
    pass


class BadM(ThickRepError):
    pass


class BadN(ThickRepError):
    pass


class BadFamily(ThickRepError):
    pass


class AmbientMismatch(ThickRepError):
    pass


class DimensionMismatch(ThickRepError):
    pass


class DegreeOverflow(ThickRepError):
    pass


class CapExceeded(ThickRepError):
    pass


class MalformedInput(ThickRepError, ValueError):
    """A JSON input does not have the documented structure."""


class BadCaps(ThickRepError):
    """A caps override names an unknown cap or gives a bad value."""


class PreconditionFailed(ThickRepError):
    pass


class FieldTooSmall(ThickRepError):
    pass


class CodimTooLarge(ThickRepError):
    pass


class CodimMismatch(ThickRepError):
    pass


class NonIntegralMultiplicity(ThickRepError):
    pass


class ScaleExceeded(ThickRepError):
    pass


class ConstructionError(ThickRepError):
    """A built-in self-verification failed: a factory's output or an
    internal witness did not check out."""
