"""Exception types shared across the package."""


class HarmonicaError(Exception):
    """Base class for all errors raised by this package."""


class UndeclaredConjugate(HarmonicaError):
    """A function symbol has no declared conjugate partner."""


class DepthExceeded(HarmonicaError):
    """A derivative symbol would exceed the derivation table's depth limit."""


class NotPrimitive(HarmonicaError):
    """A form required to be primitive is not annihilated by Lambda."""


class DegreeTooHigh(HarmonicaError):
    """Primitivity is only defined for degree k <= n."""


class NotHomogeneous(HarmonicaError):
    """The operation requires a form of a single (bi)degree."""


class SymbolicCoefficients(HarmonicaError):
    """Kernel computation needs constant structure coefficients."""


class NotAlmostKahler(HarmonicaError):
    """The statement only applies to almost Kahler specs (d omega = 0)."""


class BidegreeOutOfRange(HarmonicaError):
    """The requested bidegree is outside the statement's range."""


class DimensionMismatch(HarmonicaError):
    """The statement is specific to another (half-)dimension."""


class ExponentTooLarge(HarmonicaError):
    """A power above scalars.MAX_EXPONENT, refused before any multiplication."""


class ParseError(HarmonicaError):
    """Malformed input text (form expression or spec document)."""


class SchemaError(HarmonicaError):
    """A spec document has missing, extra, or mistyped fields."""


class ValidationError(HarmonicaError):
    """A spec document is well-formed but semantically invalid."""


class UnknownSpec(HarmonicaError):
    """No catalog entry with that name."""


class CrossCheckFailed(HarmonicaError):
    """A condition kernel and its Laplacian nullspace disagree, or a
    Laplacian image leaves its block; an internal consistency failure."""
