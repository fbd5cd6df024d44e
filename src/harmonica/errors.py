"""Exception types shared across the package, and their command-line exit policy.

Each class sets the exit code and the stderr label with which `cli.main`
reports it, once: the defaults on HarmonicaError (exit 3, `unsupported`)
cover every unsupported request, InputError (exit 2, `error`) every
malformed input, and CrossCheckFailed (exit 1, `cross-check failed`) the
internal consistency failure.  A new subclass inherits its category.
"""


class HarmonicaError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3
    label = "unsupported"


class InputError(HarmonicaError):
    """Malformed input: a spec document, form text or option value."""

    exit_code = 2
    label = "error"


class UndeclaredConjugate(InputError):
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


class ParseError(InputError):
    """Malformed input text (form expression or spec document)."""


class SchemaError(InputError):
    """A spec document has missing, extra, or mistyped fields."""


class ValidationError(InputError):
    """A spec document is well-formed but semantically invalid."""


class UnknownSpec(InputError):
    """No catalog entry with that name."""


class CrossCheckFailed(HarmonicaError):
    """A condition kernel and its Laplacian nullspace disagree, or a
    Laplacian image leaves its block; an internal consistency failure."""

    exit_code = 1
    label = "cross-check failed"
