"""Exception types shared across the package.

Every error carries a stable ``code`` string so the CLI can report domain
failures uniformly and tests can assert on the cause without string matching.
"""


class ParseError(Exception):
    """Structurally invalid input (bad JSON shape, wrong field types).

    Deliberately not an AnopError: the CLI maps it to the I/O exit path
    while domain failures below carry their own codes.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class AnopError(Exception):
    """Base class; ``code`` is the machine-readable failure tag."""

    code = "ERROR"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class MalformedModelError(AnopError):
    code = "MALFORMED"


class WrongKindError(AnopError):
    code = "WRONG_KIND"


class NotANError(AnopError):
    code = "NOT_AN"


class NegativeValueError(AnopError):
    code = "NEGATIVE_VALUE"


class NotInjectiveError(AnopError):
    code = "NOT_INJECTIVE"


class AlphaZeroError(AnopError):
    code = "ALPHA_ZERO"


class ShapeMismatchError(AnopError):
    code = "SHAPE_MISMATCH"


class NotHermitianError(AnopError):
    code = "NOT_HERMITIAN"


class NoConvergenceError(AnopError):
    code = "NO_CONVERGENCE"


class DimTooSmallError(AnopError):
    code = "DIM_TOO_SMALL"


class DimTooLargeError(AnopError):
    code = "DIM_TOO_LARGE"
