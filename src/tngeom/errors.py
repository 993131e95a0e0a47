"""Exception hierarchy shared across the package.

Semantic errors (bad shapes, singular maps, mismatched fields) and format
errors (malformed serialized input) are kept distinct so the command line
layer can map them to different exit codes.
"""


class TngeomError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(TngeomError, ValueError):
    """Serialized input does not match the documented wire format."""


class SemanticError(TngeomError, ValueError):
    """Input is well formed but mathematically invalid for the operation."""


class ShapeError(SemanticError):
    """Dimension or axis mismatch."""


class FieldMismatchError(SemanticError):
    """Arithmetic attempted between scalars of different fields."""


class SingularMatrixError(SemanticError):
    """A map required to be invertible is singular."""


def magnitude(n: int) -> str:
    """n in decimal for a message, or "over 10^k" when n is past Python's limit for writing an int as text.

    k = floor((bit_length - 1) * 0.30102) is below (bit_length - 1) * log10(2), so n > 10^k.
    """
    try:
        return str(n)
    except ValueError:
        return f"over 10^{(n.bit_length() - 1) * 30102 // 100000}"
