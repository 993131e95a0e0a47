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
