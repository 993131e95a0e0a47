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
    """n in decimal for a message when it fits in 64 bits, else "over 10^k".

    k = floor((bit_length - 1) * 0.30102) is below (bit_length - 1) * log10(2), so n > 10^k.  An n
    past Python's limit for writing an int as text is never written.
    """
    return str(n) if n.bit_length() <= 64 else f"over 10^{(n.bit_length() - 1) * 30102 // 100000}"


# The one memory budget, in MB of 2**20 bytes.  Each pipeline predicts its peak from counts it makes
# before it builds anything large, and ``check_peak`` refuses it past this.  The value is the least
# that admits `limit --e 100`, the largest prediction among the runs kept admitted (the README's
# "Memory budget" lists them): 700 * 100**3 bytes and CODE_BYTES, 670.6 MB.
MAX_PEAK_MB = 671
# The modules a command loads past `import tngeom.cli`: its smallest run of each command grew
# the resident size by 2.0 to 2.3 MB (2-core host, Python 3.11).
CODE_BYTES = 3 * 2**20


def check_peak(nbytes: int, what: str) -> None:
    """Refuse, before it starts, a run whose data is predicted to hold nbytes at its peak, over MAX_PEAK_MB.

    The prediction is nbytes and CODE_BYTES, past the resident size after `import tngeom.cli`.
    """
    mb = -(-(nbytes + CODE_BYTES) // 2**20)
    if mb > MAX_PEAK_MB:
        raise SemanticError(f"{what} is predicted to take {magnitude(mb)} MB, over the budget of {MAX_PEAK_MB} MB")
