"""Exception types and the work guard shared across the package."""

# exhaustive enumerations and node arrays are refused above 2^26 entries
GUARD_BITS = 26


class GuardLimitError(ValueError):
    """An enumeration request exceeds the hard work guard.

    Raised instead of silently sampling when a shift space, node set or
    candidate scan would be too large to enumerate exhaustively.
    """


class IdentityCheckError(RuntimeError):
    """An internal cross-check identity failed beyond its tolerance.

    This signals an arithmetic or implementation fault, not bad input: the
    exhaustive-enumeration means are re-derived through an independent route
    and must agree to close to machine precision.
    """


class BitsExhaustedError(ValueError):
    """A finite bit source was asked for more bits than it holds."""
