"""Exception types and the work guard shared across the package."""

# exhaustive enumerations and node arrays are refused above 2^26 entries
GUARD_BITS = 26


class GuardLimitError(ValueError):
    """An enumeration request exceeds the hard work guard.

    Raised instead of silently sampling when a shift space, node set or
    candidate scan would be too large to enumerate exhaustively.
    """


def guard(count: int, what: str) -> None:
    """Refuse a request for more than 2^GUARD_BITS items, before any is made.

    count is the number of items needed and what names them.
    """
    if count > 1 << GUARD_BITS:
        # str() refuses ints of more than a few thousand digits
        size = count if count < 1 << 64 else f"at least 2^{count.bit_length() - 1}"
        raise GuardLimitError(f"{size} {what} exceed the 2^{GUARD_BITS} guard")


class IdentityCheckError(RuntimeError):
    """An internal cross-check identity failed beyond its tolerance.

    This signals an arithmetic or implementation fault, not bad input: the
    exhaustive-enumeration means are re-derived through an independent route
    and must agree to close to machine precision.
    """


class BitsExhaustedError(ValueError):
    """A finite bit source was asked for more bits than it holds."""
