"""Exception types and the work guard shared across the package."""

import math

# exhaustive enumerations and node arrays are refused above 2^26 entries
GUARD_BITS = 26


class GuardLimitError(ValueError):
    """An enumeration request exceeds the hard work guard.

    Raised instead of silently sampling when a shift space, node set or
    candidate scan would be too large to enumerate exhaustively.
    """


def _refusal(size, what: str) -> GuardLimitError:
    return GuardLimitError(f"{size} {what} exceed the 2^{GUARD_BITS} guard")


def guard(count: int, what: str) -> None:
    """Refuse a request for more than 2^GUARD_BITS items, before any is made.

    count is the number of items needed and what names them.
    """
    if count > 1 << GUARD_BITS:
        # str() refuses ints of more than a few thousand digits
        raise _refusal(count if count < 1 << 64 else f"at least 2^{count.bit_length() - 1}", what)


def guard_power(base: int, exponent: int, factor: int, what: str) -> None:
    """`guard(base**exponent * factor, what)` in O(1) time whatever the exponent.

    base >= 2, exponent >= 0 and factor >= 1.  A count below about 2^128
    is formed and passed to `guard`; a larger one is refused from its float
    log2, with the same message.
    """
    if exponent >> 64:
        # too large for a float; base >= 2 makes the count at least 2^exponent
        raise _refusal(f"at least 2^(2^{exponent.bit_length() - 1})", what)
    bits = exponent * math.log2(base) + math.log2(factor)
    if bits < 128:
        guard(base**exponent * factor, what)
        return
    # the float sum is within 2^-50 of bits of the exact log2, so its floor
    # after taking off 2^-48 of bits is floor(log2 count), or one less within
    # that distance of an integer: still a true "at least"
    raise _refusal(f"at least 2^{math.floor(bits - bits * 2**-48)}", what)


class IdentityCheckError(RuntimeError):
    """An internal cross-check identity failed beyond its tolerance.

    This signals an arithmetic or implementation fault, not bad input: the
    exhaustive-enumeration means are re-derived through an independent route
    and must agree to close to machine precision.
    """


class BitsExhaustedError(ValueError):
    """A finite bit source was asked for more bits than it holds."""
