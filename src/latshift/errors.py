"""Exception types and the work guard shared across the package."""

import math

# exhaustive enumerations and node arrays are refused above 2^26 entries
GUARD_BITS = 26


class GuardLimitError(ValueError):
    """An enumeration request exceeds the hard work guard.

    Raised instead of silently sampling when a shift space, node set or
    candidate scan would be too large to enumerate exhaustively.
    """


def guard(count: int, what: str, exponent: int = 0, base: int = 2) -> None:
    """Refuse a request for more than 2^GUARD_BITS items, before any is made.

    The request is count * base**exponent items (exponent >= 0, base >= 2),
    and what names them.  The check takes O(1) time: no power past 2^128 is
    formed.  A refusal names the exact count below 2^64, and above it at
    least 2^floor(log2 count) (for a base other than 2, that floor or one
    less), or at least 2^(2^k) for an exponent of 2^64 or more.
    """
    if count < 1:
        return
    if exponent >> 64:
        # too large for a float; base >= 2 makes the count at least 2^exponent
        size = f"at least 2^(2^{exponent.bit_length() - 1})"
    elif base != 2 and (bits := exponent * math.log2(base) + math.log2(count)) >= 128:
        # the float sum is within 2^-50 of bits of the exact log2, so its floor
        # after taking off 2^-48 of bits is floor(log2 count), or one less within
        # that distance of an integer: still a true "at least"
        size = f"at least 2^{math.floor(bits - bits * 2**-48)}"
    else:
        if base != 2:
            count, exponent = count * base**exponent, 0
        bits = count.bit_length() - 1 + exponent
        if bits < 64 and count << exponent <= 1 << GUARD_BITS:
            return
        # str() refuses ints of more than a few thousand digits
        size = count << exponent if bits < 64 else f"at least 2^{bits}"
    raise GuardLimitError(f"{size} {what} exceed the 2^{GUARD_BITS} guard")


class IdentityCheckError(RuntimeError):
    """An internal cross-check identity failed beyond its tolerance.

    This signals an arithmetic or implementation fault, not bad input: the
    exhaustive-enumeration means are re-derived through an independent route
    and must agree to close to machine precision.
    """


class BitsExhaustedError(ValueError):
    """A finite bit source was asked for more bits than it holds."""
