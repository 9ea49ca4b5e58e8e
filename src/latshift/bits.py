"""Sources of iid random bits.

Randomization consumes bits strictly sequentially from one of three kinds
of source: a seeded deterministic generator (for reproducible experiments),
OS entropy, or a file of externally obtained bits -- the route for true
random bits downloaded from a physical source.  A draw of n bits is one int
below 2^n, the first bit highest, as `random.getrandbits` gives them.

The seeded generator is SplitMix64: a 64-bit Weyl counter passed through a
fixed avalanche finalizer.  It is pinned by constant output vectors in the
test suite so that seeded experiments replay bit-for-bit on any platform.
It is a pseudo-random stand-in for testing; it is NOT a substitute for
physically random bits.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from .errors import BitsExhaustedError, guard

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Minimal SplitMix64 word generator (64-bit outputs)."""

    __slots__ = ("_state",)

    _GAMMA = 0x9E3779B97F4A7C15
    _MIX1 = 0xBF58476D1CE4E5B9
    _MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + self._GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * self._MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * self._MIX2) & _MASK64
        return z ^ (z >> 31)


class BitSource:
    """Base class: sequential draws with exact consumption accounting.

    A source is single-consumer; sequential consumption is part of the
    iid-stream contract.  Use distinct sources on distinct threads.
    """

    def __init__(self) -> None:
        self.bits_consumed = 0

    def draw(self, n: int) -> int:
        """The next n bits of the stream as one int below 2^n, the first bit highest."""
        if n < 1:
            raise ValueError(f"bit count must be >= 1, got {n}")
        out = self._draw(n)
        self.bits_consumed += n
        return out

    def _draw(self, n: int) -> int:
        raise NotImplementedError


class _WordSource(BitSource):
    """64-bit words read first bit highest; a subclass supplies `_next64`."""

    def __init__(self) -> None:
        super().__init__()
        self._word = 0  # the unread low bits of the words fetched so far
        self._avail = 0

    def _draw(self, n: int) -> int:
        if n > self._avail:
            k = (n - self._avail + 63) // 64
            words = b"".join(self._next64().to_bytes(8, "big") for _ in range(k))
            self._word = (self._word << 64 * k) | int.from_bytes(words, "big")
            self._avail += 64 * k
        self._avail -= n
        out = self._word >> self._avail
        self._word &= (1 << self._avail) - 1
        return out


class SeededBitSource(_WordSource):
    """Reproducible bit stream: SplitMix64 words, most significant bit first."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed
        self._gen = SplitMix64(seed)

    def _next64(self) -> int:
        return self._gen.next64()


class OsEntropyBitSource(_WordSource):
    """Bits from the operating system entropy pool, read as big-endian words."""

    def _next64(self) -> int:
        return int.from_bytes(os.urandom(8), "big")


class FileBitSource(BitSource):
    """A finite, pre-recorded bit stream; errors at exhaustion, never wraps.

    Holds the bits as a string of '0'/'1' characters, so a draw parses one
    slice with `int(piece, 2)`, in time linear in the draw.
    """

    def __init__(self, bits: str, origin: str = "<memory>") -> None:
        super().__init__()
        bad = re.search("[^01]", bits)
        if bad:
            raise ValueError(f"invalid character {bad.group()!r} in ascii01 bit file {origin}")
        if not bits:
            raise ValueError(f"bit file {origin} holds no bits")
        self._bits = bits
        self._pos = 0
        self.origin = origin

    def _draw(self, n: int) -> int:
        left = len(self._bits) - self._pos
        if n > left:
            raise BitsExhaustedError(f"bit file {self.origin} exhausted: {n} requested, {left} left")
        self._pos += n
        return int(self._bits[self._pos - n : self._pos], 2)


BIT_FILE_FORMATS = ("ascii01", "raw")


def load_bit_file(path: str | Path, format: str = "ascii01") -> FileBitSource:
    """Read a bit file into a FileBitSource.

    ascii01 files hold '0'/'1' characters with whitespace ignored; raw files
    are arbitrary bytes read most-significant-bit first.  The bits are held
    one byte each, so a file whose size allows more than 2^GUARD_BITS of
    them is refused before it is read: 8 bits a byte for raw files, and for
    ascii01 files the bytes themselves, which bound the bits from above.
    """
    if format not in BIT_FILE_FORMATS:
        raise ValueError(f"unknown bit file format {format!r}; expected one of {BIT_FILE_FORMATS}")
    p = Path(path)
    size = p.stat().st_size
    if format == "ascii01":
        guard(size, f"bytes of ascii01 bit file {p}")
        return FileBitSource("".join(p.read_text().split()), str(p))
    guard(8 * size, f"bits of raw bit file {p}")
    data = p.read_bytes()
    n = 8 * len(data)
    return FileBitSource(f"{int.from_bytes(data, 'big'):0{n}b}" if n else "", str(p))


def parse_bit_source(spec: str) -> BitSource:
    """Build a source from its command-line form: seed:N, os, or file:PATH[:FORMAT]."""
    if spec == "os":
        return OsEntropyBitSource()
    if spec.startswith("seed:"):
        try:
            seed = int(spec[len("seed:") :])
        except ValueError:
            raise ValueError(f"bad seed in bit source spec {spec!r}")
        return SeededBitSource(seed)
    if spec.startswith("file:"):
        rest = spec[len("file:") :]
        if not rest:
            raise ValueError(f"missing path in bit source spec {spec!r}")
        path, sep, fmt = rest.rpartition(":")
        if sep and fmt in BIT_FILE_FORMATS:
            return load_bit_file(path, fmt)
        return load_bit_file(rest, "ascii01")
    raise ValueError(f"unknown bit source spec {spec!r}; expected seed:N, os, or file:PATH[:FORMAT]")
