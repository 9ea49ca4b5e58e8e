"""Exact rank-1 lattice rules over power-of-two node counts.

Nodes are kept as exact dyadic rationals (integer numerators over a shared
power-of-two denominator) and all node arithmetic is integer arithmetic.
Floating point only enters when an integrand is evaluated, so biases at the
1e-9 scale are not polluted by node rounding.

`lattice_numerators` is the vectorized node kernel behind every node set
the package evaluates: the randomized evaluators, the moment enumerations,
the extended-rule identity, the CBC merits and the CBC scan's node
products.  It is also the one node guard; `shifts.DisplacedBlocks`
displaces and lays out its nodes.  `Rank1Rule.node` is the per-point
reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GuardLimitError, guard

# node numerators live in uint64; products wrap mod 2^64, which 2^t divides
NODE_DTYPE_BITS = 64
_U64_MASK = (1 << NODE_DTYPE_BITS) - 1


def as_uint64(values: Iterable[int]) -> np.ndarray:
    """Non-negative integers reduced mod 2^64, as a uint64 array.

    The reduction loses nothing for node arithmetic mod 2^t with t <= 64.
    """
    return np.array([v & _U64_MASK for v in values], dtype=np.uint64)


def lattice_numerators(steps: Sequence[int], t: int, n: int) -> np.ndarray:
    """Node numerators j * steps[i] mod 2^t for j < n, shape (s, n).

    Row i holds coordinate i.  The three node sets of the package are all
    of this form, displaced by uint64 offset columns in
    `shifts.DisplacedBlocks`:

    * rule nodes j * z / 2^m: steps z, depth m;
    * coset w of an embedded pair, extension nodes (j << sr) | w: steps
      z << sr, offsets w * z, depth m + sr;
    * a rule on the grid 2^-t displaced by shift numerators v: steps
      z << (t - m), offsets v.

    Refuses more than 2^GUARD_BITS nodes, depths beyond the 64-bit
    numerators, and more than 2^GUARD_BITS node coordinates, in that
    order, before allocating anything.
    """
    guard(n, "nodes")
    if t > NODE_DTYPE_BITS:
        raise GuardLimitError(
            f"node depth 2^-{t} exceeds the {NODE_DTYPE_BITS}-bit node numerators"
        )
    guard(len(steps) * n, "node coordinates")
    nums = as_uint64(steps)[:, None] * np.arange(n, dtype=np.uint64)
    np.bitwise_and(nums, np.uint64((1 << t) - 1), out=nums)
    return nums


@dataclass(frozen=True)
class DyadicPoint:
    """A point of [0,1)^s with coordinates nums[i] / 2^t.

    Parameters
    ----------
    nums : tuple of int
        Numerators, each in [0, 2^t): the fractional part has already been
        taken.
    t : int
        Fractional bit depth (denominator 2^t).
    """

    nums: tuple[int, ...]
    t: int

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"bit depth must be >= 0, got {self.t}")
        if not self.nums:
            raise ValueError("point needs at least one coordinate")
        for n in self.nums:
            if n < 0 or n.bit_length() > self.t:
                raise ValueError(f"numerator {n} outside [0, 2^{self.t})")

    @property
    def s(self) -> int:
        return len(self.nums)

    def as_floats(self) -> tuple[float, ...]:
        # n / 2^t correctly rounded: exact for t <= 53 fractional bits.  A
        # value below 2^-1076 rounds to 0.0, so 2^t is formed only when it
        # is at most 1075 bits longer than the numerator.  Past 53 bits a
        # numerator within 2^(t-54) of 2^t rounds to 1.0, and the torus
        # point nearest to it is 0.0, as the block kernel reads it
        xs = (0.0 if self.t - n.bit_length() > 1075 else n / (1 << self.t) for n in self.nums)
        return tuple(0.0 if x == 1.0 else x for x in xs)


@dataclass(frozen=True)
class GeneratingVector:
    """Integer generating vector with all components odd.

    Components are stored reduced mod 2^t; node coordinates depend on the
    components only through that residue, so the reduction is exact.  Oddness
    is exactly coprimality with every power-of-two node count, which rules
    out the degenerate all-zero vector as well.

    Parameters
    ----------
    components : tuple of int
        Non-negative integers, one per coordinate; each must be odd.
    t : int
        Bit depth the vector is known to: usable with any rule of at most
        2^t points.
    """

    components: tuple[int, ...]
    t: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"bit depth must be >= 1, got {self.t}")
        if not self.components:
            raise ValueError("generating vector needs at least one component")
        guard(self.s * max(self.t, NODE_DTYPE_BITS), "generating vector bits")
        mod = 1 << self.t
        reduced = []
        for c in self.components:
            if c < 0:
                raise ValueError(f"component {c} is negative")
            if c % 2 == 0:
                raise ValueError(
                    f"component {c} is even; it would share a factor with the node count"
                )
            reduced.append(c % mod)
        object.__setattr__(self, "components", tuple(reduced))

    @property
    def s(self) -> int:
        return len(self.components)


def korobov_vector(ell: int, s: int, t: int) -> GeneratingVector:
    """Korobov-form generating vector (1, ell, ell^2, ...) reduced mod 2^t.

    Powers are taken by modular exponentiation, so ell^(s-1) never appears
    as an unreduced big integer.

    Parameters
    ----------
    ell : int
        Odd positive base of the geometric progression.
    s : int
        Dimension.
    t : int
        Bit depth of the reduction.
    """
    if ell < 1 or ell % 2 == 0:
        raise ValueError(f"ell must be odd and positive, got {ell}")
    if s < 1:
        raise ValueError(f"dimension must be >= 1, got {s}")
    if t < 1:
        raise ValueError(f"bit depth must be >= 1, got {t}")
    guard(s * max(t, NODE_DTYPE_BITS), "generating vector bits")
    mod = 1 << t
    return GeneratingVector(tuple(pow(ell, i, mod) for i in range(s)), t)


@dataclass(frozen=True)
class Rank1Rule:
    """Rank-1 lattice rule with 2^m nodes {j * z / 2^m}, j = 0..2^m - 1.

    The node map is a group homomorphism from Z_{2^m} into the torus:
    node(j1) + node(j2) = node((j1 + j2) mod 2^m) under dyadic addition.
    """

    m: int
    z: GeneratingVector

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        if self.z.t < self.m:
            raise ValueError(
                f"generating vector known mod 2^{self.z.t} cannot drive a 2^{self.m}-point rule"
            )
        mask = (1 << self.m) - 1
        object.__setattr__(self, "_zmod", tuple(c & mask for c in self.z.components))

    @property
    def s(self) -> int:
        return self.z.s

    @property
    def n_points(self) -> int:
        return 1 << self.m

    def node(self, j: int) -> DyadicPoint:
        """The j-th node, coordinates (j * z_i mod 2^m) / 2^m."""
        n = self.n_points
        if not 0 <= j < n:
            raise ValueError(f"node index {j} outside [0, {n})")
        mask = n - 1
        return DyadicPoint(tuple((j * zi) & mask for zi in self._zmod), self.m)


@dataclass(frozen=True)
class EmbeddedPair:
    """A base rule of 2^m nodes embedded in an extension with 2^(m+sr) nodes.

    Both rules share one generating vector; base node j reappears in the
    extension at index j * 2^sr.  The extension splits into 2^sr cosets:
    coset w is the base lattice advanced by the fractional index w / 2^sr.
    """

    m: int
    sr: int
    z: GeneratingVector

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        if self.sr < 0:
            raise ValueError(f"sr must be >= 0, got {self.sr}")
        if self.z.t < self.ext:
            raise ValueError(
                f"generating vector known mod 2^{self.z.t} cannot drive a 2^{self.ext}-point extension"
            )

    @property
    def ext(self) -> int:
        return self.m + self.sr

    @property
    def s(self) -> int:
        return self.z.s

    def base_rule(self) -> Rank1Rule:
        return Rank1Rule(self.m, self.z)

    def extended_rule(self) -> Rank1Rule:
        return Rank1Rule(self.ext, self.z)
