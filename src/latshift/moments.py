"""Exact finite-randomization moments by exhaustive shift enumeration.

Both randomization schemes draw their shift from a finite space (2^(r*s)
grid shifts, 2^sr scalar shifts), so mean, variance and the third central
moment of the randomized rule are finite sums that can be computed exactly,
not estimated.  Each enumeration cross-checks its mean against an
independent identity:

* the grid-shift mean collapses to the product-rectangle rule on the shift
  grid (and is therefore independent of the generating vector);
* the scalar-shift mean equals the extended rule evaluated over all
  2^(m+sr) nodes.

Disagreement beyond 1e-12 relative raises IdentityCheckError, since both
routes are exact up to summation rounding.

Both enumerations run through one prepared block evaluator
(`shifts.grid_blocks`, `shifts.coset_blocks`), built once per
enumeration, and feed the report from its stream
(`shifts.DisplacedBlocks.stream`), blocks of the width it sets itself
(about `shifts.BLOCK_NODES` nodes, so that a block's working set stays
in cache); the grid enumeration spells its shifts with
`shifts.grid_offsets`.  Every node block is built in `shifts`: the
generic rectangle rule sums the product grid's blocks of
`shifts.grid_point_blocks`.  A report is one pass: each block of class
values feeds the three sums of `_report` at once and is dropped, so a
report holds one block whatever the number of shifts.  Every sum is
correctly rounded, bit for bit what `math.fsum` returns: the per-shift
means come from `fsum.fsum_rows` and the moment sums and the identity
values from `fsum.fsum_blocks`, so no result depends on the block size.
The variance and the third moment are formed from power sums about the
identity value, which lies within rounding of the mean, exactly and
rounded once each.

The grid enumeration visits one shift per lattice-translation class
only, since every shift in a class gives the same rule value.  For an f
that declares `reflection_symmetric`, the scalar enumeration visits
cosets 0 .. 2^(sr-1) only, since coset 2^sr - w holds the reflections of
coset w's nodes and so gives the same mean, and counts the cosets
strictly between twice; the extended rule evaluates the reflected half
of its nodes and counts it twice in the same way.  The identity runs
before the enumeration's blocks take their node buffer.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import GUARD_BITS, IdentityCheckError, guard
from .fsum import fsum_blocks, fsum_rows
from .functions import PeriodicFunction
from .lattice import EmbeddedPair, Rank1Rule
from .shifts import (
    coset_blocks,
    coset_offsets,
    grid_blocks,
    grid_offsets,
    grid_point_blocks,
    index_blocks,
    integral_offset,
)

MEAN_IDENTITY_RTOL = 1e-12

# no program path calls kahan_sum or chunked_map (the sums go through the
# fsum module, and the enumerations stream their blocks through
# shifts.DisplacedBlocks); perfbench binds spans at both and reads
# GUARD_BITS here, so the three names stay until ROADMAP 1c deletes them
kahan_sum = math.fsum


def chunked_map(block_values: Callable[[int, int], np.ndarray], n: int, block: int) -> np.ndarray:
    """block_values(lo, hi) over consecutive blocks of range(n), in order in one float array.

    Each block is written into the result as it comes, so no more than one
    block is held beside it.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out = np.empty(n)
    for lo in range(0, n, block):
        out[lo : lo + block] = block_values(lo, min(lo + block, n))
    return out


@dataclass(frozen=True)
class MomentReport:
    """Exact moments of a randomized rule over its whole shift space."""

    scheme: str
    mean: float
    bias: float
    variance: float
    sd: float
    mu3: float
    shift_space_size: int
    method: str
    mean_check_rel_err: float

    def to_dict(self) -> dict:
        return asdict(self)


def _report(
    scheme: str,
    values: Callable[[], Iterator[np.ndarray]],
    classes: int,
    f: PeriodicFunction,
    check_value: float,
    shift_space_size: int,
    mirrored: bool = False,
) -> MomentReport:
    """Moments of the shift-space distribution, in one pass over its classes.

    values() yields the rule value of each of the given number of classes
    of equally likely shifts, in order and in blocks; each class is the
    same size, so means over classes are means over the space.  When
    mirrored, the classes are 0 .. n/2 of n, and each one strictly between
    stands for its mirror n - w as well, so its terms are doubled: exact
    short of overflow, which makes every sum the correctly rounded sum of
    the same n terms as without mirroring.

    Each block feeds three correctly rounded sums at once: S1 of v - If,
    and the power sums S2 and S3 of v - c about the identity value c,
    which lies within rounding of the mean.  About c,

        var = S2/n - d^2  and  mu3 = S3/n - 3 d S2/n + 2 d^3,  d = mean - c,

    hold for any c; a c this close keeps them well conditioned, so each is
    formed exactly from the sums and rounded once.  No value is kept past
    its block, so a report holds one block whatever the number of classes.
    """
    offset = integral_offset(f)
    n = 2 * (classes - 1) if mirrored else classes

    def terms() -> Iterator[np.ndarray]:
        # one buffer for every block: fsum_blocks copies each block out
        # before it asks for the next
        buf, lo = np.empty((3, 0)), 0
        for v in values():
            if buf.shape[1] < len(v):
                buf = np.empty((3, len(v)))
            t = buf[:, : len(v)]
            np.subtract(v, offset, out=t[0])
            d = np.subtract(v, check_value, out=t[2])
            # two IEEE products give the same bits on every host; np.power does not
            np.multiply(d, d, out=t[1])
            t[2] *= t[1]
            if mirrored:
                t[:, max(1 - lo, 0) : classes - 1 - lo] *= 2.0
            lo += len(v)
            yield t

    # a term past the float range is inf (as x + x is for a doubled x), and
    # a sum with an infinite term is not finite; a non-finite c is refused
    # below, after the sums
    with np.errstate(over="ignore", invalid="ignore"):
        s1, s2, s3 = fsum_blocks(terms)
    # the mean is accumulated about the known integral, and the bias is kept
    # as that offset sum directly: biases near 1e-9 would otherwise lose
    # digits to the rounding of 1 + bias
    delta = s1 / n
    mean = offset + delta
    if not (math.isfinite(mean) and math.isfinite(check_value)):
        raise ValueError(f"{scheme} mean {mean!r} and its identity value {check_value!r} are not both finite")
    # written so that a NaN fails it too
    rel = abs(mean - check_value) / abs(check_value) if check_value != 0.0 else abs(mean)
    if not rel <= MEAN_IDENTITY_RTOL:
        raise IdentityCheckError(
            f"{scheme} mean {mean!r} disagrees with its identity value "
            f"{check_value!r} (relative {rel:.3e})"
        )
    if math.isfinite(s2) and math.isfinite(s3):
        var, mu3 = _central_moments(offset, check_value, s1, s2, s3, n)
    else:
        # a square or a cube past the float range: S2/n and S3/n, the
        # moments about c, are reported as they are
        var, mu3 = s2 / n, s3 / n
    bias = delta if f.known_integral is not None else math.nan
    return MomentReport(
        scheme=scheme,
        mean=mean,
        bias=bias,
        variance=var,
        sd=math.sqrt(var),
        mu3=mu3,
        shift_space_size=shift_space_size,
        method="enumeration",
        mean_check_rel_err=rel,
    )


def _central_moments(offset: float, c: float, s1: float, s2: float, s3: float, n: int) -> tuple[float, float]:
    """(var, mu3) = (S2/n - d^2, S3/n - 3 d S2/n + 2 d^3), d = offset + S1/n - c,
    each formed exactly and rounded once.

    Every float is p/q with q a power of two, so D = n max(q) is a common
    denominator of all five terms, and each moment is one ratio of
    integers, which Python divides correctly rounded.
    """
    (p0, q0), (p1, q1), (a1, r1), (a2, r2), (a3, r3) = (x.as_integer_ratio() for x in (offset, c, s1, s2, s3))
    D = max(q0, q1, r1, r2, r3) * n
    d = p0 * (D // q0) - p1 * (D // q1) + a1 * (D // (r1 * n))
    m2 = a2 * (D // (r2 * n))
    m3 = a3 * (D // (r3 * n))
    # the exact variance of the values is not negative; only the rounding
    # of their terms could take this below zero
    return max(m2 * D - d * d, 0) / D**2, (m3 * D * D - 3 * d * m2 * D + 2 * d**3) / D**3


def moments_grid_shift(rule: Rank1Rule, f: PeriodicFunction, r: int) -> MomentReport:
    """Exact moments of the grid-shifted rule over all 2^(r*s) shifts.

    Requires r >= m: only then does every shifted node inherit the shift's
    grid distribution, which is what makes the mean identity (and the whole
    moment analysis) valid.

    Shifting by a rule node permutes the nodes, so the 2^(r*s) shifts fall
    into classes of 2^m with one rule value each.  z_1 is odd, so the shifts
    whose first coordinate lies below 2^(r-m) / 2^r (index below
    2^(r*s-m)) hold one shift per class, and only they are enumerated.  A
    correctly rounded sum of 2^m exact copies is 2^m times the sum of one
    copy, so the reported moments are bitwise those of the full space.
    """
    s = rule.s
    if r < rule.m:
        raise ValueError(f"grid resolution r={r} below rule resolution m={rule.m}")
    guard(1, "grid shifts", r * s)
    classes = 1 << (r * s - rule.m)
    blocks = grid_blocks(rule, f, r)

    def values() -> Iterator[np.ndarray]:
        return blocks.stream(lambda lo, hi: grid_offsets(np.arange(lo, hi, dtype=np.uint64), s, r), classes)

    return _report("grid-shift", values, classes, f, rectangle_rule_mean(f, s, r), 1 << (r * s))


def moments_scalar_shift(pair: EmbeddedPair, f: PeriodicFunction) -> MomentReport:
    """Exact moments of the scalar-shifted rule over all 2^sr shifts.

    Coset 2^sr - w holds the nodes of coset w reflected, x -> 1 - x mod 1
    (extension index k -> -k mod 2^(m+sr)).  For an f that declares
    reflection_symmetric, the two cosets' means are the same correctly
    rounded sum of the same values, so only cosets 0 .. 2^(sr-1) are
    enumerated and `_report` counts each one strictly between twice.
    """
    guard(1, "scalar shifts", pair.sr)
    guard(1, "extension nodes", pair.ext)
    mirrored = f.reflection_symmetric and pair.sr > 0
    classes = (1 << pair.sr - 1) + 1 if mirrored else 1 << pair.sr
    blocks = coset_blocks(pair, f)

    def values() -> Iterator[np.ndarray]:
        return blocks.stream(lambda lo, hi: coset_offsets(pair, np.arange(lo, hi, dtype=np.uint64)), classes)

    return _report("scalar-shift", values, classes, f, extended_rule_value(pair, f), 1 << pair.sr, mirrored)


def rectangle_rule_mean(f: PeriodicFunction, s: int, r: int) -> float:
    """Equal-weight mean of f over the full product grid {0..2^r-1}^s / 2^r.

    For product integrands exposing a per-coordinate factor (called once,
    on the array of the 2^r grid coordinates) this is the s-th power of the
    one-dimensional grid mean (cost 2^r instead of 2^(r*s), guarded like
    any node array); otherwise the full grid is enumerated under the usual
    guard, `shifts.BLOCK_NODES` points at a time, into one correctly rounded sum.
    """
    if s < 1:
        raise ValueError(f"dimension must be >= 1, got {s}")
    if r < 0:
        raise ValueError(f"resolution must be >= 0, got {r}")
    factor = getattr(f, "factor", None)
    if factor is not None:
        guard(1, "grid coordinates", r)
        n = 1 << r
        coord_mean = float(fsum_rows(factor(np.arange(n) * (1.0 / n))[None, :])[0]) / n
        try:
            return coord_mean**s
        except OverflowError:
            # the generic path's sum overflows to an infinity alike
            return math.copysign(math.inf, coord_mean) if s % 2 else math.inf
    guard(1, "grid points of an integrand with no per-coordinate factorization", r * s)
    return fsum_blocks(lambda: grid_point_blocks(f, s, r)) / (1 << (r * s))


def extended_rule_value(pair: EmbeddedPair, f: PeriodicFunction) -> float:
    """Direct evaluation of the 2^(m+sr)-point extension of the pair.

    The nodes k * z / 2^(m+sr) are evaluated in blocks of `shifts.BLOCK_NODES`
    consecutive k, in the same kind of prepared buffers as the enumeration
    but in index order, and summed in one correctly rounded sum: a route
    independent of the coset enumeration whose mean it checks.

    Node n - k is node k reflected.  For an f that declares
    reflection_symmetric, only nodes 0 and n - k, k = 1 .. n/2 - 1 (the
    nodes k * -z), are evaluated, every term but node 0's doubled, and
    node n/2 = (1/2, ..., 1/2) (z is odd) is added once: the correctly
    rounded sum of the same n terms, short of overflow.  The enumeration
    keeps cosets 0 .. 2^(sr-1) instead, so the two routes halve different
    nodes (at m = 0, where a coset is one node, nodes 0 .. n/2), and for
    an f that is not symmetric a false declaration makes them disagree.
    """
    guard(1, "extension nodes", pair.ext)
    n = 1 << pair.ext
    off = integral_offset(f)
    if not (f.reflection_symmetric and n > 1):
        # fsum_blocks consumes each block before it asks for the next
        return off + fsum_blocks(lambda: index_blocks(pair.z.components, pair.ext, f)) / n
    steps = [-c % n for c in pair.z.components]

    def terms() -> Iterator[np.ndarray]:
        # node n/2 first: the first block then grows its piece to the
        # width the two need, not to fsum's full piece width
        yield f.eval_batch(np.full((len(steps), 1), 0.5)) - off
        blocks = index_blocks(steps, pair.ext, f, n >> 1)
        first = next(blocks)
        first[1:] *= 2.0
        yield first
        for t in blocks:
            t *= 2.0
            yield t

    with np.errstate(over="ignore"):
        return off + fsum_blocks(terms) / n
