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
enumeration, and map it over the shift space with `shifts.chunked_map`
in blocks of the width it sets itself (about `shifts.BLOCK_NODES` nodes,
so that a block's working set stays in cache); the grid enumeration
spells its shifts with `shifts.grid_offsets`, and so does the generic
rectangle rule its grid points.  Every sum is correctly rounded, bit for
bit what `math.fsum` returns: the per-shift means come from
`fsum.fsum_rows` and the moment sums and the identity values from
`fsum.fsum_blocks`, so no result depends on the block size.  The grid
enumeration visits one shift per lattice-translation class only, since
every shift in a class gives the same rule value.  The scalar
enumeration of an f that declares `reflection_symmetric` visits cosets
0 .. 2^(sr-1) only, since coset 2^sr - w holds the reflections of coset
w's nodes and so gives the same mean; the cosets strictly between are
counted twice.  The identity routes keep every node.
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
    BLOCK_NODES, chunked_map, coset_blocks, coset_offsets, grid_blocks, grid_offsets, index_blocks, integral_offset,
)

MEAN_IDENTITY_RTOL = 1e-12

# nothing in the package calls kahan_sum any more (the sums go through
# the fsum module); perfbench still binds spans at kahan_sum and
# chunked_map and reads GUARD_BITS here, so all three names stay, and the
# enumerations call shifts.chunked_map by its name here, where a span sees it
kahan_sum = math.fsum


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
    values: np.ndarray,
    f: PeriodicFunction,
    check_value: float,
    shift_space_size: int,
    mirrored: bool = False,
) -> MomentReport:
    """Moments of the shift-space distribution that values lists once per class.

    values holds one rule value per class of equally likely shifts, each
    class the same size, so means over values are means over the space.
    When mirrored, values holds classes 0 .. n/2 of n, and each class
    strictly between stands for its mirror n - w as well, so its terms are
    doubled: exact short of overflow, which makes every sum the correctly
    rounded sum of the same n terms as without mirroring.
    """
    offset = integral_offset(f)
    k = len(values)
    n = 2 * (k - 1) if mirrored else k

    def total(term: Callable[[np.ndarray], np.ndarray]) -> float:
        # terms are formed a slice at a time, so no full-length temporary is held
        def slices() -> Iterator[np.ndarray]:
            for lo in range(0, k, BLOCK_NODES):
                t = term(values[lo : lo + BLOCK_NODES])
                if mirrored:
                    t[max(1 - lo, 0) : k - 1 - lo] *= 2.0
                yield t

        # a term past the float range is inf (as x + x is for a doubled x),
        # and a sum with an infinite term is not finite
        with np.errstate(over="ignore"):
            return fsum_blocks(slices)

    # the mean is accumulated about the known integral, and the bias is kept
    # as that offset sum directly: biases near 1e-9 would otherwise lose
    # digits to the rounding of 1 + bias
    delta = total(lambda v: v - offset) / n
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
    var = total(lambda v: (v - mean) ** 2) / n

    def cube(v: np.ndarray) -> np.ndarray:
        # two IEEE products give the same bits on every host; np.power does not
        d = v - mean
        return d * d * d

    mu3 = total(cube) / n
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

    blocks = grid_blocks(rule, f, r)

    def block(lo: int, hi: int) -> np.ndarray:
        return blocks.means(grid_offsets(np.arange(lo, hi, dtype=np.uint64), s, r))

    values = chunked_map(block, 1 << (r * s - rule.m), blocks.width)
    del blocks  # freed before the identity builds its own buffers
    return _report("grid-shift", values, f, rectangle_rule_mean(f, s, r), 1 << (r * s))


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
    blocks = coset_blocks(pair, f)

    def block(lo: int, hi: int) -> np.ndarray:
        return blocks.means(coset_offsets(pair, np.arange(lo, hi, dtype=np.uint64)))

    mirrored = f.reflection_symmetric and pair.sr > 0
    cosets = (1 << pair.sr - 1) + 1 if mirrored else 1 << pair.sr
    values = chunked_map(block, cosets, blocks.width)
    del blocks  # freed before the identity builds its own buffers
    return _report("scalar-shift", values, f, extended_rule_value(pair, f), 1 << pair.sr, mirrored)


def rectangle_rule_mean(f: PeriodicFunction, s: int, r: int) -> float:
    """Equal-weight mean of f over the full product grid {0..2^r-1}^s / 2^r.

    For product integrands exposing a per-coordinate factor (called once,
    on the array of the 2^r grid coordinates) this is the s-th power of the
    one-dimensional grid mean (cost 2^r instead of 2^(r*s), guarded like
    any node array); otherwise the full grid is enumerated under the usual
    guard, BLOCK_NODES points at a time, into one correctly rounded sum.
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
    n, total = 1 << r, 1 << (r * s)

    def block(lo: int) -> np.ndarray:
        idx = np.arange(lo, min(lo + BLOCK_NODES, total), dtype=np.uint64)
        return f.eval_batch(grid_offsets(idx, s, r) * (1.0 / n))

    return fsum_blocks(lambda: map(block, range(0, total, BLOCK_NODES))) / total


def extended_rule_value(pair: EmbeddedPair, f: PeriodicFunction) -> float:
    """Direct evaluation of the 2^(m+sr)-point extension of the pair.

    The nodes k * z / 2^(m+sr) are evaluated in blocks of BLOCK_NODES
    consecutive k, in the same kind of prepared buffers as the enumeration
    but in index order, and summed in one correctly rounded sum: a route
    independent of the coset enumeration whose mean it checks.
    """
    guard(1, "extension nodes", pair.ext)
    n = 1 << pair.ext
    # fsum_blocks consumes each block before it asks for the next
    return integral_offset(f) + fsum_blocks(lambda: index_blocks(pair.z.components, pair.ext, f)) / n
