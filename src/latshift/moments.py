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
(`shifts.DisplacedBlocks`), built once per enumeration, with blocks of
about BLOCK_NODES nodes so that a block's working set stays in cache.
Every sum is correctly rounded, bit for bit what `math.fsum` returns: the
per-shift means are column sums of each node-major block, and the moment
sums and the identity values come from `fsum.fsum_blocks`, so no result
depends on the block size.  The grid enumeration visits one shift per
lattice-translation class only, since every shift in a class gives the
same rule value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GUARD_BITS, IdentityCheckError, guard
from .fsum import fsum_blocks, fsum_rows
from .functions import PeriodicFunction
from .lattice import EmbeddedPair, Rank1Rule, as_uint64
from .shifts import DisplacedBlocks, coset_blocks, coset_offsets, grid_blocks

MEAN_IDENTITY_RTOL = 1e-12

# shifts are enumerated in blocks of about this many nodes, which bounds the
# node arrays whatever the shift-space size.  A block's working set is about
# 16 s + 40 bytes a node (node and float buffers, the integrand's and the
# sum's temporaries): 2^14 nodes keep it near 1 MB, inside a core's L2 cache
# at the dimensions the tables use
BLOCK_NODES = 1 << 14

# nothing in the package calls kahan_sum any more (the sums go through
# the fsum module); perfbench still binds spans at kahan_sum and
# chunked_map and reads GUARD_BITS here, so all three names stay
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


def _shifts_per_block(m: int) -> int:
    return max(1, BLOCK_NODES >> m)


def _grid_numerators(idx: np.ndarray, s: int, r: int) -> np.ndarray:
    """Grid point idx as s numerators over 2^r: consecutive r-bit fields of
    idx, the first coordinate highest.  Shape (s, len(idx))."""
    mask = np.uint64((1 << r) - 1)
    return np.stack([(idx >> np.uint64((s - 1 - k) * r)) & mask for k in range(s)])


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
        return {
            "scheme": self.scheme,
            "mean": self.mean,
            "bias": self.bias,
            "variance": self.variance,
            "sd": self.sd,
            "mu3": self.mu3,
            "shift_space_size": self.shift_space_size,
            "method": self.method,
            "mean_check_rel_err": self.mean_check_rel_err,
        }

    CSV_FIELDS = (
        "scheme",
        "mean",
        "bias",
        "variance",
        "sd",
        "mu3",
        "shift_space_size",
        "method",
        "mean_check_rel_err",
    )


def _report(
    scheme: str,
    values: np.ndarray,
    f: PeriodicFunction,
    check_value: float,
    shift_space_size: int,
) -> MomentReport:
    """Moments of the shift-space distribution that values lists once per class.

    values holds one rule value per class of equally likely shifts, each
    class the same size, so means over values are means over the space.
    """
    offset = f.known_integral if f.known_integral is not None else 0.0
    n = len(values)

    def total(term: Callable[[np.ndarray], np.ndarray]) -> float:
        # terms are formed a slice at a time, so no full-length temporary is held
        slices = range(0, n, BLOCK_NODES)
        return fsum_blocks(lambda: (term(values[lo : lo + BLOCK_NODES]) for lo in slices))

    # the mean is accumulated about the known integral, and the bias is kept
    # as that offset sum directly: biases near 1e-9 would otherwise lose
    # digits to the rounding of 1 + bias
    delta = total(lambda v: v - offset) / n
    mean = offset + delta
    var = total(lambda v: (v - mean) ** 2) / n

    def cube(v: np.ndarray) -> np.ndarray:
        # two IEEE products give the same bits on every host; np.power does not
        d = v - mean
        return d * d * d

    mu3 = total(cube) / n
    rel = abs(mean - check_value) / abs(check_value) if check_value != 0.0 else abs(mean)
    if rel > MEAN_IDENTITY_RTOL:
        raise IdentityCheckError(
            f"{scheme} mean {mean!r} disagrees with its identity value "
            f"{check_value!r} (relative {rel:.3e})"
        )
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
    guard(1 << (r * s), "grid shifts")

    width = _shifts_per_block(rule.m)
    blocks = grid_blocks(rule, f, r, width)

    def block(lo: int, hi: int) -> np.ndarray:
        return blocks.means(_grid_numerators(np.arange(lo, hi, dtype=np.uint64), s, r))

    values = chunked_map(block, 1 << (r * s - rule.m), width)
    del blocks  # freed before the identity builds its own buffers
    return _report("grid-shift", values, f, rectangle_rule_mean(f, s, r), 1 << (r * s))


def moments_scalar_shift(pair: EmbeddedPair, f: PeriodicFunction) -> MomentReport:
    """Exact moments of the scalar-shifted rule over all 2^sr shifts."""
    guard(1 << pair.sr, "scalar shifts")
    guard(1 << pair.ext, "extension nodes")
    width = _shifts_per_block(pair.m)
    blocks = coset_blocks(pair, f, width)

    def block(lo: int, hi: int) -> np.ndarray:
        return blocks.means(coset_offsets(pair, lo, hi))

    values = chunked_map(block, 1 << pair.sr, width)
    del blocks  # freed before the identity builds its own buffers
    return _report("scalar-shift", values, f, extended_rule_value(pair, f), 1 << pair.sr)


def rectangle_rule_mean(f: PeriodicFunction, s: int, r: int) -> float:
    """Equal-weight mean of f over the full product grid {0..2^r-1}^s / 2^r.

    For product integrands exposing a per-coordinate factor (called once,
    on the array of the 2^r grid coordinates) this is the s-th power of the
    one-dimensional grid mean (cost 2^r instead of 2^(r*s)); otherwise the
    full grid is enumerated under the usual guard, BLOCK_NODES points at a
    time, into one correctly rounded sum.
    """
    if s < 1:
        raise ValueError(f"dimension must be >= 1, got {s}")
    if r < 0:
        raise ValueError(f"resolution must be >= 0, got {r}")
    n = 1 << r
    factor = getattr(f, "factor", None)
    if factor is not None:
        coord_mean = float(fsum_rows(factor(np.arange(n) * (1.0 / n))[None, :])[0]) / n
        return coord_mean**s
    total = 1 << (r * s)
    guard(total, "grid points of an integrand with no per-coordinate factorization")

    def block(lo: int) -> np.ndarray:
        idx = np.arange(lo, min(lo + BLOCK_NODES, total), dtype=np.uint64)
        return f.eval_batch(_grid_numerators(idx, s, r) * (1.0 / n))

    return fsum_blocks(lambda: map(block, range(0, total, BLOCK_NODES))) / total


def extended_rule_value(pair: EmbeddedPair, f: PeriodicFunction) -> float:
    """Direct evaluation of the 2^(m+sr)-point extension of the pair.

    The nodes k * z / 2^(m+sr) are evaluated in blocks of BLOCK_NODES
    consecutive k, in the same kind of prepared buffers as the enumeration
    but in index order, and summed in one correctly rounded sum: a route
    independent of the coset enumeration whose mean it checks.
    """
    n = 1 << pair.ext
    guard(n, "extension nodes")
    z = pair.z.components
    blocks = DisplacedBlocks(z, pair.ext, min(n, BLOCK_NODES), f, 1)

    def block(lo: int) -> np.ndarray:
        # fsum_blocks consumes each block before it asks for the next, which
        # overwrites the buffer; a short last block drops the nodes past n
        return blocks.values(as_uint64(lo * c for c in z)[:, None])[: n - lo, 0]

    return blocks.off + fsum_blocks(lambda: map(block, range(0, n, blocks.n))) / n
