"""Shift encodings and the randomized rule evaluators.

Three randomizations of a rank-1 rule are implemented:

* a real shift in [0,1)^s -- the idealized scheme; it would need infinitely
  many random bits, so it is estimated as a grid shift of 53 bits a
  coordinate (the bits of a uniform float draw), and `eval_real_shifted`
  evaluates a `RealShift` in plain floating point as a reference;
* a grid shift with r bits per coordinate, the finite-bit realization of the
  same idea, evaluated exactly in dyadic arithmetic;
* a scalar shift w = wnum / 2^sr applied to the node index of an embedded
  pair, so that one draw of s*r bits advances the base lattice into one of
  the 2^sr cosets of its 2^(m+sr)-point extension.

Both finite schemes read one draw of s*r bits, an int below 2^sr: a scalar
shift holds it whole, and `GridShift.from_word` (or `grid_offsets`, for an
array of words) splits it into s numerators: the one grid layout.

The dyadic evaluators, both moment enumerations and the index-order node
blocks of the extended-rule identity and the CBC merit (`index_blocks`)
share one prepared block evaluator, `DisplacedBlocks`, the one owner of
a node block.  It builds the base node numerators once
(`lattice.lattice_numerators`, the one node guard) and one node buffer,
lays out, evaluates and sums each block of displaced nodes, and streams
itself over any number of offset columns (`DisplacedBlocks.stream`, the
one loop over them).  A block's values come as one row a shift, and
`fsum.fsum_rows` sums them in place, correctly rounded (equal to
`math.fsum` bit for bit) in a few whole-array passes, so no block
allocates a node array or a copy of its own.  The blocks hold f - If,
and If is added back after the sum, so a mean does not depend on the
order of its nodes.  The one other node
block, the product grid of the rectangle-rule identity
(`grid_point_blocks`), holds f itself and is built here too.

The prepared evaluators `grid_evaluator` and `scalar_evaluator` take a
sequence of shifts and return their means in order.  Each checks every
shift first, then streams them through one `DisplacedBlocks`, built
once.  A node is the same integer as a fresh build would give, and every
sum is correctly rounded, so each mean is bitwise that of the shift
evaluated alone.  Since the buffers are reused, one evaluator must not
be called again while a call is running (it is not reentrant); the
means it returns are Python floats and share nothing with it.
`eval_grid_shifted` and `eval_scalar_shifted` are single uses of the
same evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import GUARD_BITS
from .fsum import fsum_blocks, fsum_rows
from .functions import PeriodicFunction
from .lattice import NODE_DTYPE_BITS, EmbeddedPair, Rank1Rule, as_uint64, lattice_numerators

# shifts are evaluated in blocks of about this many nodes, which bounds the
# node arrays whatever the number of shifts.  A block's working set is about
# 8 s + 40 bytes a node (the one node buffer, the integrand's and the sum's
# temporaries): 2^14 nodes keep it near 1 MB, inside a core's L2 cache
# at the dimensions the tables use
BLOCK_NODES = 1 << 14


@dataclass(frozen=True)
class GridShift:
    """Shift vector with coordinates nums[i] / 2^r on the dyadic grid."""

    nums: tuple[int, ...]
    r: int

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError(f"resolution must be >= 0, got {self.r}")
        for n in self.nums:
            if n < 0 or n.bit_length() > self.r:
                raise ValueError(f"shift numerator {n} outside [0, 2^{self.r})")

    @property
    def s(self) -> int:
        return len(self.nums)

    @classmethod
    def from_word(cls, word: int, r: int, s: int) -> GridShift:
        """The grid shift an s*r-bit word spells, coordinate-major with the
        first coordinate highest: coordinate k is bits k*r .. (k+1)*r - 1
        counted from the top, as `BitSource.draw(s * r)` returns them."""
        if r < 0 or s < 1 or word < 0 or word.bit_length() > r * s:
            raise ValueError(f"need r >= 0, s >= 1 and 0 <= word < 2^(r*s), got {word}, r={r}, s={s}")
        # the fields are cut from the word's binary digits, in time linear
        # in the word (a shift a coordinate would copy it s times); field k
        # ends (s - 1 - k) * r digits before the last, and a field above
        # the word's top bit is empty, so 0
        bits = format(word, "b")
        ends = [max(len(bits) - k * r, 0) for k in range(s, -1, -1)]
        return cls(tuple(int(bits[lo:hi] or "0", 2) for lo, hi in zip(ends, ends[1:])), r)


@dataclass(frozen=True)
class ScalarShift:
    """Scalar index shift w = wnum / 2^sr for an embedded pair."""

    wnum: int
    sr: int

    def __post_init__(self) -> None:
        if self.sr < 0:
            raise ValueError(f"sr must be >= 0, got {self.sr}")
        if self.wnum < 0 or self.wnum.bit_length() > self.sr:
            raise ValueError(f"wnum {self.wnum} outside [0, 2^{self.sr})")


@dataclass(frozen=True)
class RealShift:
    """Idealized shift with arbitrary float coordinates in [0,1).

    Not constructible from finitely many random bits; exists as the
    reference scheme the finite-bit randomizations approximate.
    """

    u: tuple[float, ...]

    def __post_init__(self) -> None:
        for x in self.u:
            if not 0.0 <= x < 1.0:
                raise ValueError(f"shift coordinate {x} outside [0, 1)")

    @property
    def s(self) -> int:
        return len(self.u)


def integral_offset(f: PeriodicFunction) -> float:
    """If where f declares it, else 0.0: the blocks evaluate f - If, and a
    mean adds it back after the sum."""
    return f.known_integral if f.known_integral is not None else 0.0


class DisplacedBlocks:
    """Prepared f - If over the nodes j * steps mod 2^t, j < n, displaced by
    blocks of offset columns: the one owner of a node block.

    Built once per enumeration or estimate: the base numerators (s, n),
    refused as `lattice.lattice_numerators` refuses them, and one node
    buffer, which grows to the largest block asked for.  A block takes
    width = max(1, min(BLOCK_NODES, 2^GUARD_BITS // s) // n) columns:
    about BLOCK_NODES nodes, fewer where its s * n * width coordinates
    would pass the guard, and at least one, so a block is within the guard
    whenever its s * n base coordinates are.  `values` adds a block's
    offset columns in place as uint64, shift-major (each column's n nodes
    along a row) when n is at least the block's B columns and node-major
    (down a column) otherwise, so the inner axis, which the sums run
    along, is the longer one; it scales them in place into the buffer's
    float64 view, evaluates and subtracts If, and returns one row a column
    in either layout (a node-major block transposed).  `means` sums each
    row correctly rounded, and may overwrite it; `stream` runs
    `means` over any number of columns, width at a time.  The buffer is
    reused, so a call must not start while another runs (not reentrant),
    and the values a call returns are overwritten by the next.
    """

    def __init__(self, steps: Sequence[int], t: int, n: int, f: PeriodicFunction) -> None:
        self.base = lattice_numerators(steps, t, n)
        self.n, self.t, self.f = n, t, f
        self.width = max(1, min(BLOCK_NODES, (1 << GUARD_BITS) // len(steps)) // n)
        self.off = integral_offset(f)
        self._buf = np.empty(0, dtype=np.uint64)

    def values(self, offsets: np.ndarray) -> np.ndarray:
        """f - If at the nodes displaced by each uint64 offset column of the
        (s, B) offsets, B <= width, in the buffer's float view: one row of n
        a column, (B, n), which is the transpose of a C-contiguous (n, B)
        block when n < B."""
        (s, n), B = self.base.shape, offsets.shape[1]
        if self._buf.size < s * n * B:
            self._buf = np.empty(s * n * B, dtype=np.uint64)
        if n >= B:
            a, b, shape = self.base[:, None, :], offsets[:, :, None], (s, B, n)
        else:
            a, b, shape = self.base[:, :, None], offsets[:, None, :], (s, n, B)
        # the base numerators and the offsets are known mod 2^t or mod 2^64:
        # the sum wraps mod 2^64, which 2^t divides, so one mask reduces it
        nums = np.add(a, b, out=self._buf[: s * n * B].reshape(shape))
        np.bitwise_and(nums, np.uint64((1 << self.t) - 1), out=nums)
        # a cast in place, then a scaling in place: faster than one multiply
        # that casts into its own input's memory, with the same floats
        floats = self._buf.view(np.float64)
        xs = floats[: nums.size].reshape(shape)
        np.copyto(xs, nums, casting="unsafe")
        xs *= 1.0 / (1 << self.t)
        if self.t > 53:
            # a numerator within 2^(t-54) of 2^t rounds to 2^t in the cast:
            # the torus point nearest to it is 0.0, not 1.0
            xs[xs == 1.0] = 0.0
        # the coordinates are spent once f is evaluated, so the values take
        # their place at the head of the buffer
        v = np.subtract(self.f.eval_batch(xs), self.off, out=floats[: n * B].reshape(shape[1:]))
        return v if n >= B else v.T

    def means(self, offsets: np.ndarray) -> np.ndarray:
        """Mean of f over the nodes of each offset column, one per column;
        a sum the certificate cannot settle is formed again from its own
        offset column."""
        return self.off + fsum_rows(self.values(offsets), lambda i: self.values(offsets[:, i])) / self.n

    def stream(self, offsets: Callable[[int, int], np.ndarray], count: int) -> Iterator[np.ndarray]:
        """`means` of the offset columns offsets(lo, hi) for lo < hi <= count,
        width columns at a time, in order: the one loop over offset columns."""
        for lo in range(0, count, self.width):
            yield self.means(offsets(lo, min(lo + self.width, count)))


def grid_blocks(rule: Rank1Rule, f: PeriodicFunction, r: int) -> DisplacedBlocks:
    """The rule nodes, displaced by blocks of r-bit grid shifts.

    Nodes at depth m and the shift at depth r combine exactly at depth
    t = max(m, r); the offset columns are shift numerators over 2^t.
    """
    t = max(rule.m, r)
    # the kernel reads the steps mod 2^64 and refuses a depth past 64 bits,
    # so a lift of 64 bits or more, which leaves them 0, is not formed
    lift = min(t - rule.m, NODE_DTYPE_BITS)
    return DisplacedBlocks([c << lift for c in rule.z.components], t, rule.n_points, f)


def coset_blocks(pair: EmbeddedPair, f: PeriodicFunction) -> DisplacedBlocks:
    """The base-rule cosets of an embedded pair, by their offsets w * z.

    Coset w is the extension nodes (j << sr) | w = j * (z << sr) + w * z
    mod 2^(m+sr), j < 2^m, formed exactly in integer arithmetic; the
    equivalent float expression {(j + w)/2^m * z} would corrupt biases at
    the 1e-9 scale.
    """
    return DisplacedBlocks([c << pair.sr for c in pair.z.components], pair.ext, 1 << pair.m, f)


def coset_offsets(pair: EmbeddedPair, cosets: np.ndarray) -> np.ndarray:
    """The offsets w * z (mod 2^64) of the uint64 coset words w, one column each."""
    return as_uint64(pair.z.components)[:, None] * cosets


def grid_offsets(words: np.ndarray, s: int, r: int) -> np.ndarray:
    """The s numerators over 2^r of the uint64 s*r-bit grid words, one
    column each: the vectorized twin of `GridShift.from_word`, with the
    same layout (consecutive r-bit fields, the first coordinate highest)."""
    mask = np.uint64((1 << r) - 1)
    return np.stack([(words >> np.uint64((s - 1 - k) * r)) & mask for k in range(s)])


def index_blocks(steps: Sequence[int], t: int, f: PeriodicFunction, count: int | None = None) -> Iterator[np.ndarray]:
    """f - If at the nodes k * steps mod 2^t, k < count (2^t by default),
    in index order.

    The nodes go through one `DisplacedBlocks`, BLOCK_NODES at a time, as
    one shift-major row each.  Each block is a 1-D view of its buffer,
    which the next block overwrites.
    """
    n = 1 << t if count is None else count
    blocks = DisplacedBlocks(steps, t, min(n, BLOCK_NODES), f)
    for lo in range(0, n, blocks.n):
        # a short last block drops the nodes past n
        yield blocks.values(as_uint64(lo * c for c in steps)[:, None])[0, : n - lo]


def grid_point_blocks(f: PeriodicFunction, s: int, r: int) -> Iterator[np.ndarray]:
    """f at the 2^(r*s) points of the product grid {0..2^r-1}^s / 2^r, in
    index order (the layout of `grid_offsets`), BLOCK_NODES points at a
    time; unlike the other blocks, f itself, not f - If."""
    total = 1 << (r * s)
    for lo in range(0, total, BLOCK_NODES):
        idx = np.arange(lo, min(lo + BLOCK_NODES, total), dtype=np.uint64)
        yield f.eval_batch(grid_offsets(idx, s, r) * (1.0 / (1 << r)))


def _evaluator(blocks: DisplacedBlocks, columns: Callable[[Sequence], np.ndarray]) -> Callable[[Sequence], list[float]]:
    """The prepared evaluator over blocks: the means of the offset columns
    columns(shifts) gives, in order, once it has checked every shift."""

    def evaluate(shifts: Sequence) -> list[float]:
        cols = columns(shifts)
        return [x for means in blocks.stream(lambda lo, hi: cols[:, lo:hi], cols.shape[1]) for x in means.tolist()]

    return evaluate


def grid_evaluator(rule: Rank1Rule, f: PeriodicFunction, r: int) -> Callable[[Sequence[GridShift]], list[float]]:
    """Prepared means of f over the rule nodes displaced by each r-bit grid shift.

    No relation between r and m is required here.  Every shift is checked
    before any is evaluated.  Refuses as DisplacedBlocks does; reuses its
    buffers: not reentrant.
    """
    blocks = grid_blocks(rule, f, r)
    up = blocks.t - r

    def columns(shifts: Sequence[GridShift]) -> np.ndarray:
        for shift in shifts:
            if shift.s != rule.s:
                raise ValueError(f"dimension mismatch: shift has {shift.s}, rule has {rule.s}")
            if shift.r != r:
                raise ValueError(f"bit-depth mismatch: shift has {shift.r}, evaluator has {r}")
        return as_uint64(v << up for shift in shifts for v in shift.nums).reshape(-1, rule.s).T

    return _evaluator(blocks, columns)


def scalar_evaluator(pair: EmbeddedPair, f: PeriodicFunction) -> Callable[[Sequence[ScalarShift]], list[float]]:
    """Prepared means of f over the base-rule coset each scalar shift selects.

    Every shift is checked before any is evaluated.  Refuses as
    DisplacedBlocks does; not reentrant.
    """

    def columns(shifts: Sequence[ScalarShift]) -> np.ndarray:
        for shift in shifts:
            if shift.sr != pair.sr:
                raise ValueError(f"bit-depth mismatch: shift has {shift.sr}, pair has {pair.sr}")
        return coset_offsets(pair, as_uint64(shift.wnum for shift in shifts))

    return _evaluator(coset_blocks(pair, f), columns)


def eval_rule(rule: Rank1Rule, f: PeriodicFunction) -> float:
    """Plain (unshifted) rule value: the mean of f over all nodes."""
    return eval_grid_shifted(rule, f, GridShift((0,) * rule.s, 0))


def eval_grid_shifted(rule: Rank1Rule, f: PeriodicFunction, shift: GridShift) -> float:
    """Mean of f over the rule nodes displaced by the grid shift."""
    return grid_evaluator(rule, f, shift.r)([shift])[0]


def eval_scalar_shifted(pair: EmbeddedPair, f: PeriodicFunction, shift: ScalarShift) -> float:
    """Mean of f over the base-rule coset selected by the scalar shift."""
    return scalar_evaluator(pair, f)([shift])[0]


def eval_real_shifted(rule: Rank1Rule, f: PeriodicFunction, shift: RealShift) -> float:
    """Mean of f over the rule nodes displaced by an arbitrary real shift.

    The float reference of the idealized scheme: the sums x + u are taken
    mod 1 in floating point, so unlike the dyadic evaluators this one
    carries ordinary rounding in its point coordinates.
    """
    if shift.s != rule.s:
        raise ValueError(f"dimension mismatch: shift has {shift.s}, rule has {rule.s}")
    xs = lattice_numerators(rule.z.components, rule.m, rule.n_points) * (1.0 / rule.n_points)
    xs += np.array(shift.u)[:, None]
    np.subtract(xs, 1.0, out=xs, where=xs >= 1.0)
    off = integral_offset(f)
    return off + fsum_blocks(lambda: [f.eval_batch(xs) - off]) / rule.n_points


@dataclass(frozen=True)
class ReplicateEstimate:
    """Replicated randomized-rule estimate: values, their mean, sample SD."""

    values: tuple[float, ...]
    mean: float
    sd: float | None

    @property
    def q(self) -> int:
        return len(self.values)


ShiftT = TypeVar("ShiftT")


def estimate_mean(
    evaluator: Callable[[Sequence[ShiftT]], Sequence[float]],
    shifts: Sequence[ShiftT],
) -> ReplicateEstimate:
    """Evaluate every shift replicate in one evaluator call, and average.

    The evaluator takes the sequence of shifts and returns their rule values
    in order.  The sample standard deviation uses divisor q - 1 (unbiased
    variance for iid replicates) and is absent for a single replicate.
    """
    q = len(shifts)
    if q == 0:
        raise ValueError("need at least one shift replicate")
    values = tuple(evaluator(shifts))
    mean = math.fsum(values) / q
    if q == 1:
        return ReplicateEstimate(values, mean, None)
    try:
        var = math.fsum((v - mean) ** 2 for v in values) / (q - 1)
    except OverflowError:
        # a square past the float range: the variance is not finite either
        var = math.inf
    return ReplicateEstimate(values, mean, math.sqrt(var))
