"""Shift encodings and the three randomized rule evaluators.

Three randomizations of a rank-1 rule are implemented:

* a real shift in [0,1)^s -- the idealized scheme; it would need infinitely
  many random bits, so it is evaluated in plain floating point and kept for
  reference only;
* a grid shift with r bits per coordinate, the finite-bit realization of the
  same idea, evaluated exactly in dyadic arithmetic;
* a scalar shift w = wnum / 2^sr applied to the node index of an embedded
  pair, so that one draw of s*r bits advances the base lattice into one of
  the 2^sr cosets of its 2^(m+sr)-point extension.

The dyadic evaluators and both moment enumerations share one prepared
block evaluator, `DisplacedBlocks`.  It builds the unshifted base node
numerators once (`lattice.lattice_numerators`), with one uint64 node
buffer and one float buffer laid out node-major, (s, n, B): the n nodes of
each of a block's B shifts (or cosets) run down one column.  A block adds
its offset columns into the node buffer (`lattice.displace`, mod 2^t),
scales them into the float buffer, evaluates them in one `eval_batch`
call and subtracts If (when the integral is known); the column sums come
from `fsum._fsum_columns`, which rounds correctly (equal to `math.fsum`
bit for bit) in a few whole-array passes and may overwrite the values, so
no block allocates a node array or a transposed copy of its own.  If is
added back after the sum, so a mean does not depend on the order of its
nodes.

Replicates are blocks of one column: the prepared evaluators
`grid_evaluator` and `scalar_evaluator` each build one `DisplacedBlocks`,
and `real_evaluator` its float base nodes and one buffer.  A node is the
same integer (or, for the real shift, the same float) as a fresh build
would give, so every replicate is bitwise unchanged.  Since the buffers
are reused, one evaluator must not be called again while a call is
running (it is not reentrant); the means it returns are Python floats and
share nothing with it.  `eval_{grid,scalar,real}_shifted` are single uses
of the same evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import guard
from .fsum import _fsum_columns, fsum_rows
from .functions import PeriodicFunction
from .lattice import EmbeddedPair, Rank1Rule, as_uint64, displace, lattice_numerators


@dataclass(frozen=True)
class BitString:
    """r*s ordered bits, r per coordinate."""

    bits: tuple[int, ...]
    r: int
    s: int

    def __post_init__(self) -> None:
        if self.r < 0 or self.s < 1:
            raise ValueError(f"need r >= 0 and s >= 1, got r={self.r}, s={self.s}")
        if len(self.bits) != self.r * self.s:
            raise ValueError(f"expected {self.r * self.s} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")


@dataclass(frozen=True)
class GridShift:
    """Shift vector with coordinates nums[i] / 2^r on the dyadic grid."""

    nums: tuple[int, ...]
    r: int

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError(f"resolution must be >= 0, got {self.r}")
        top = 1 << self.r
        for n in self.nums:
            if not 0 <= n < top:
                raise ValueError(f"shift numerator {n} outside [0, 2^{self.r})")

    @property
    def s(self) -> int:
        return len(self.nums)


@dataclass(frozen=True)
class ScalarShift:
    """Scalar index shift w = wnum / 2^sr for an embedded pair."""

    wnum: int
    sr: int

    def __post_init__(self) -> None:
        if self.sr < 0:
            raise ValueError(f"sr must be >= 0, got {self.sr}")
        if not 0 <= self.wnum < (1 << self.sr):
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


def bits_to_grid_shift(bits: BitString) -> GridShift:
    """Decode coordinate-major, most-significant-bit-first: coordinate k
    consumes bits k*r .. (k+1)*r - 1."""
    nums = []
    for k in range(bits.s):
        acc = 0
        for b in bits.bits[k * bits.r : (k + 1) * bits.r]:
            acc = (acc << 1) | b
        nums.append(acc)
    return GridShift(tuple(nums), bits.r)


def grid_shift_to_bits(shift: GridShift) -> BitString:
    bits: list[int] = []
    for n in shift.nums:
        bits.extend((n >> (shift.r - 1 - i)) & 1 for i in range(shift.r))
    return BitString(tuple(bits), shift.r, shift.s)


def bits_to_scalar_shift(bits: BitString) -> ScalarShift:
    """Decode all r*s bits as one binary fraction, most significant first."""
    acc = 0
    for b in bits.bits:
        acc = (acc << 1) | b
    return ScalarShift(acc, bits.r * bits.s)


def scalar_shift_to_bits(shift: ScalarShift, r: int, s: int) -> BitString:
    if r * s != shift.sr:
        raise ValueError(f"r*s = {r * s} does not match sr = {shift.sr}")
    bits = tuple((shift.wnum >> (shift.sr - 1 - i)) & 1 for i in range(shift.sr))
    return BitString(bits, r, s)


def _offset(f: PeriodicFunction) -> float:
    return f.known_integral if f.known_integral is not None else 0.0


def _row_means(values: np.ndarray, off: float) -> np.ndarray:
    """Mean of each row of values (the last axis), as off + fsum(row - off) / n."""
    n = values.shape[-1]
    return off + fsum_rows((values - off).reshape(-1, n)) / n


class DisplacedBlocks:
    """Prepared f - If over the nodes j * steps mod 2^t, j < n, displaced by
    blocks of offset columns.

    Built once per enumeration or estimate: the base numerators (s, n), one
    uint64 node buffer and one float buffer, each for up to `width` offset
    columns and laid out node-major, (s, n, B), so that the n nodes of each
    column run down one column.  A call adds its block's offset columns in
    place (`lattice.displace`), scales into the float buffer, evaluates, and
    subtracts If; `means` then sums down the columns with a correctly
    rounded sum that may overwrite the values.  Refuses more than
    2^GUARD_BITS nodes, or a depth beyond 64 bits, before allocating.  The
    buffers are reused, so a call must not start while another runs (not
    reentrant), and the values a call returns are overwritten by the next.
    """

    def __init__(self, steps: Sequence[int], t: int, n: int, f: PeriodicFunction, width: int) -> None:
        guard(n * width, "nodes")
        self.base = lattice_numerators(steps, t, n)
        self.t, self.n, self.f = t, n, f
        self.off = _offset(f)
        self._nodes = np.empty(self.base.size * width, dtype=np.uint64)
        self._xs = np.empty(self._nodes.size)

    def values(self, offsets: np.ndarray) -> np.ndarray:
        """f - If at the nodes displaced by each uint64 offset column of the
        (s, B) offsets, B <= width: shape (n, B), in the float buffer."""
        s, n = self.base.shape
        size = s * n * offsets.shape[1]
        nums = displace(self.base, offsets, self.t, out=self._nodes[:size].reshape(s, n, -1))
        xs = np.multiply(nums, 1.0 / (1 << self.t), out=self._xs[:size].reshape(nums.shape))
        # the coordinates are spent once f is evaluated, so the values take
        # their place at the head of the float buffer
        return np.subtract(self.f.eval_batch(xs), self.off, out=self._xs[: size // s].reshape(n, -1))

    def means(self, offsets: np.ndarray) -> np.ndarray:
        """Mean of f over the nodes of each offset column, one per column."""
        sums = _fsum_columns(self.values(offsets), lambda cols: self.values(offsets[:, cols]))
        return self.off + sums / self.n


def grid_blocks(rule: Rank1Rule, f: PeriodicFunction, r: int, width: int) -> DisplacedBlocks:
    """The rule nodes, displaced by blocks of r-bit grid shifts.

    Nodes at depth m and the shift at depth r combine exactly at depth
    t = max(m, r); the offset columns are shift numerators over 2^t.
    """
    t = max(rule.m, r)
    return DisplacedBlocks([c << (t - rule.m) for c in rule.z.components], t, rule.n_points, f, width)


def coset_blocks(pair: EmbeddedPair, f: PeriodicFunction, width: int) -> DisplacedBlocks:
    """The base-rule cosets of an embedded pair, by their offsets w * z.

    Coset w is the extension nodes (j << sr) | w = j * (z << sr) + w * z
    mod 2^(m+sr), j < 2^m, formed exactly in integer arithmetic; the
    equivalent float expression {(j + w)/2^m * z} would corrupt biases at
    the 1e-9 scale.
    """
    return DisplacedBlocks([c << pair.sr for c in pair.z.components], pair.ext, 1 << pair.m, f, width)


def coset_offsets(pair: EmbeddedPair, lo: int, hi: int) -> np.ndarray:
    """The offsets w * z (mod 2^64) of the cosets w = lo .. hi - 1, one column each."""
    return as_uint64(pair.z.components)[:, None] * np.arange(lo, hi, dtype=np.uint64)


def grid_evaluator(rule: Rank1Rule, f: PeriodicFunction, r: int) -> Callable[[GridShift], float]:
    """Prepared mean of f over the rule nodes displaced by an r-bit grid shift.

    No relation between r and m is required here.  Refuses as
    DisplacedBlocks does; reuses its buffers: not reentrant.
    """
    blocks = grid_blocks(rule, f, r, 1)
    up = blocks.t - r

    def evaluate(shift: GridShift) -> float:
        if shift.s != rule.s:
            raise ValueError(f"dimension mismatch: shift has {shift.s}, rule has {rule.s}")
        if shift.r != r:
            raise ValueError(f"bit-depth mismatch: shift has {shift.r}, evaluator has {r}")
        return float(blocks.means(as_uint64(v << up for v in shift.nums)[:, None])[0])

    return evaluate


def scalar_evaluator(pair: EmbeddedPair, f: PeriodicFunction) -> Callable[[ScalarShift], float]:
    """Prepared mean of f over the base-rule coset a scalar shift selects.

    Refuses as DisplacedBlocks does; not reentrant.
    """
    blocks = coset_blocks(pair, f, 1)

    def evaluate(shift: ScalarShift) -> float:
        if shift.sr != pair.sr:
            raise ValueError(f"bit-depth mismatch: shift has {shift.sr}, pair has {pair.sr}")
        return float(blocks.means(coset_offsets(pair, shift.wnum, shift.wnum + 1))[0])

    return evaluate


def real_evaluator(rule: Rank1Rule, f: PeriodicFunction) -> Callable[[RealShift], float]:
    """Prepared mean of f over the rule nodes displaced by a real shift.

    The idealized estimator: fractional parts are taken in floating point,
    so unlike the dyadic evaluators this one carries ordinary rounding in
    its point coordinates.  Reuses its buffer: not reentrant.
    """
    nodes = lattice_numerators(rule.z.components, rule.m, rule.n_points) * (1.0 / rule.n_points)
    xb = np.empty_like(nodes)
    off = _offset(f)

    def evaluate(shift: RealShift) -> float:
        if shift.s != rule.s:
            raise ValueError(f"dimension mismatch: shift has {shift.s}, rule has {rule.s}")
        np.add(nodes, np.array(shift.u)[:, None], out=xb)
        np.subtract(xb, 1.0, out=xb, where=xb >= 1.0)
        return float(_row_means(f.eval_batch(xb), off)[0])

    return evaluate


def eval_rule(rule: Rank1Rule, f: PeriodicFunction) -> float:
    """Plain (unshifted) rule value: the mean of f over all nodes."""
    return eval_grid_shifted(rule, f, GridShift((0,) * rule.s, 0))


def eval_grid_shifted(rule: Rank1Rule, f: PeriodicFunction, shift: GridShift) -> float:
    """Mean of f over the rule nodes displaced by the grid shift."""
    return grid_evaluator(rule, f, shift.r)(shift)


def eval_scalar_shifted(pair: EmbeddedPair, f: PeriodicFunction, shift: ScalarShift) -> float:
    """Mean of f over the base-rule coset selected by the scalar shift."""
    return scalar_evaluator(pair, f)(shift)


def eval_real_shifted(rule: Rank1Rule, f: PeriodicFunction, shift: RealShift) -> float:
    """Mean of f over nodes displaced by an arbitrary real shift."""
    return real_evaluator(rule, f)(shift)


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
    evaluator: Callable[[ShiftT], float],
    shifts: Sequence[ShiftT],
) -> ReplicateEstimate:
    """Apply the evaluator to each shift replicate and average.

    The sample standard deviation uses divisor q - 1 (unbiased variance for
    iid replicates) and is absent for a single replicate.
    """
    q = len(shifts)
    if q == 0:
        raise ValueError("need at least one shift replicate")
    values = tuple(evaluator(shift) for shift in shifts)
    mean = math.fsum(values) / q
    if q == 1:
        return ReplicateEstimate(values, mean, None)
    var = math.fsum((v - mean) ** 2 for v in values) / (q - 1)
    return ReplicateEstimate(values, mean, math.sqrt(var))
