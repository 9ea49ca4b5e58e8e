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

Every evaluator builds its nodes with the vectorized kernel
`lattice.lattice_numerators`, evaluates them in one `eval_batch` call, and
sums f(x) - If (when the integral is known) per shift with
`fsum.fsum_rows`, which rounds correctly (equal to `math.fsum` bit for bit)
in a few whole-array passes, before adding If back, so a mean does not
depend on the order of its nodes.

Replicates come from prepared evaluators (`grid_evaluator`,
`scalar_evaluator`, `real_evaluator`): each builds the unshifted base
nodes once and one node buffer, and each call only adds its shift's offset
column into that buffer (`lattice.displace`, mod 2^t) before evaluating.
A node is the same integer (or, for the real shift, the same float) as a
fresh build would give, so every replicate is bitwise unchanged.  Since
the buffers are reused, one evaluator must not be called again while a
call is running (it is not reentrant); the means it returns are Python
floats and share nothing with it.  `eval_{grid,scalar,real}_shifted` are
single uses of the same evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .fsum import fsum_rows
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


def grid_shift_means(rule: Rank1Rule, f: PeriodicFunction, offsets: np.ndarray, t: int) -> np.ndarray:
    """Means of f over the rule nodes displaced by a block of grid shifts.

    offsets holds the shift numerators over 2^t (t >= m), one shift per
    column of its (s, B) shape; the result has one mean per shift.
    """
    steps = [c << (t - rule.m) for c in rule.z.components]
    nums = lattice_numerators(steps, t, rule.n_points, offsets)
    return _row_means(f.eval_batch(nums * (1.0 / (1 << t))), _offset(f))


def coset_means(pair: EmbeddedPair, f: PeriodicFunction, lo: int, hi: int) -> np.ndarray:
    """Means of f over the base-rule cosets lo .. hi - 1 of the pair.

    Coset w is the extension nodes (j << sr) | w, j < 2^m, formed exactly
    in integer arithmetic at depth m + sr; the equivalent float expression
    {(j + w)/2^m * z} would corrupt biases at the 1e-9 scale.
    """
    z = pair.z.components
    w = np.arange(hi - lo, dtype=np.uint64) + as_uint64([lo])
    offsets = as_uint64(z)[:, None] * w
    nums = lattice_numerators([c << pair.sr for c in z], pair.ext, 1 << pair.m, offsets)
    return _row_means(f.eval_batch(nums * (1.0 / (1 << pair.ext))), _offset(f))


def _displaced_means(
    steps: Sequence[int], t: int, n: int, f: PeriodicFunction
) -> Callable[[np.ndarray], float]:
    """Mean of f over the nodes j * steps mod 2^t, j < n, displaced by one
    uint64 offset column (s,), evaluated in buffers reused across calls."""
    base = lattice_numerators(steps, t, n)
    nb = np.empty((len(steps), 1, n), dtype=np.uint64)
    xb = np.empty(nb.shape)
    scale = 1.0 / (1 << t)
    off = _offset(f)

    def mean(col: np.ndarray) -> float:
        displace(base, col[:, None], t, out=nb)
        np.multiply(nb, scale, out=xb)
        return float(_row_means(f.eval_batch(xb), off)[0])

    return mean


def grid_evaluator(rule: Rank1Rule, f: PeriodicFunction, r: int) -> Callable[[GridShift], float]:
    """Prepared mean of f over the rule nodes displaced by an r-bit grid shift.

    Nodes at depth m and the shift at depth r combine exactly at depth
    max(m, r); no relation between r and m is required here.  Refuses more
    than 2^GUARD_BITS nodes, or a depth beyond 64 bits, before allocating.
    Reuses its buffers: not reentrant.
    """
    t = max(rule.m, r)
    mean = _displaced_means([c << (t - rule.m) for c in rule.z.components], t, rule.n_points, f)

    def evaluate(shift: GridShift) -> float:
        if shift.s != rule.s:
            raise ValueError(f"dimension mismatch: shift has {shift.s}, rule has {rule.s}")
        if shift.r != r:
            raise ValueError(f"bit-depth mismatch: shift has {shift.r}, evaluator has {r}")
        return mean(as_uint64(v << (t - r) for v in shift.nums))

    return evaluate


def scalar_evaluator(pair: EmbeddedPair, f: PeriodicFunction) -> Callable[[ScalarShift], float]:
    """Prepared mean of f over the base-rule coset a scalar shift selects.

    Coset w is the extension nodes (j << sr) | w = j * (z << sr) + w * z
    mod 2^(m+sr), j < 2^m.  Refuses as grid_evaluator does; not reentrant.
    """
    z = as_uint64(pair.z.components)
    mean = _displaced_means([c << pair.sr for c in pair.z.components], pair.ext, 1 << pair.m, f)

    def evaluate(shift: ScalarShift) -> float:
        if shift.sr != pair.sr:
            raise ValueError(f"bit-depth mismatch: shift has {shift.sr}, pair has {pair.sr}")
        return mean(z * np.uint64(shift.wnum))

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
