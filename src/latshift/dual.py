"""Dual-lattice enumeration and Fourier-space error moments.

The error of a shifted rank-1 rule is a sum of integrand Fourier
coefficients over the nonzero points of the dual lattice, modulated by the
shift phase.  Working in that dual space gives series expressions for the
moments of the ideally shifted rule:

* first moment of the error at shift c:   sum' of exp(2 pi i h.c) f^(h);
* variance over uniform real shifts:      sum' of |f^(h)|^2;
* third central moment:                   a double sum over dual pairs
  (h, k) with both k and h - k nonzero, of f^(h) f^*(k) f^*(h - k).

Sums are truncated to a symmetric box |h_i| <= H; each result carries a
computable (crude, monotone-in-H) bound on the discarded tail.  The box
duals are one (D, s) integer array solved in closed form for the last
coordinate (`dual_points` is its tuple view); every series takes its
coefficients from one batched `fourier_coeff` call and sums whole arrays
through `fsum_rows`, bit for bit as `math.fsum`, so no series depends on
the order of its terms.  The third-moment series forms each unordered pair
{k, h - k} once, a block of h rows at a time, and for even coefficients
(c(-h) = c(h), as for every real integrand with real coefficients) sums
only the rows of half the duals: the sorted duals are closed under
negation, and the inner sum at -h is the one at h, bit for bit.  Cumulant
scaling then transports single-replicate moments to the replicate mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import guard, guard_power
from .fsum import fsum_rows
from .functions import PeriodicFunction
from .lattice import NODE_DTYPE_BITS, DyadicPoint, Rank1Rule
from .shifts import GridShift, RealShift

DualIndex = tuple[int, ...]

# dual pairs per array pass of the third-moment series: a pass takes as many
# rows as fit this many pairs over the columns their windows span, and holds
# a few arrays of that many entries, so memory stays flat whatever the dual
# count
_PAIR_BLOCK = 1 << 13


@dataclass(frozen=True)
class TruncationBox:
    """Symmetric index box |h_i| <= H used to truncate the infinite sums."""

    H: int

    def __post_init__(self) -> None:
        # below 2^62, box coordinates and their differences fit int64
        if type(self.H) is not int or not 1 <= self.H < 1 << 62:
            raise ValueError(f"box bound must be an int in [1, 2^62), got {self.H!r}")


@dataclass(frozen=True)
class SeriesResult:
    """A truncated dual-lattice series value with its tail bound."""

    value: float
    tail_bound: float
    H: int


@dataclass(frozen=True)
class CumulantSet:
    """Cumulants kappa_2..kappa_4 of a replicate-mean estimator.

    q records how many iid single replicates the described mean averages;
    central moments follow as mu2 = k2, mu3 = k3, mu4 = k4 + 3 k2^2.
    """

    kappa2: float
    kappa3: float
    kappa4: float | None = None
    q: int = 1

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError(f"replicate count must be >= 1, got {self.q}")

    @property
    def mu2(self) -> float:
        return self.kappa2

    @property
    def mu3(self) -> float:
        return self.kappa3

    @property
    def mu4(self) -> float | None:
        if self.kappa4 is None:
            return None
        return self.kappa4 + 3.0 * self.kappa2**2


def mean_cumulants(single: CumulantSet, q: int) -> CumulantSet:
    """Cumulants of the mean of q iid replicates: kappa_r scales by q^(1-r)."""
    if q < 1:
        raise ValueError(f"replicate count must be >= 1, got {q}")
    return CumulantSet(
        kappa2=single.kappa2 / q,
        kappa3=single.kappa3 / q**2,
        kappa4=None if single.kappa4 is None else single.kappa4 / q**3,
        q=single.q * q,
    )


def _guard_box(s: int, m: int, box: TruncationBox) -> int:
    """Refuse more than 2^GUARD_BITS candidate duals of a 2^m-point rule in s
    dimensions, from s, m and H alone; returns the values of h_s a prefix allows."""
    width = 2 * box.H + 1
    per = -(-width >> m)
    guard_power(width, s - 1, per, "candidate duals over the box prefixes")
    return per


def _dual_array(rule: Rank1Rule, box: TruncationBox) -> np.ndarray:
    """`dual_points` as a (D, s) int64 array, one row per dual."""
    s, H, n = rule.s, box.H, rule.n_points
    width = 2 * H + 1
    per = _guard_box(s, rule.m, box)
    prefixes = np.indices((width,) * (s - 1)).reshape(s - 1, width ** (s - 1)).T - H
    z = [c & (n - 1) for c in rule.z.components]
    # uint64 arithmetic wraps exactly mod n up to n = 2^64
    wide = np.uint64 if rule.m <= NODE_DTYPE_BITS else object
    partial = prefixes.astype(wide) @ np.array(z[:-1], dtype=wide)
    # h_s = offset - H is the smallest solution >= -H; an offset >= width
    # leaves none in the box, so clipping at width loses nothing
    offset = ((0 - partial) * pow(z[-1], -1, n) + H) & (n - 1)
    offset = np.minimum(offset, width).astype(np.int64)
    hs = offset[:, None] - H + min(n, width) * np.arange(per)
    keep = hs <= H
    duals = np.column_stack((np.repeat(prefixes, keep.sum(axis=1), axis=0), hs[keep]))
    return duals[duals.any(axis=1)]


def dual_points(rule: Rank1Rule, box: TruncationBox) -> list[DualIndex]:
    """All nonzero h with |h_i| <= H and h . z = 0 (mod 2^m), in lexicographic order.

    The congruence is solved for the last coordinate, for all prefixes
    h_1..h_{s-1} of the box at once: every component of z is odd, hence
    invertible mod 2^m, so a prefix forces the residue of h_s mod 2^m, and
    h_s then steps by 2^m across the box.  Refuses more than 2^GUARD_BITS
    candidates (box prefixes times the h_s one prefix can take) before
    building any.
    """
    return list(map(tuple, _dual_array(rule, box).tolist()))


def _fsum(terms: np.ndarray) -> float:
    """math.fsum of the 1-D float array terms, bit for bit."""
    return float(fsum_rows(terms.reshape(1, -1))[0])


def _shift_floats(shift, s: int) -> tuple[float, ...]:
    if shift is None:
        return (0.0,) * s
    if isinstance(shift, RealShift):
        c = shift.u
    elif isinstance(shift, GridShift):
        c = DyadicPoint(shift.nums, shift.r).as_floats()
    elif isinstance(shift, DyadicPoint):
        c = shift.as_floats()
    else:
        c = tuple(float(x) for x in shift)
    if len(c) != s:
        raise ValueError(f"shift dimension {len(c)} does not match rule dimension {s}")
    return c


def shift_error_series(
    rule: Rank1Rule,
    f: PeriodicFunction,
    shift,
    box: TruncationBox,
) -> SeriesResult:
    """Truncated dual series for the shifted-rule error Q_c f - If.

    For a real-valued integrand the coefficients at h and -h are conjugate,
    so the imaginary parts cancel over the symmetric box and only the cosine
    part is accumulated; the result is real.  The shift may be None (zero),
    a RealShift, a GridShift, a DyadicPoint, or a float sequence.
    """
    c = _shift_floats(shift, rule.s)
    duals = _dual_array(rule, box)
    # h . c summed left to right from +0.0, as Python's sum() would
    phase = sum((hi * ci for hi, ci in zip(duals.T, c)), np.zeros(len(duals)))
    terms = np.cos(2.0 * math.pi * phase)
    terms *= f.fourier_coeff(duals)
    return SeriesResult(_fsum(terms), f.coefficient_tail_bound(box.H, 1), box.H)


def cp_variance_series(rule: Rank1Rule, f: PeriodicFunction, box: TruncationBox) -> SeriesResult:
    """Truncated dual series for Var(Q_u f) under uniform real shifts."""
    coeffs = f.fourier_coeff(_dual_array(rule, box))
    return SeriesResult(_fsum(coeffs * coeffs), f.coefficient_tail_bound(box.H, 2), box.H)


def third_moment_series(rule: Rank1Rule, f: PeriodicFunction, box: TruncationBox) -> SeriesResult:
    """Truncated dual double sum for the third central moment of Q_u f.

    For each box dual h, sums over the box duals k with l = h - k nonzero
    and inside the box.  Such an l is itself a box dual (a lattice is closed
    under subtraction), so its coefficient is looked up, not recomputed.
    Real coefficients are assumed, which makes the result real.  Cost is
    quadratic in the number of box duals, so more than 2^GUARD_BITS pairs
    are refused before any is formed.

    Each dual is keyed in the balanced base 4H + 1, whose digits cover the
    doubled box |l_i| <= 2H that holds every difference h - k.  The key is
    linear and orders like the duals, so key(h) - key(k) names h - k, and
    one binary search over the sorted dual keys finds every l; zero is not
    a box dual, so l = 0 is never found.

    The term c(k) c(l) is the same float as c(l) c(k), so row h takes each
    unordered pair once: twice for key(k) < key(l), once on the diagonal
    k = l = h / 2.  Doubling is exact (short of overflow), so each inner sum
    from `fsum_rows` is bitwise the `math.fsum` of all the ordered terms.
    Row h forms the k of its window: 2 key(k) <= key(h), which is
    key(k) <= key(l), and k_1 >= h_1 - H, below which l_1 > H.  Both ends
    rise with h, so a block of consecutive rows spans the union of their
    windows; it takes as many rows as fit `_PAIR_BLOCK` pairs.  A row keeps
    the terms whose l is found and whose k lies before its window's end (a
    k before its window's start has no l in the box); a zero term leaves an
    exact sum unchanged.

    Reflection: the box duals are the nonzero lattice points of a box
    symmetric about 0, so h is a dual exactly when -h is, and negation
    reverses the lexicographic order: row D - 1 - i is -h_i (D is even).
    If the coefficient array reads the same reversed, c(-h) = c(h) on every
    dual; that check is exact and O(D).  Then k -> -k maps the ordered
    pairs of row h onto those of row -h with the same products
    c(-k) c(-(h - k)) = c(k) c(h - k), so both inner sums are the correctly
    rounded sum of one multiset of floats: the same float.  Only the first
    ceil(D / 2) rows are summed, and the rest are mirrored from them.  Any
    other coefficients (c(-h) != c(h) somewhere) take every row.

    The reported tail bound is crude: a term is lost only if one of the
    three indices leaves the box, so three times the single-index tail
    times a bound on the unconstrained double sum covers the remainder.
    """
    H = box.H
    duals = _dual_array(rule, box)
    D = len(duals)
    guard(D**2, "dual pairs")
    coeffs = f.fourier_coeff(duals)
    # keys increase with the lexicographic row order.  They fit int64: for
    # s = 1 the key is h itself and |h - k| <= 2H < 2^63; for s >= 2 the
    # candidate guard gives 3^(s-1) <= (2H + 1)^(s-1) <= 2^26, so s <= 17,
    # and |key| < (4H + 1)^s / 2 < 2^53
    radix = np.array([(4 * H + 1) ** i for i in range(rule.s - 1, -1, -1)], dtype=np.int64)
    keys = duals @ radix
    # row h's window of k is [lo[h], hi[h]), empty where lo[h] >= hi[h]
    lo = np.searchsorted(duals[:, 0], duals[:, 0] - H)
    hi = np.searchsorted(2 * keys, keys, "right")

    def block_sums(r0: int, r1: int) -> np.ndarray:
        c0, c1 = lo[r0], max(lo[r0], hi[r1 - 1])
        cols = np.arange(c0, c1)
        diff = keys[r0:r1, None] - keys[c0:c1]  # key of h - k, one row per h
        idx = np.minimum(np.searchsorted(keys, diff), D - 1)
        keep = (keys[idx] == diff) & (cols < hi[r0:r1, None])
        terms = np.zeros(diff.shape)
        np.multiply(coeffs[c0:c1], coeffs[idx], out=terms, where=keep)
        # off the diagonal a term stands for both orders of its pair
        np.multiply(terms, 2.0, out=terms, where=idx != cols)
        del diff, idx, keep  # freed before fsum_rows copies the terms
        return fsum_rows(terms)

    # row D - 1 - i is -h_i; with even coefficients its inner sum is row i's
    rows = (D + 1) // 2 if np.array_equal(coeffs, coeffs[::-1]) else D
    inner = np.zeros(D)
    r0 = 0
    while r0 < rows:
        # the most rows from r0 whose spanned pairs stay within _PAIR_BLOCK
        span = np.maximum(hi[r0 : min(r0 + _PAIR_BLOCK, rows)] - lo[r0], 0)
        pairs = np.arange(1, len(span) + 1) * span
        r1 = r0 + max(1, int(np.searchsorted(pairs, _PAIR_BLOCK, "right")))
        inner[r0:r1] = block_sums(r0, r1)
        r0 = r1
    inner[rows:] = inner[: D - rows][::-1]
    tail1 = f.coefficient_tail_bound(H, 1)
    tail = 3.0 * tail1 * (_fsum(np.abs(coeffs)) + tail1)
    return SeriesResult(_fsum(coeffs * inner), tail, H)
