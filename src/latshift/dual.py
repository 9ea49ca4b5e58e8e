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
computable (crude, monotone-in-H) bound on the discarded tail.  A box
prepares the duals of one rule at a time (`TruncationBox.prepare`): it
checks the box guard once, solves the congruence in closed form for the
last coordinate over blocks of candidates, and keeps each dual as one
sorted int64 key, 8 bytes a dual, from which it decodes rows a block at a
time.  It also keeps the coefficients of the last integrand asked for, 8
bytes a dual, so the four calls of one op on one box (`dual_points` and the
three series) solve the duals once and call `fourier_coeff` once.  The
error and variance series stream blocks of terms through `fsum_blocks`,
the `dual` command writes its rows a block at a time, and the third-moment
series reads only keys and coefficients, and finds the dual h - k by one
read of a dense table over the keys where that table is small against the
pairs formed (2 bytes a key, at most 8 MB), by a binary search over the
sorted keys elsewhere.  Every sum is correctly rounded,
bit for bit as `math.fsum`, so no result depends on the order or the
blocking of its terms.  The third-moment series forms each unordered pair
{k, h - k} once, a block of h rows at a time, and for even coefficients
(c(-h) = c(h), as for every real integrand with real coefficients) sums
only the rows of half the duals: the sorted duals are closed under
negation, and the inner sum at -h is the one at h, bit for bit.  Cumulant
scaling then transports single-replicate moments to the replicate mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import guard
from .fsum import fsum_blocks, fsum_rows
from .functions import PeriodicFunction
from .lattice import NODE_DTYPE_BITS, DyadicPoint, Rank1Rule
from .shifts import GridShift, RealShift

DualIndex = tuple[int, ...]

# box duals per block: the candidates a block of the key build solves, and
# the rows a block decodes, so memory beyond the keys and coefficients (8
# bytes a dual each) stays flat whatever the dual count
_DUAL_BLOCK = 1 << 16

# dual pairs per array pass of the third-moment series: a pass takes as many
# rows as fit this many pairs over the columns their windows span, and holds
# a few arrays of that many entries, so memory stays flat whatever the dual
# count
_PAIR_BLOCK = 1 << 13

# above every key, and above every difference of two keys
_SENTINEL_KEY = np.iinfo(np.int64).max

# the third-moment series reads the index of h - k from a dense int16 table
# over the keys -K..K when the table has at most _INDEX_PER_PAIR entries a
# pair in the summed rows' windows and at most _INDEX_ENTRIES (8 MB), and
# binary-searches the sorted keys otherwise.  Series time on a 2-core Xeon,
# table against search: 1.5-1.9x faster at 0.1-5.3 entries a pair (every
# 3-D benchmark shape), 1.1-1.4x at 7-70 entries a pair above 1800 pairs,
# but 9-22 us slower under 120 pairs (18-2500 entries a pair) and 2.2-2.9x
# slower at 4700.  8 takes the table on no shape measured slower by more
# than the noise, and holds it to 16 bytes a pair.  At (3,11,64) 8.5M
# entries still won 17% and at (3,12,80) 16.5M lost 8%; the cap holds the
# table to 8 MB, against about 0.6 MB for the rest of the series at the
# 8192 duals the pair guard admits
_INDEX_PER_PAIR = 8
_INDEX_ENTRIES = 1 << 22


@dataclass(frozen=True)
class TruncationBox:
    """Symmetric index box |h_i| <= H used to truncate the infinite sums.

    The box keeps the prepared duals of the last rule it was used with and
    the coefficients of the last integrand asked for (see `prepare`), with
    a reference to that integrand, for as long as the box lives: 16 bytes a
    dual, about 1 GB at the 2^26 candidate duals the guard admits.  They
    take no part in equality, hashing or repr.  Threads may share a box,
    since every call reads one complete set of duals and coefficients, but
    calls for different rules or integrands replace each other's, so a
    thread is better served by a box of its own.
    """

    H: int
    _prepared: PreparedBox | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # below 2^62, box coordinates and their differences fit int64
        if type(self.H) is not int or not 1 <= self.H < 1 << 62:
            raise ValueError(f"box bound must be an int in [1, 2^62), got {self.H!r}")

    def guard(self, s: int, m: int) -> int:
        """Refuse more than 2^GUARD_BITS candidate duals of a 2^m-point rule in
        s dimensions, from s, m and H alone, before any is built; returns the
        values of h_s one prefix h_1..h_{s-1} allows."""
        width = 2 * self.H + 1
        per = -(-width >> m)
        guard(per, "candidate duals over the box prefixes", s - 1, width)
        return per

    def prepare(self, rule: Rank1Rule) -> PreparedBox:
        """The box duals of rule, built on the first call for an equal rule.

        The box keeps one rule's duals and the coefficients of one
        integrand, so every call of one op on one box shares them; a call
        for another rule builds that rule's in their place.
        """
        prepared = self._prepared
        if prepared is None or prepared.rule != rule:
            prepared = PreparedBox(rule, self)
            object.__setattr__(self, "_prepared", prepared)
        return prepared


class PreparedBox:
    """The duals of one rule in one box, as sorted int64 keys.

    Each dual is keyed in the balanced base 4H + 1: key(h) is the sum of
    h_i (4H + 1)^(s - i).  Its digits lie in [-H, H], so the key orders like
    the duals (lexicographically) and decodes uniquely, and the base covers
    the doubled box |l_i| <= 2H, so key(h) - key(k) is the key of h - k.
    The keys fit int64: for s = 1 the key is h itself, and for s >= 2 the
    candidate guard bounds (4H + 1)^s below 2^54.  Rows are decoded from the
    keys a block of `_DUAL_BLOCK` at a time, and the coefficients of the
    last integrand asked for are kept, so a prepared box holds 16 bytes a
    dual.

    `keys` and `coefficients(f)` are read-only arrays of D + 1 entries: the
    D duals' in increasing key order, then a sentinel at index D, a key
    above every key and every difference of two keys, and a zero
    coefficient.  A lookup that finds no dual can so be pointed at index D
    and read a zero term.
    """

    def __init__(self, rule: Rank1Rule, box: TruncationBox) -> None:
        self.rule, self.H = rule, box.H
        self._base = 4 * box.H + 1
        self.keys = _box_keys(rule, box.H, box.guard(rule.s, rule.m))
        self.keys.flags.writeable = False
        self._last: tuple[PeriodicFunction, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.keys) - 1

    def blocks(self) -> Iterator[slice]:
        """Consecutive slices of the duals, `_DUAL_BLOCK` at a time."""
        D = len(self)
        return (slice(lo, min(lo + _DUAL_BLOCK, D)) for lo in range(0, D, _DUAL_BLOCK))

    def rows(self, block: slice) -> np.ndarray:
        """The duals of a block of `blocks` as an (n, s) int64 array."""
        k = self.keys[block]
        out = np.empty((len(k), self.rule.s), dtype=np.int64)
        # digit i is (k + H) mod (4H + 1), less H, from the last coordinate
        for i in range(self.rule.s - 1, 0, -1):
            k, digit = np.divmod(k + self.H, self._base)
            out[:, i] = digit - self.H
        out[:, 0] = k
        return out

    def coefficients(self, f: PeriodicFunction) -> np.ndarray:
        """f's Fourier coefficient at every dual, then the zero sentinel, from
        one `fourier_coeff` call a block; kept for f (the same object) until
        another f is asked for."""
        last = self._last
        if last is None or last[0] is not f:
            # the last integrand's are let go first, so one array is held,
            # and the new ones are kept only once complete
            self._last = last = None
            coeffs = np.zeros(len(self.keys))
            for block in self.blocks():
                coeffs[block] = f.fourier_coeff(self.rows(block))
            coeffs.flags.writeable = False
            self._last = last = (f, coeffs)
        return last[1]


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


def _box_keys(rule: Rank1Rule, H: int, per: int) -> np.ndarray:
    """The sorted keys of the box duals of rule, then `_SENTINEL_KEY`.

    The congruence h . z = 0 (mod 2^m) is solved for the last coordinate:
    every component of z is odd, hence invertible mod 2^m, so a prefix
    h_1..h_{s-1} forces the residue of h_s mod 2^m, and h_s then steps by
    2^m across the box.  Candidate c is the (c mod per)-th such h_s of the
    prefix numbered c // per in lexicographic order (per values of h_s
    cover the box), and candidates are solved `_DUAL_BLOCK` at a time, in
    order, so the kept keys come out sorted.
    """
    s, n = rule.s, rule.n_points
    width, base = 2 * H + 1, 4 * H + 1
    z = [c & (n - 1) for c in rule.z.components]
    # uint64 arithmetic wraps exactly mod n up to n = 2^64
    wide = np.uint64 if rule.m <= NODE_DTYPE_BITS else object
    inverse, step = pow(z[-1], -1, n), min(n, width)
    candidates = width ** (s - 1) * per
    keys = []
    for c0 in range(0, candidates, _DUAL_BLOCK):
        prefix, j = np.divmod(np.arange(c0, min(c0 + _DUAL_BLOCK, candidates)), per)
        first = int(prefix[0])
        prefix -= first
        # the block's prefixes h . z mod 2^64 (or exactly) and their keys,
        # digit by digit from the last prefix coordinate
        p = np.arange(first, first + int(prefix[-1]) + 1)
        partial, prefix_key = np.zeros(len(p), dtype=wide), np.zeros(len(p), dtype=np.int64)
        weight = base
        for zi in reversed(z[:-1]):
            p, digit = np.divmod(p, width)
            digit -= H
            partial += digit.astype(wide) * zi
            prefix_key += digit * weight
            weight *= base
        # h_s = offset - H is the smallest solution >= -H; an offset >= width
        # leaves none in the box, so clipping at width loses nothing
        offset = ((0 - partial) * inverse + H) & (n - 1)
        offset = np.minimum(offset, width).astype(np.int64)
        hs = offset[prefix] - H + step * j
        key = prefix_key[prefix] + hs
        keys.append(key[(hs <= H) & (key != 0)])
    keys.append(np.array([_SENTINEL_KEY]))
    return np.concatenate(keys)


def dual_points(rule: Rank1Rule, box: TruncationBox) -> list[DualIndex]:
    """All nonzero h with |h_i| <= H and h . z = 0 (mod 2^m), in lexicographic order.

    The duals are solved in closed form (see `_box_keys`) and kept by the
    box.  Refuses more than 2^GUARD_BITS candidates (box prefixes times the
    h_s one prefix can take) before building any.
    """
    duals = box.prepare(rule)
    return [h for block in duals.blocks() for h in map(tuple, duals.rows(block).tolist())]


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
    duals = box.prepare(rule)
    coeffs = duals.coefficients(f)

    def terms() -> Iterator[np.ndarray]:
        for block in duals.blocks():
            # h . c summed left to right from +0.0, as Python's sum() would
            rows = duals.rows(block)
            phase = sum((hi * ci for hi, ci in zip(rows.T, c)), np.zeros(len(rows)))
            values = np.cos(2.0 * math.pi * phase)
            values *= coeffs[block]
            yield values

    return SeriesResult(fsum_blocks(terms), f.coefficient_tail_bound(box.H, 1), box.H)


def cp_variance_series(rule: Rank1Rule, f: PeriodicFunction, box: TruncationBox) -> SeriesResult:
    """Truncated dual series for Var(Q_u f) under uniform real shifts."""
    duals = box.prepare(rule)
    coeffs = duals.coefficients(f)
    squares = fsum_blocks(lambda: (coeffs[block] * coeffs[block] for block in duals.blocks()))
    return SeriesResult(squares, f.coefficient_tail_bound(box.H, 2), box.H)


def third_moment_series(rule: Rank1Rule, f: PeriodicFunction, box: TruncationBox) -> SeriesResult:
    """Truncated dual double sum for the third central moment of Q_u f.

    For each box dual h, sums over the box duals k with l = h - k nonzero
    and inside the box.  Such an l is itself a box dual (a lattice is closed
    under subtraction), so its coefficient is looked up, not recomputed.
    Real coefficients are assumed, which makes the result real.  Cost is
    quadratic in the number of box duals, so more than 2^GUARD_BITS pairs
    are refused before any is formed.

    The keys of the prepared box (`PreparedBox`) are linear and order like
    the duals, so key(h) - key(k) names h - k, and every dual key lies in
    [-K, K], K the largest.  Where it is small against the work, a dense
    int16 table over the keys -K..K, with one pad entry past each end, holds
    the index of each dual and D elsewhere, and one read finds every l: it
    is built when its 2K + 3 entries (2 bytes each) are at most
    `_INDEX_PER_PAIR` a pair in the summed rows' windows and at most
    `_INDEX_ENTRIES` (8 MB); elsewhere, as for sparse rules of large m, one
    binary search over the sorted keys finds every l.  Zero is not a box
    dual, so l = 0 is never found.

    The term c(k) c(l) is the same float as c(l) c(k), so row h takes each
    unordered pair once: twice for key(k) < key(l), once on the diagonal
    k = l = h / 2.  Row h forms the k of its window: 2 key(k) <= key(h),
    which is key(k) <= key(l), and k_1 >= h_1 - H, below which l_1 > H.
    In keys, l_1 <= H is key(l) <= H R + (R - 1) / 2 with R = (4H + 1)^(s-1),
    since the other digits of l add at most 2H (R - 1) / 4H.  Both ends
    rise with h, so a block of consecutive rows spans the union of their
    windows; it takes as many rows as fit `_PAIR_BLOCK` pairs.  A k past
    its row's window (where key(l) < key(k)), and a k whose l is not found
    (as for a k before its window's start, whose l is not in the box), take
    the zero sentinel coefficient in place of c(l); a zero term leaves an
    exact sum unchanged.  Every term is doubled after its product is
    rounded, which is exact short of overflow, and each row's one diagonal
    term is then put back as it was.  So each inner sum from `fsum_rows` is
    bitwise the `math.fsum` of all the ordered terms.

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
    duals = box.prepare(rule)
    D = len(duals)
    guard(D * D, "dual pairs")
    # D keys and D coefficients, each with its sentinel at index D
    keys, looked_up = duals.keys, duals.coefficients(f)
    coeffs = looked_up[:D]
    # row h's window of k is [lo[h], hi[h]), empty where lo[h] >= hi[h];
    # hi >= 1, since the least key is negative and twice it is below every key
    hi = np.searchsorted(2 * keys[:D], keys[:D], "right")
    # the rows whose window ends with the diagonal pair k = l = h / 2
    halves = keys[hi - 1]
    halves *= 2
    diagonal = np.flatnonzero(halves == keys[:D])
    del halves
    R = (4 * H + 1) ** (rule.s - 1)
    lo = np.searchsorted(keys[:D], keys[:D] - (H * R + (R - 1) // 2))

    # row D - 1 - i is -h_i; with even coefficients its inner sum is row i's
    rows = (D + 1) // 2 if np.array_equal(coeffs, coeffs[::-1]) else D
    # every dual key lies in [-K, K]: the duals are closed under negation
    K = int(keys[D - 1]) if D else 0
    windowed = int(np.maximum(hi[:rows] - lo[:rows], 0).sum())
    if 2 * K + 1 <= min(_INDEX_PER_PAIR * windowed, _INDEX_ENTRIES):
        # entry K + 1 + key(l) holds l's index, or D where key(l) names no
        # dual, as does one pad entry past each end, onto which the take
        # clips every key beyond +-K
        table = np.full(2 * K + 3, D, dtype=np.int16)
        table[keys[:D] + (K + 1)] = np.arange(D)

        def index(diff: np.ndarray) -> np.ndarray:
            diff += K + 1
            diff[...] = np.take(table, diff, mode="clip")
            return diff

    else:

        def index(diff: np.ndarray) -> np.ndarray:
            idx = np.searchsorted(keys[:D], diff)
            np.putmask(idx, np.take(keys, idx) != diff, D)
            return idx

    def block_sums(r0: int, r1: int) -> np.ndarray:
        c0, c1 = lo[r0], max(lo[r0], hi[r1 - 1])
        # the index of l = h - k, or D where l is no dual, one row per h
        idx = index(keys[r0:r1, None] - keys[c0:c1])
        # l before k (k past its row's window): the sentinel
        np.putmask(idx, idx < np.arange(c0, c1), D)
        terms = np.take(looked_up, idx)
        terms *= coeffs[c0:c1]
        # off the diagonal a term stands for both orders of its pair
        rows_d = diagonal[np.searchsorted(diagonal, r0) : np.searchsorted(diagonal, r1)]
        at = (rows_d - r0, hi[rows_d] - 1 - c0)
        once = terms[at]
        terms *= 2.0
        terms[at] = once
        del idx  # freed before fsum_rows copies the terms
        return fsum_rows(terms)

    inner = np.zeros(D)
    r0 = 0
    while r0 < rows:
        # the most rows from r0 whose spanned pairs stay within _PAIR_BLOCK
        pairs = np.maximum(hi[r0 : min(r0 + _PAIR_BLOCK, rows)] - lo[r0], 0)
        pairs *= np.arange(1, len(pairs) + 1)
        r1 = r0 + max(1, int(np.searchsorted(pairs, _PAIR_BLOCK, "right")))
        del pairs  # freed before the block's pairs are formed
        inner[r0:r1] = block_sums(r0, r1)
        r0 = r1
    inner[rows:] = inner[: D - rows][::-1]
    del lo, hi
    tail1 = f.coefficient_tail_bound(H, 1)
    tail = 3.0 * tail1 * (_fsum(np.abs(coeffs)) + tail1)
    return SeriesResult(_fsum(coeffs * inner), tail, H)
