"""Figure-of-merit evaluation and component-by-component construction.

The merit of a generating vector at a level of 2^t nodes is the rule error
Qf - 1 for the product Bernoulli reference integrand.  Its Fourier
coefficients are strictly positive, so the merit is a strictly positive
sum over the nonzero dual lattice and smaller is better.  An embedded pair
is scored at both of its levels; the combined figure is the worse of the
two per-level merits, each normalized by the best Korobov baseline merit
at that level.

`merit` runs on the extended-rule identity's index-order node path
(`shifts.index_blocks`) and sums as one `np.sum` over all nodes would:
deterministic bit for bit, but unlike the moment sums not correctly rounded.

The construction is greedy: component d is chosen from the odd candidates
c <= max(2^(m+sr-1), 1) to minimize the combined figure of the partial
vector, with ties broken by the smallest candidate.  The reference
integrand is reflection symmetric and merits are evaluated in a canonical
component order, so c and its mirror 2^ext - c have bit-equal merits and
only the lower half, at least candidate 1, is a candidate.

Each step is one fast CBC scan (Nuyens & Cools, Math. Comp. 75, 2006; for
embedded pairs Cools, Kuo & Nuyens, SIAM J. Sci. Comput. 28, 2006): the
merit of every candidate at a level is sum_k p[k] w[k c mod 2^t] for the
node product p of the chosen components, and `_TwoLevelScan` computes all
of them at both levels at once, from one set of correlations by FFT over
the powers of 5, whose factor side is built once per construction.  The
scan comes with a stated bound on its gap to the canonical `merit` value.
Selection is exact:

* candidates whose combined figure is provably above the smallest upper
  bound are dropped (`_near_min`), first on the scanned base figures;
* the base figure depends on c only through its mirror class mod 2^m, so
  the classes still in the running get their canonical `merit` value;
* a candidate whose extended term provably stays at or below its base
  term has combined figure exactly the base figure; the remaining true
  near-ties are re-scored through `embedded_merit` best first by their
  lower bound, only while one can still beat or tie the best exact
  figure (`_lazy_min`).

The winner is the lexicographic minimum of (canonical combined figure,
candidate), so the result equals a greedy search that re-scores every
candidate canonically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import SplitMix64
from .errors import GuardLimitError, guard
from .functions import ProductBernoulliFn
from .lattice import GeneratingVector, korobov_vector, lattice_numerators
from .shifts import index_blocks

# merits at a level are normalized by the best Korobov merit at that level
BASELINE_ELLS = (17797, 1267, 12915)

# full candidate scans are limited to this many extension bits; larger
# requests must use the sampled policy
FULL_SCAN_BITS = 16

SAMPLE_SIZE = 4096
SAMPLE_SEED = 7777

# the scan correlates its classes of length N = 2^j <= 64, j < DIRECT_CLASSES,
# by one direct matrix-vector product and the longer ones by FFT: an FFT
# call costs about as much at N = 1 as at 64, and up to 64 the direct
# product's rounding stays inside the FFT error bound (`_TwoLevelScan.scan`)
DIRECT_CLASSES = 7
DIRECT_SIZE = (1 << DIRECT_CLASSES) - 1


def _circulant_index() -> np.ndarray:
    """Where each entry of the short classes' circulant matrix comes from.

    Entry (N - 1 + b, N - 1 + a) of the block of class j, N = 2^j, is
    N - 1 + (a + b) mod N, an index into the classes' gathered vector; an
    entry off every block is DIRECT_SIZE, one past it.
    """
    index = np.full((DIRECT_SIZE, DIRECT_SIZE), DIRECT_SIZE)
    for j in range(DIRECT_CLASSES):
        N = 1 << j
        ab = np.add.outer(np.arange(N), np.arange(N)) & (N - 1)
        index[N - 1 : 2 * N - 1, N - 1 : 2 * N - 1] = N - 1 + ab
    return index


_CIRCULANT_INDEX = _circulant_index()


@dataclass(frozen=True)
class MeritValue:
    """Reference-integrand rule error at one level: strictly positive.

    level holds the level's node count 2^t, as `merit` stores it, not t.
    """

    value: float
    level: int


@dataclass(frozen=True)
class EmbeddedMerit:
    """Per-level merits of an embedded pair plus the normalized worst case."""

    base: MeritValue
    extended: MeritValue
    combined: float


def _canonical_components(components: tuple[int, ...], n: int) -> tuple[int, ...]:
    reduced = [c % n for c in components]
    return tuple(sorted(min(c, n - c) for c in reduced))


def merit(z: GeneratingVector, n_points: int) -> MeritValue:
    """Reference-integrand error Qf - 1 of the rule (z, n_points).

    Components are folded to canonical mirror representatives and sorted
    before evaluation, so vectors equivalent under coordinate reflection or
    permutation produce bit-identical values.
    """
    if n_points < 1 or n_points & (n_points - 1):
        raise ValueError(f"node count must be a power of two, got {n_points}")
    guard(n_points, "merit nodes")
    t = n_points.bit_length() - 1
    if z.t < t:
        raise ValueError(f"generating vector known mod 2^{z.t} cannot drive 2^{t} nodes")
    comps = _canonical_components(z.components, n_points)
    # the integrand squares x - 1/2, so mirrored indices k, n - k give
    # bit-equal factors.  np.sum splits a power-of-two length into halves
    # down to 128-term leaves, so while the node blocks are powers of two of
    # at least 128 nodes, halving their sums pairwise gives np.sum over all
    # nodes bit for bit
    sums = [np.sum(b) for b in index_blocks(comps, t, ProductBernoulliFn(len(comps)))]
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return MeritValue(float(sums[0]) / n_points, n_points)


@lru_cache(maxsize=None)
def _baseline(s: int, level: int) -> float:
    """The best Korobov merit of s coordinates at 2^level nodes."""
    return min(merit(korobov_vector(ell, s, max(level, 1)), 1 << level).value for ell in BASELINE_ELLS)


def embedded_merit(z: GeneratingVector, m: int, sr: int) -> EmbeddedMerit:
    """Merits of z at levels 2^m and 2^(m+sr) plus the combined figure.

    combined = max(base / best-Korobov-base, extended / best-Korobov-extended);
    for sr = 0 the two levels coincide, and their one merit and baseline
    are evaluated once.
    """
    if m < 0 or sr < 0:
        raise ValueError(f"need m >= 0 and sr >= 0, got m={m}, sr={sr}")
    base = merit(z, 1 << m)
    extended = merit(z, 1 << (m + sr)) if sr else base
    return EmbeddedMerit(base, extended, max(base.value / _baseline(z.s, m), extended.value / _baseline(z.s, m + sr)))


def _powers_of_five(count: int, n: int) -> np.ndarray:
    """5^a mod n for a < count (both powers of two), built by doubling."""
    pw = np.ones(count, dtype=np.int64)
    h, f = 1, 5 % n
    while h < count:
        pw[h : 2 * h] = (pw[:h] * f) & (n - 1)
        h, f = 2 * h, f * f % n
    return pw


def _class_transforms(x: np.ndarray, idx: np.ndarray, t: int):
    """The short classes of x - 1, the rfft of each long class, and the
    1-norm and 2-norm of every class.

    idx holds the indices of class j, of length 2^j, at [2^j - 1, 2^(j+1) - 1).
    The short classes j < DIRECT_CLASSES come first; they are returned as
    one vector, zero-padded to DIRECT_SIZE entries.
    """
    short = np.zeros(DIRECT_SIZE)
    if t < 2:
        return short, [], np.zeros(0), np.zeros(0)
    g = np.take(x, idx)
    g -= 1.0
    k = min(t - 1, DIRECT_CLASSES)
    short[: (1 << k) - 1] = g[: (1 << k) - 1]
    starts = (1 << np.arange(t - 1)) - 1
    ffts = [np.fft.rfft(g[(1 << j) - 1 : (2 << j) - 1]) for j in range(k, t - 1)]
    return short, ffts, np.add.reduceat(np.abs(g), starts), np.sqrt(np.add.reduceat(g * g, starts))


class _TwoLevelScan:
    """Fast CBC scan of both levels of an embedded pair, for one construction.

    w is the factor table at the extension level n = 2^t, sr the extension
    bits and rows the odd candidates.  Node k of the base level 2^(t - sr)
    is node k 2^sr of the extension level.  At a level, the merit of every
    candidate c comes from sum_k p'[k] w'[k c mod 2^level] over the level's
    nodes, with p' and w' the node product and the factor table less one,
    and the scan computes all of them at once by correlations over the
    powers of 5.

    The indices k = 2^v u with u odd form one class per valuation v.
    Modulo 2^L, L = t - v >= 2, the odd units are {+-1} x <5>, so with
    u = +-5^a and c = +-5^b the class contributes 2 sum_a P[a] W[a + b],
    P[a] = p'[2^v 5^a], W[a] = w'[2^v 5^a]: a cyclic correlation of length
    N = 2^(L-2), read back at b mod N.  The classes with N <= 64 (the first
    DIRECT_CLASSES) are correlated together, as one product of a gathered
    P with a block-diagonal circulant matrix of their W; the longer ones
    by FFT.  The classes L = 1 (k = n/2) and k = 0 are constants.  Base
    class v_b is extension class v_b + sr, with the same N and the same
    gathered values, and the two constants are the same nodes, so every
    correlation serves both levels.  The classes are accumulated smallest
    N first, each tiling the running sum up to its own period once (O(n)
    in all); the running sum when the first class with v < sr starts is
    the base level's, of length max(2^(t-sr)/4, 1), read at b mod that
    length.

    Built once per construction and kept: the int32 indices of every class,
    class j (N = 2^j, v = t - 2 - j) at [N - 1, 2N - 1); the circulant
    DIRECT_SIZE-square matrix of the short classes of w', block-diagonal
    with C[N - 1 + b, N - 1 + a] = W[(a + b) mod N] for class j (zero
    where t is too small for a class), and the rfft of every longer class
    of w';
    the norms of every class of w'; the exponent a of each row,
    c = +-5^a mod n; and, per level, the sum of w' and the largest w.  At
    d = 2 the node product is w itself, and its transforms are these.
    """

    def __init__(self, w: np.ndarray, sr: int, rows: np.ndarray) -> None:
        n = len(w)
        t = n.bit_length() - 1
        count = max(n // 4, 1)
        pow5 = _powers_of_five(count, n)
        idx = np.empty(max(n // 2 - 1, 0), dtype=np.int32)
        for j in range(t - 1):
            N = 1 << j
            idx[N - 1 : 2 * N - 1] = (pow5[:N] & (4 * N - 1)) << (t - 2 - j)
        a = np.empty(count, dtype=np.int32)
        a[np.minimum(pow5, n - pow5) >> 1] = np.arange(count, dtype=np.int32)
        self.a = a[rows >> 1]
        self.w, self.t, self.sr, self.idx = w, t, sr, idx
        self.levels = (t - sr, t)
        self.gw, self.fw, self.w1n, self.w2n = _class_transforms(w, idx, t)
        self.circ = np.append(self.gw, 0.0)[_CIRCULANT_INDEX]
        self.w_consts = (w[0] - 1.0, w[n >> 1] - 1.0)
        self.steps = [1 << (t - lev) for lev in self.levels]
        self.w_sums = [float(np.subtract(w[::st], 1.0).sum()) for st in self.steps]
        self.w_max = [float(w[::st].max()) for st in self.steps]

    def scan(self, p: np.ndarray | None = None) -> list[tuple[np.ndarray, float]]:
        """sum_k p'[k] w'[k c mod 2^level] for both levels.

        p is a symmetric table at the extension level, p[k] = p[n - k], and
        p' = p - 1, w' = w - 1; None stands for w.  Returns, base level
        first, the sums in exponent order (entry a belongs to
        c = +-5^a mod 2^level) and a bound on |sum - exact sum of the
        products of p' and w'| for every entry.  Cost O(n log n).

        An FFT output errs by at most eps_F = 8u (log2 N + 2) times the
        1-norm of its input (componentwise bound, u the unit roundoff),
        which after the product and the inverse transform gives
        eps_F (|P|_1 |W|_2 + |P|_2 |W|_1) + (eps_F + 3u) |P|_2 |W|_2 per
        correlation.  A short class's correlation is instead a length-N dot
        product (the zeros off its block add nothing), which in any order
        errs by at most N u |P|_2 |W|_2 to first order; N = 2^j <= 64 makes
        N <= 8 (j + 2) + 3, so the FFT bound, kept for every class, covers
        it.  The product has DIRECT_SIZE columns at every t, so a class's
        correlation is rounded alike whatever the depth of the tables.
        A level's entry adds at most level - 1 doubled correlations,
        each at most 2 |P|_2 |W|_2, and the constants, so accumulating them
        in any order adds (level + 2) u per unit of that magnitude; the
        total is doubled to cover second-order terms.
        """
        t, sr = self.t, self.sr
        u = np.finfo(float).eps / 2
        if p is None:
            gp, fp, p1n, p2n, pc = self.gw, self.fw, self.w1n, self.w2n, self.w_consts
        else:
            gp, fp, p1n, p2n = _class_transforms(p, self.idx, t)
            pc = (p[0] - 1.0, p[len(p) >> 1] - 1.0)
        # every short class's correlation, at the class's own offset
        short = self.circ @ gp
        short *= 2.0
        run = base = np.zeros(1)
        for j in range(len(p1n)):
            N = 1 << j
            if j < DIRECT_CLASSES:
                corr = short[N - 1 : 2 * N - 1]
            else:
                i = j - DIRECT_CLASSES
                corr = np.fft.irfft(np.conj(fp[i]) * self.fw[i], n=N)
                corr *= 2.0
            view = corr.reshape(-1, len(run))
            view += run
            run = corr
            if j == t - 2 - sr:
                base = run
        eps_f = 8 * u * (np.arange(len(p1n)) + 2)
        errs = 2.0 * (eps_f * (p1n * self.w2n + p2n * self.w1n) + (eps_f + 3 * u) * p2n * self.w2n)
        sizes = 2.0 * p2n * self.w2n
        out = []
        for lev, run in zip(self.levels, (base, run)):
            # the level's classes are the first lev - 1 in this order
            k = max(lev - 1, 0)
            consts = [pc[0] * self.w_consts[0]] + ([pc[1] * self.w_consts[1]] if lev else [])
            size = float(sizes[:k].sum()) + sum(abs(x) for x in consts)
            sums = run + math.fsum(consts)
            err = float(errs[:k].sum()) + (lev + 2) * u * size + u * float(np.abs(sums).max())
            out.append((sums, 2.0 * err))
        return out

    def merits(
        self, p: np.ndarray, d: int, norms: tuple[float, float]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Normalized merits of (partial vector, c) for every row c, with bounds.

        p is the node product of the d - 1 chosen components at the
        extension level (w itself at d = 2) and norms the normalizers of
        the two levels.  Returns, base level first, per-row estimates of
        merit(..., 2^level).value / norm, as the canonical path computes
        it, and per-row bounds on the gap.
        """
        u = np.finfo(float).eps / 2
        # sum_k (p w_c - 1) = sum p' + sum w' + sum p' w'_c with p' = p - 1 and
        # w' = w - 1: the scan sees only the small parts
        consts = [
            float(np.subtract(p[::st], 1.0).sum() + ws) for st, ws in zip(self.steps, self.w_sums)
        ]
        bigs = [float(p[::st].max()) * wm for st, wm in zip(self.steps, self.w_max)]
        out = []
        for lev, (sums, scan_err), const, big, norm in zip(
            self.levels, self.scan(None if p is self.w else p), consts, bigs, norms
        ):
            n = 1 << lev
            est = (const + sums) / n / norm
            # this path (d - 1 factors, - 1, pairwise sums of p' and w') and the
            # canonical one (d factors, - 1, pairwise sum) round each term by at
            # most (2d + 3 depth) u times the largest product, where numpy's
            # pairwise sum passes a term through at most depth = level + 18
            # additions
            depth = n.bit_length() + 17
            gap = scan_err + 1.01 * (2 * d + 3 * depth) * u * big * n
            gap = gap + 4 * u * (abs(const) + np.abs(sums))
            err = 2.0 * (gap / n / norm + 2 * u * np.abs(est))
            rows = self.a & (len(sums) - 1)
            out.append((est[rows], err[rows]))
        return out


def _near_min(b_lo, b_hi, e, e_err) -> np.ndarray:
    """Indices whose combined figure max(b, e) can still be the minimum."""
    lo = np.maximum(b_lo, e - e_err)
    hi = np.maximum(b_hi, e + e_err)
    return np.flatnonzero(lo <= hi.min())


def _lazy_min(cands, comb, lo, open_, rescore) -> int:
    """Candidate of the lexicographic minimum of (combined figure, candidate).

    comb holds the exact combined figures of the entries that are not open;
    an open entry's figure is at least lo and costs one rescore(c) call.
    Open entries are resolved in order of lo until none can go below the
    best exact figure, then only the smaller candidates whose lo reaches it
    (they could tie it), smallest first.
    """
    best, win = math.inf, math.inf
    closed = ~open_
    if closed.any():
        best = float(comb[closed].min())
        win = int(cands[closed & (comb == best)].min())
    pending = np.flatnonzero(open_)
    pending = pending[np.argsort(lo[pending], kind="stable")].tolist()
    lo, cands = lo.tolist(), cands.tolist()
    i = 0
    while i < len(pending) and lo[pending[i]] < best:
        c = cands[pending[i]]
        val = rescore(c)
        if (val, c) < (best, win):
            best, win = val, c
        i += 1
    for c in sorted(cands[j] for j in pending[i:] if lo[j] <= best and cands[j] < win):
        if rescore(c) == best:
            return c
    return win


def _sample_candidates(half: int) -> np.ndarray:
    """Fixed pseudorandom draw of min(SAMPLE_SIZE, half) odd candidates below 2 half."""
    gen = SplitMix64(SAMPLE_SEED)
    chosen: set[int] = set()
    while len(chosen) < min(SAMPLE_SIZE, half):
        chosen.add(2 * (gen.next64() % half) + 1)
    return np.array(sorted(chosen), dtype=np.int64)


def cbc_construct(
    s: int,
    m: int,
    sr: int,
    candidate_policy: str = "auto",
) -> GeneratingVector:
    """Greedy component-by-component construction of a generating vector.

    The first component is 1; each later component minimizes the combined
    embedded figure of the partial vector over the candidate set, with ties
    broken by the smallest candidate.  The result is deterministic.

    Parameters
    ----------
    s, m, sr : int
        Dimension, base resolution, and extension bits (levels 2^m and
        2^(m+sr)).
    candidate_policy : str
        "full" scans every odd candidate of the lower half, at least
        candidate 1 (only up to 2^16 extension points); "sampled" scans
        a fixed seeded draw of SAMPLE_SIZE = 4096 of them where the lower
        half holds more, and every one otherwise, so it returns the "full"
        vector up to extension 14; "auto" picks "full" when it is allowed.
    """
    if s < 1:
        raise ValueError(f"dimension must be >= 1, got {s}")
    if m < 0 or sr < 0:
        raise ValueError(f"need m >= 0 and sr >= 0, got m={m}, sr={sr}")
    ext = m + sr
    guard(1, "extension nodes", ext)
    n_base, n_ext = 1 << m, 1 << ext
    if candidate_policy not in ("auto", "full", "sampled"):
        raise ValueError(f"unknown candidate policy {candidate_policy!r}")
    if candidate_policy == "auto":
        candidate_policy = "full" if ext <= FULL_SCAN_BITS else "sampled"
    if candidate_policy == "full" and ext > FULL_SCAN_BITS:
        raise GuardLimitError(
            f"full scan of 2^{ext} extension points is beyond the 2^{FULL_SCAN_BITS} "
            "limit; use the sampled policy"
        )
    # the normalizers of step d = 2..s are three Korobov merits of d
    # coordinates at each level, so the steps evaluate at least this many
    # node coordinates, about 1.5 s^2 (2^m + 2^ext)
    guard(3 * (s * (s + 1) // 2 - 1) * (n_base + n_ext), "merit node coordinates")

    t = max(ext, 1)
    if s == 1:
        return GeneratingVector((1,), t)

    # the lower half's odd candidates, at least 1; a draw from SAMPLE_SIZE or fewer takes all
    half = max(n_ext // 4, 1)
    if candidate_policy == "sampled" and half > SAMPLE_SIZE:
        cands = _sample_candidates(half)
    else:
        cands = 2 * np.arange(half, dtype=np.int64) + 1
    we = ProductBernoulliFn(1).factor(np.arange(n_ext) / n_ext)
    scan = _TwoLevelScan(we, sr, cands)
    # the node product of the first component, 1, is the factor table
    pe = we

    comps = [1]
    for d in range(2, s + 1):
        if d > 2:
            # times the factors of the last component, in one new table (the
            # uint64 numerators index as their int64 view, without a copy)
            f = we[lattice_numerators([comps[-1]], ext, n_ext)[0].view(np.int64)]
            f *= pe
            pe = f
        rb, re = _baseline(d, m), _baseline(d, m + sr)
        prefix = tuple(comps)

        (b, b_err), (e, e_err) = scan.merits(pe, d, (rb, re))
        if sr == 0:
            e, e_err = np.full(len(cands), -np.inf), np.zeros(len(cands))
        keep = _near_min(b - b_err, b + b_err, e, e_err)

        # canonical base figures for the mirror classes mod 2^m still in the
        # running; a candidate whose extended term cannot reach its base term
        # then has combined == b exactly, and only the rest are re-scored
        kept = cands[keep]
        classes = np.minimum(kept % n_base, -kept % n_base)
        bk = np.zeros(n_base // 2 + 1)
        for r in np.unique(classes).tolist():
            bk[r] = merit(GeneratingVector(prefix + (max(r, 1),), t), n_base).value / rb
        bk = bk[classes]
        near = _near_min(bk, bk, e[keep], e_err[keep])
        keep, comb = keep[near], bk[near]
        e_lo, e_hi = e[keep] - e_err[keep], e[keep] + e_err[keep]

        def rescore(c: int) -> float:
            return embedded_merit(GeneratingVector(prefix + (c,), t), m, sr).combined

        comps.append(_lazy_min(cands[keep], comb, np.maximum(comb, e_lo), e_hi > comb, rescore))
        # release this step's per-candidate arrays before the next product
        del b, b_err, e, e_err

    return GeneratingVector(tuple(comps), t)
