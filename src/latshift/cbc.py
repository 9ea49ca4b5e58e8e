"""Figure-of-merit evaluation and component-by-component construction.

The merit of a generating vector at a level of 2^t nodes is the rule error
Qf - 1 for the product Bernoulli reference integrand.  Its Fourier
coefficients are strictly positive, so the merit is a strictly positive
sum over the nonzero dual lattice and smaller is better.  An embedded pair
is scored at both of its levels; the combined figure is the worse of the
two per-level merits, each normalized by the best Korobov baseline merit
at that level.

The construction is greedy: component d is chosen from the odd candidates
c <= 2^(m+sr-1) to minimize the combined figure of the partial vector,
with ties broken by the smallest candidate.  The reference integrand is
reflection symmetric and merits are evaluated in a canonical component
order, so c and its mirror 2^ext - c have bit-equal merits and only the
lower half is a candidate.

Each step is a fast CBC scan (Nuyens & Cools, Math. Comp. 75, 2006; for
embedded pairs Cools, Kuo & Nuyens, SIAM J. Sci. Comput. 28, 2006): the
merit of every candidate at a level is sum_k p[k] w[k c mod 2^t] for the
node product p of the chosen components, and `unit_scan` computes all of
them at once by FFT over the powers of 5.  The scan comes with a stated
bound on its gap to the canonical `merit` value.  Selection is exact:

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
from .functions import bernoulli2
from .lattice import GeneratingVector, korobov_vector

# merits at a level are normalized by the best Korobov merit at that level
BASELINE_ELLS = (17797, 1267, 12915)

# merit streams the nodes in blocks of this many; its values depend on the
# block sums' pairwise tree, so the size is fixed
MERIT_BLOCK = 1 << 16

# full candidate scans are limited to this many extension bits; larger
# requests must use the sampled policy
FULL_SCAN_BITS = 16

SAMPLE_SIZE = 4096
SAMPLE_SEED = 7777

@dataclass(frozen=True)
class MeritValue:
    """Reference-integrand rule error at one level: strictly positive."""

    value: float
    level: int


@dataclass(frozen=True)
class EmbeddedMerit:
    """Per-level merits of an embedded pair plus the normalized worst case."""

    base: MeritValue
    extended: MeritValue
    combined: float


def _index_dtype(n: int):
    # products wrap mod 2^16 / 2^32, and n divides both, so masked wrapped
    # products equal products mod n
    return np.uint16 if n <= (1 << 16) else np.uint32


def _canonical_components(components: tuple[int, ...], n: int) -> tuple[int, ...]:
    if n == 1:
        return tuple(0 for _ in components)
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
    dt = _index_dtype(n_points)
    mask = dt(n_points - 1)
    size = min(n_points, MERIT_BLOCK)
    sums = []
    for lo in range(0, n_points, size):
        k = np.arange(lo, lo + size, dtype=dt)
        vals = np.ones(size)
        for c in comps:
            # bernoulli2 squares x - 1/2, so mirrored indices k, n - k give
            # bit-equal factors
            vals = vals * (1.0 + bernoulli2(((k * dt(c)) & mask) / float(n_points)))
        sums.append(np.sum(vals - 1.0))
    # adjacent block sums halved pairwise: numpy's own summation tree for a
    # power-of-two length, so the value equals np.sum over all nodes
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return MeritValue(float(sums[0]) / n_points, n_points)


@lru_cache(maxsize=None)
def _normalizers(s: int, m: int, sr: int) -> tuple[float, float]:
    base_level = 1 << m
    ext_level = 1 << (m + sr)
    rb = min(merit(korobov_vector(ell, s, max(m, 1)), base_level).value for ell in BASELINE_ELLS)
    re = min(
        merit(korobov_vector(ell, s, max(m + sr, 1)), ext_level).value for ell in BASELINE_ELLS
    )
    return rb, re


def embedded_merit(z: GeneratingVector, m: int, sr: int) -> EmbeddedMerit:
    """Merits of z at levels 2^m and 2^(m+sr) plus the combined figure.

    combined = max(base / best-Korobov-base, extended / best-Korobov-extended);
    for sr = 0 the two levels coincide and the base term alone is used.
    """
    if m < 0 or sr < 0:
        raise ValueError(f"need m >= 0 and sr >= 0, got m={m}, sr={sr}")
    base = merit(z, 1 << m)
    extended = merit(z, 1 << (m + sr))
    rb, re = _normalizers(z.s, m, sr)
    if sr == 0:
        combined = base.value / rb
    else:
        combined = max(base.value / rb, extended.value / re)
    return EmbeddedMerit(base, extended, combined)


def _powers_of_five(count: int, n: int) -> np.ndarray:
    """5^a mod n for a < count (a power of two), built by doubling."""
    pw = np.ones(count, dtype=np.int64)
    h, f = 1, 5 % n
    while h < count:
        pw[h : 2 * h] = (pw[:h] * f) % n
        h, f = 2 * h, f * f % n
    return pw


def unit_scan(p: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """sum_k p[k] w[k c mod n] for every odd c <= max(n/2, 1), by FFT.

    n = len(p) = len(w) is a power of two and both tables are symmetric:
    p[k] = p[n - k] and w[k] = w[n - k].  Entry c >> 1 of the result
    belongs to c.

    The indices k = 2^v u with u odd form one class per valuation v.
    Modulo 2^L, L = t - v >= 2, the odd units are {+-1} x <5>, so with
    u = +-5^a and c = +-5^b the class contributes 2 sum_a P[a] W[a + b],
    P[a] = p[2^v 5^a], W[a] = w[2^v 5^a]: a cyclic correlation of length
    2^(L-2), computed by FFT and read back at b mod 2^(L-2).  The classes
    L = 1 and k = 0 are constants.  Cost O(n log n).

    The second value bounds |result - exact sum of the given floats| for
    every entry.  An FFT output errs by at most eps_F = 8u (log2 N + 2)
    times the 1-norm of its input (componentwise bound, u the unit
    roundoff), which after the product and the inverse transform gives
    eps_F (|P|_1 |W|_2 + |P|_2 |W|_1) + (eps_F + 3u) |P|_2 |W|_2 per
    correlation; accumulating the classes adds (t + 2) u per unit of
    magnitude, and the total is doubled to cover second-order terms.
    """
    n = len(p)
    t = n.bit_length() - 1
    count = max(n // 4, 1)
    u = np.finfo(float).eps / 2
    pow5 = _powers_of_five(count, n)
    sums = np.zeros(count)
    consts = [p[0] * w[0]]
    err = size = 0.0
    for v in range(t):
        L = t - v
        if L == 1:
            consts.append(p[n >> 1] * w[n >> 1])
            continue
        N = 1 << (L - 2)
        idx = (pow5[:N] & ((1 << L) - 1)) << v
        P, W = p[idx], w[idx]
        corr = np.fft.irfft(np.conj(np.fft.rfft(P)) * np.fft.rfft(W), n=N)
        view = sums.reshape(-1, N)
        view += 2.0 * corr
        p1, p2 = float(np.abs(P).sum()), math.sqrt(float((P * P).sum()))
        w1, w2 = float(np.abs(W).sum()), math.sqrt(float((W * W).sum()))
        eps_f = 8 * u * (math.log2(N) + 2)
        err += 2.0 * (eps_f * (p1 * w2 + p2 * w1) + (eps_f + 3 * u) * p2 * w2)
        size += 2.0 * p2 * w2
    size += sum(abs(x) for x in consts)
    out = np.empty(count)
    out[np.minimum(pow5, n - pow5) >> 1] = sums + math.fsum(consts)
    err += (t + 2) * u * size + u * float(np.abs(out).max())
    return out, 2.0 * err


def _scan_merits(p: np.ndarray, w: np.ndarray, d: int, rows: np.ndarray, norm: float):
    """Normalized merits of (partial vector, c) for odd c = rows, with bounds.

    p is the node product of the d - 1 chosen components and w the factor
    table at one level.  Returns estimates of merit(..., n).value / norm,
    as the canonical path computes it, and per-entry bounds on the gap.
    """
    n = len(p)
    u = np.finfo(float).eps / 2
    # sum_k (p w_c - 1) = sum p' + sum w' + sum p' w'_c with p' = p - 1 and
    # w' = w - 1: the scan sees only the small parts
    p1, w1 = p - 1.0, w - 1.0
    sums, scan_err = unit_scan(p1, w1)
    sums = sums[rows >> 1]
    const = float(p1.sum() + w1.sum())
    est = (const + sums) / n / norm
    # this path (d - 1 factors, - 1, pairwise sums of p' and w') and the
    # canonical one (d factors, - 1, pairwise sum) round each term by at
    # most (2d + 3 depth) u times the largest product, where numpy's
    # pairwise sum passes a term through at most depth = t + 18 additions
    depth = n.bit_length() + 17
    big = float(p.max() * w.max())
    gap = scan_err + 1.01 * (2 * d + 3 * depth) * u * big * n
    gap = gap + 4 * u * (abs(const) + np.abs(sums))
    return est, 2.0 * (gap / n / norm + 2 * u * np.abs(est))


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


def _sample_candidates(n_ext: int) -> np.ndarray:
    """Fixed pseudorandom draw of odd candidates in the lower half."""
    half_odds = n_ext // 4
    if half_odds < 1:
        return np.array([], dtype=_index_dtype(n_ext))
    gen = SplitMix64(SAMPLE_SEED)
    chosen: set[int] = set()
    while len(chosen) < min(SAMPLE_SIZE, half_odds):
        chosen.add(2 * (gen.next64() % half_odds) + 1)
    return np.array(sorted(chosen), dtype=_index_dtype(n_ext))


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
        "full" scans every odd candidate (only up to 2^16 extension
        points); "sampled" scans a fixed seeded draw of 4096 odd
        candidates; "auto" picks "full" when it is allowed.
    """
    if s < 1:
        raise ValueError(f"dimension must be >= 1, got {s}")
    if m < 0 or sr < 0:
        raise ValueError(f"need m >= 0 and sr >= 0, got m={m}, sr={sr}")
    ext = m + sr
    guard(1 << ext, "extension nodes")
    if candidate_policy not in ("auto", "full", "sampled"):
        raise ValueError(f"unknown candidate policy {candidate_policy!r}")
    if candidate_policy == "auto":
        candidate_policy = "full" if ext <= FULL_SCAN_BITS else "sampled"
    if candidate_policy == "full" and ext > FULL_SCAN_BITS:
        raise GuardLimitError(
            f"full scan of 2^{ext} extension points is beyond the 2^{FULL_SCAN_BITS} "
            "limit; use the sampled policy"
        )

    t = max(ext, 1)
    if s == 1:
        return GeneratingVector((1,), t)

    n_base = 1 << m
    n_ext = 1 << ext
    if candidate_policy == "sampled":
        cands = _sample_candidates(n_ext).astype(np.int64)
    else:
        cands = 2 * np.arange(n_ext // 4 or n_ext // 2, dtype=np.int64) + 1
    if len(cands) == 0:
        raise ValueError("empty candidate set at dimension 2")
    # the base merit depends on c only through its mirror class mod 2^m
    classes = np.minimum(cands % n_base, -cands % n_base)

    we = 1.0 + bernoulli2(np.arange(n_ext) / n_ext)
    dtype = _index_dtype(n_ext)
    je = np.arange(n_ext, dtype=dtype)
    mask_e = dtype(n_ext - 1)
    pe = np.ones(n_ext)

    comps = [1]
    for d in range(2, s + 1):
        rb, re = _normalizers(d, m, sr)
        pe = pe * we[(je * dtype(comps[-1] % n_ext)) & mask_e]
        prefix = tuple(comps)

        # node k of the base level is node k 2^sr of the extended one, with
        # bit-equal factor table and product
        b, b_err = _scan_merits(pe[:: 1 << sr], we[:: 1 << sr], d, classes, rb)
        if sr == 0:
            e, e_err = np.full(len(cands), -np.inf), np.zeros(len(cands))
        else:
            e, e_err = _scan_merits(pe, we, d, cands, re)
        keep = _near_min(b - b_err, b + b_err, e, e_err)

        # canonical base figures for the classes still in the running; a
        # candidate whose extended term cannot reach its base term then has
        # combined == b exactly, and only the rest are re-scored
        bk = np.zeros(n_base // 2 + 1)
        for r in np.unique(classes[keep]).tolist():
            bk[r] = merit(GeneratingVector(prefix + (max(r, 1),), t), n_base).value / rb
        bk = bk[classes[keep]]
        near = _near_min(bk, bk, e[keep], e_err[keep])
        keep, comb = keep[near], bk[near]
        e_lo, e_hi = e[keep] - e_err[keep], e[keep] + e_err[keep]

        def rescore(c: int) -> float:
            return embedded_merit(GeneratingVector(prefix + (c,), t), m, sr).combined

        comps.append(_lazy_min(cands[keep], comb, np.maximum(comb, e_lo), e_hi > comb, rescore))

    return GeneratingVector(tuple(comps), t)
