"""Figure-of-merit evaluation and component-by-component construction.

The merit of a generating vector at a level of 2^t nodes is the rule error
Qf - 1 for the product Bernoulli reference integrand.  Its Fourier
coefficients are strictly positive, so the merit is a strictly positive
sum over the nonzero dual lattice and smaller is better.  An embedded pair
is scored at both of its levels; the combined figure is the worse of the
two per-level merits, each normalized by the best Korobov baseline merit
at that level.

The construction is greedy: component d is chosen from all odd candidates
below 2^(m+sr) to minimize the combined figure of the partial vector.  Two
exact reductions keep the scan at desk scale without changing its result:

* the reference integrand is reflection symmetric, and merits are evaluated
  in a canonical component order, so candidate c and its mirror 2^ext - c
  have bit-equal merits -- only the lower half is scanned, and the
  smallest-candidate tie rule picks the lower representative anyway;
* the base-level merit depends on the candidate only through its residue
  mod 2^m, so once some candidate's combined figure is at hand, whole
  residue classes whose base figure already exceeds it cannot contain the
  argmin and are skipped.

Ranking inside the scan uses fast matrix arithmetic; final selection
re-scores a shortlist (everything within a safety margin of the scan
minimum) through the canonical merit path, so the reported merits and the
selection are mutually consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import SplitMix64
from .errors import GUARD_BITS, GuardLimitError
from .functions import bernoulli2
from .lattice import GeneratingVector, korobov_vector

# merits at a level are normalized by the best Korobov merit at that level
BASELINE_ELLS = (17797, 1267, 12915)

# full candidate scans are limited to this many extension bits; larger
# requests must use the sampled policy
FULL_SCAN_BITS = 16

SAMPLE_SIZE = 4096
SAMPLE_SEED = 7777

# covers the gap between fast-ranked scan values and canonical merit values
# (normalized units); candidates this close to the scan minimum are re-scored
SHORTLIST_MARGIN = 0.01

_CHUNK = 256


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
    t = n_points.bit_length() - 1
    if t > GUARD_BITS:
        raise GuardLimitError(f"node count 2^{t} exceeds the 2^{GUARD_BITS} guard")
    if z.t < t:
        raise ValueError(f"generating vector known mod 2^{z.t} cannot drive 2^{t} nodes")
    comps = _canonical_components(z.components, n_points)
    dt = _index_dtype(n_points)
    # bernoulli2 squares x - 1/2, so mirrored indices k, n - k give
    # bit-equal factors
    w = 1.0 + bernoulli2(np.arange(n_points) / n_points)
    k = np.arange(n_points, dtype=dt)
    mask = dt(n_points - 1)
    vals = np.ones(n_points)
    for c in comps:
        vals = vals * w[(k * dt(c)) & mask]
    value = float(np.sum(vals - 1.0)) / n_points
    return MeritValue(value, n_points)


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


def _candidate_classes(n_base: int) -> list[int]:
    if n_base == 1:
        return [0]
    return list(range(1, n_base, 2))


def _class_candidates(res: int, n_base: int, n_ext: int, policy_sample: np.ndarray | None):
    dtype = _index_dtype(n_ext)
    if policy_sample is not None:
        if n_base == 1:
            return policy_sample
        return policy_sample[policy_sample % n_base == res]
    step = 2 if n_base == 1 else n_base
    start = 1 if n_base == 1 else res
    return np.arange(start, n_ext // 2 + 1, step, dtype=dtype)


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
    if ext > GUARD_BITS:
        raise GuardLimitError(f"extension 2^{ext} exceeds the 2^{GUARD_BITS} guard")
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
    sample = _sample_candidates(n_ext) if candidate_policy == "sampled" else None
    wb = 1.0 + bernoulli2(np.arange(n_base) / n_base)
    we = 1.0 + bernoulli2(np.arange(n_ext) / n_ext)
    dtype = _index_dtype(n_ext)
    jb = np.arange(n_base, dtype=dtype)
    je = np.arange(n_ext, dtype=dtype)
    mask_b = dtype(n_base - 1)
    mask_e = dtype(n_ext - 1)

    comps = [1]
    for d in range(2, s + 1):
        rb, re = _normalizers(d, m, sr)
        pb = np.ones(n_base)
        pe = np.ones(n_ext)
        for c in comps:
            pb = pb * wb[(jb * dtype(c % n_base)) & mask_b]
            pe = pe * we[(je * dtype(c % n_ext)) & mask_e]

        classes = []
        for res in _candidate_classes(n_base):
            vb = float(pb @ wb[(jb * dtype(res)) & mask_b]) / n_base - 1.0
            classes.append((vb / rb, res))
        classes.sort()

        best = math.inf
        shortlist: list[tuple[float, int]] = []
        for base_norm, res in classes:
            if base_norm > best + SHORTLIST_MARGIN:
                break
            cands = _class_candidates(res, n_base, n_ext, sample)
            for lo in range(0, len(cands), _CHUNK):
                cc = cands[lo : lo + _CHUNK]
                idx = je[:, None] * cc[None, :]
                np.bitwise_and(idx, mask_e, out=idx)
                ve = (pe @ we.take(idx)) / n_ext - 1.0
                comb = np.maximum(base_norm, ve / re)
                keep = comb <= best + SHORTLIST_MARGIN
                shortlist.extend(zip(comb[keep].tolist(), cc[keep].tolist()))
                lowest = float(comb.min())
                if lowest < best:
                    best = lowest
        if not shortlist:
            raise ValueError(f"empty candidate set at dimension {d}")

        # canonical re-score of everything within the margin of the scan
        # minimum; (combined, candidate) lexicographic minimum is the winner
        chosen = None
        for scan_comb, cand in shortlist:
            if scan_comb > best + SHORTLIST_MARGIN:
                continue
            trial = GeneratingVector(tuple(comps) + (int(cand),), t)
            em = embedded_merit(trial, m, sr)
            key = (em.combined, int(cand))
            if chosen is None or key < chosen:
                chosen = key
        comps.append(chosen[1])

    return GeneratingVector(tuple(comps), t)
