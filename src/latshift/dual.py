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
duals are built once, as one integer array solved in closed form for the
last coordinate; `dual_points` is its tuple view.  Cumulant scaling then
transports single-replicate moments to the replicate mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import guard
from .functions import PeriodicFunction
from .lattice import NODE_DTYPE_BITS, DyadicPoint, Rank1Rule
from .shifts import GridShift, RealShift

DualIndex = tuple[int, ...]


@dataclass(frozen=True)
class TruncationBox:
    """Symmetric index box |h_i| <= H used to truncate the infinite sums."""

    H: int

    def __post_init__(self) -> None:
        # below 2^62, box coordinates and their differences fit int64
        if not 1 <= self.H < 1 << 62:
            raise ValueError(f"box bound must be in [1, 2^62), got {self.H}")


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


def _dual_array(rule: Rank1Rule, box: TruncationBox) -> np.ndarray:
    """`dual_points` as a (D, s) int64 array, one row per dual."""
    s, H, n = rule.s, box.H, rule.n_points
    width = 2 * H + 1
    per = -(-width // n)
    guard(width ** (s - 1) * per, "candidate duals over the box prefixes")
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


def _shift_floats(shift, s: int) -> tuple[float, ...]:
    if shift is None:
        return (0.0,) * s
    if isinstance(shift, RealShift):
        c = shift.u
    elif isinstance(shift, GridShift):
        c = shift.as_point().as_floats()
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
    two_pi = 2.0 * math.pi
    terms = (
        math.cos(two_pi * sum(hi * ci for hi, ci in zip(h, c))) * f.fourier_coeff(h)
        for h in dual_points(rule, box)
    )
    return SeriesResult(math.fsum(terms), f.coefficient_tail_bound(box.H, 1), box.H)


def cp_variance_series(rule: Rank1Rule, f: PeriodicFunction, box: TruncationBox) -> SeriesResult:
    """Truncated dual series for Var(Q_u f) under uniform real shifts."""
    coeffs = (f.fourier_coeff(h) for h in dual_points(rule, box))
    value = math.fsum(c * c for c in coeffs)
    return SeriesResult(value, f.coefficient_tail_bound(box.H, 2), box.H)


def third_moment_series(rule: Rank1Rule, f: PeriodicFunction, box: TruncationBox) -> SeriesResult:
    """Truncated dual double sum for the third central moment of Q_u f.

    For each box dual h, sums over the box duals k with l = h - k nonzero
    and inside the box.  Such an l is itself a box dual (a lattice is closed
    under subtraction), so its coefficient is looked up, not recomputed.
    Real coefficients are assumed, which makes the result real.  Cost is
    quadratic in the number of box duals, so more than 2^GUARD_BITS pairs
    are refused before any is formed.

    The reported tail bound is crude: a term is lost only if one of the
    three indices leaves the box, so three times the single-index tail
    times a bound on the unconstrained double sum covers the remainder.
    """
    H = box.H
    duals = _dual_array(rule, box)
    guard(len(duals) ** 2, "dual pairs")
    coeffs = np.array([f.fourier_coeff(h) for h in map(tuple, duals.tolist())], dtype=float)
    # keys in the balanced base 2H + 1 increase with the lexicographic row order
    radix = (2 * H + 1) ** np.arange(rule.s - 1, -1, -1)
    keys = duals @ radix
    outer = []
    for h, ch in zip(duals, coeffs.tolist()):
        l = h - duals
        keep = (np.abs(l) <= H).all(axis=1) & l.any(axis=1)
        cl = coeffs[np.searchsorted(keys, l[keep] @ radix)]
        outer.append(ch * math.fsum((coeffs[keep] * cl).tolist()))
    tail1 = f.coefficient_tail_bound(H, 1)
    box_sum = math.fsum(abs(c) for c in coeffs.tolist())
    tail = 3.0 * tail1 * (box_sum + tail1)
    return SeriesResult(math.fsum(outer), tail, H)
