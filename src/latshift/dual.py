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
computable (crude, monotone-in-H) bound on the discarded tail.  Cumulant
scaling then transports single-replicate moments to the replicate mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .functions import PeriodicFunction
from .lattice import DyadicPoint, Rank1Rule
from .shifts import GridShift, RealShift

DualIndex = tuple[int, ...]


@dataclass(frozen=True)
class TruncationBox:
    """Symmetric index box |h_i| <= H used to truncate the infinite sums."""

    H: int

    def __post_init__(self) -> None:
        if self.H < 1:
            raise ValueError(f"box bound must be >= 1, got {self.H}")


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


def dual_points(rule: Rank1Rule, box: TruncationBox) -> list[DualIndex]:
    """All nonzero h with |h_i| <= H and h . z = 0 (mod 2^m).

    The congruence is solved for the last coordinate: for each choice of
    h_1..h_{s-1} the residue of h_s mod 2^m is forced (every component of z
    is odd, hence invertible), and h_s then steps by 2^m across the box.
    """
    n = rule.n_points
    h_range = range(-box.H, box.H + 1)
    if n == 1:
        pts = [h for h in product(h_range, repeat=rule.s) if any(h)]
        return pts
    z = rule.z.components
    zs_inv = pow(z[-1] % n, -1, n)
    out: list[DualIndex] = []
    for prefix in product(h_range, repeat=rule.s - 1):
        partial = sum(hi * zi for hi, zi in zip(prefix, z)) % n
        residue = (-partial * zs_inv) % n
        first = -box.H + ((residue - (-box.H)) % n)
        for hs in range(first, box.H + 1, n):
            if hs == 0 and not any(prefix):
                continue
            out.append(prefix + (hs,))
    return out


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
    if any(c):
        two_pi = 2.0 * math.pi
        terms = (
            math.cos(two_pi * sum(hi * ci for hi, ci in zip(h, c))) * f.fourier_coeff(h)
            for h in dual_points(rule, box)
        )
    else:
        terms = (f.fourier_coeff(h) for h in dual_points(rule, box))
    return SeriesResult(math.fsum(terms), f.coefficient_tail_bound(box.H, 1), box.H)


def cp_variance_series(rule: Rank1Rule, f: PeriodicFunction, box: TruncationBox) -> SeriesResult:
    """Truncated dual series for Var(Q_u f) under uniform real shifts."""
    coeffs = (f.fourier_coeff(h) for h in dual_points(rule, box))
    value = math.fsum(c * c for c in coeffs)
    return SeriesResult(value, f.coefficient_tail_bound(box.H, 2), box.H)


def third_moment_series(rule: Rank1Rule, f: PeriodicFunction, box: TruncationBox) -> SeriesResult:
    """Truncated dual double sum for the third central moment of Q_u f.

    Iterates h and k over the box duals and keeps l = h - k when it is
    nonzero and inside the box (it is automatically dual: a lattice is
    closed under subtraction).  Real coefficients are assumed, which makes
    the result real.  Cost is quadratic in the number of box duals.

    The reported tail bound is crude: a term is lost only if one of the
    three indices leaves the box, so three times the single-index tail
    times a bound on the unconstrained double sum covers the remainder.
    """
    H = box.H
    duals = dual_points(rule, box)
    coeffs = [f.fourier_coeff(h) for h in duals]
    outer = []
    for h, ch in zip(duals, coeffs):
        inner = []
        for k, ck in zip(duals, coeffs):
            ok = True
            all_zero = True
            l = []
            for hi, ki in zip(h, k):
                li = hi - ki
                if li < -H or li > H:
                    ok = False
                    break
                if li != 0:
                    all_zero = False
                l.append(li)
            if not ok or all_zero:
                continue
            inner.append(ck * f.fourier_coeff(tuple(l)))
        outer.append(ch * math.fsum(inner))
    tail1 = f.coefficient_tail_bound(H, 1)
    box_sum = math.fsum(abs(c) for c in coeffs)
    tail = 3.0 * tail1 * (box_sum + tail1)
    return SeriesResult(math.fsum(outer), tail, H)
