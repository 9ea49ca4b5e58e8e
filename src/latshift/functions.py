"""One-periodic integrands, led by the product Bernoulli test function.

The reference integrand is f(x) = prod_i (1 + B2(x_i)) with B2 the degree-2
Bernoulli polynomial.  Its integral is exactly 1 and its Fourier
coefficients are known in closed form and strictly positive, which makes it
the workhorse for every exactness check in this package.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from .lattice import DyadicPoint

# evaluated about x = 1/2 so that x and 1 - x give bitwise-equal results
# for dyadic x (the offset and the squaring are exact)
_B2_C = 1.0 / 12.0

TWO_PI_SQ = 2.0 * math.pi**2

# eval_batch forms the factors of several coordinates in one temporary of at
# most this many values (or one row, if a row is longer)
_FACTOR_TERMS = 1 << 16


def bernoulli2(x):
    """B2(x) = x^2 - x + 1/6 for x in [0, 1); x may be a float or an array."""
    u = x - 0.5
    return u * u - _B2_C


class PeriodicFunction(ABC):
    """A real integrand on [0,1)^s, one-periodic in every coordinate.

    An integrand implements s and eval_batch, which evaluates whole node
    arrays for the randomized evaluators; eval and eval_real are per-point
    conveniences over it.  known_integral and the Fourier model are
    optional: operations that need them fail fast when they are absent.
    """

    #: exact value of the integral when known, else None
    known_integral: float | None = None

    #: True when f(1 - x) == f(x) bit for bit at dyadic points, every
    #: coordinate reflected (0 to itself); the scalar-shift moments then
    #: visit only half the cosets
    reflection_symmetric: bool = False

    @property
    @abstractmethod
    def s(self) -> int:
        """Dimension."""

    @abstractmethod
    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        """Values at the points with coordinates xs[0], xs[1], ... in [0, 1).

        xs has shape (s, ...); the result has shape xs.shape[1:].  Dyadic
        nodes n / 2^t are exact floats for t <= 53.
        """

    def eval_real(self, xs: Sequence[float]) -> float:
        """Value at float coordinates in [0, 1)."""
        return float(self.eval_batch(np.array(xs, dtype=float).reshape(-1, 1))[0])

    def eval(self, point: DyadicPoint) -> float:
        """Value at a dyadic point."""
        return self.eval_real(point.as_floats())

    def fourier_coeff(self, h: np.ndarray) -> np.ndarray:
        """Coefficients f^(h) of the int indices h, shape (..., s), as an array
        of shape h.shape[:-1]; a single index, shape (s,), gives a float."""
        raise NotImplementedError(f"{type(self).__name__} has no Fourier coefficient model")

    def coefficient_tail_bound(self, bound: int, power: int) -> float:
        """Bound on the coefficient mass sum |f^(h)|^power outside |h_i| <= bound."""
        raise NotImplementedError(f"{type(self).__name__} has no coefficient tail bound")


class ProductBernoulliFn(PeriodicFunction):
    """f(x) = prod_i (1 + B2(x_i)); the integral is exactly 1.

    Fourier coefficients factor per coordinate with g(0) = 1 and
    g(h) = 1 / (2 pi^2 h^2) otherwise, all real and strictly positive.
    Reflection symmetric bit for bit: for dyadic x, (1 - x) - 1/2 is
    exactly -(x - 1/2), and each factor squares it.

    Parameters
    ----------
    s : int
        Dimension.
    """

    known_integral = 1.0
    reflection_symmetric = True

    def __init__(self, s: int) -> None:
        if s < 1:
            raise ValueError(f"dimension must be >= 1, got {s}")
        self._s = s

    @property
    def s(self) -> int:
        return self._s

    def factor(self, x):
        """Per-coordinate factor 1 + B2(x); x may be a float (giving a numpy
        float64) or an array."""
        # in one buffer: (u*u - C) + 1.0 is the same IEEE sum as 1.0 + B2(x)
        out = np.subtract(x, 0.5)
        out *= out
        out -= _B2_C
        out += 1.0
        return out

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        if len(xs) != self._s:
            raise ValueError(f"dimension mismatch: got {len(xs)}, expected {self._s}")
        # the factors of a group of coordinates, as factor computes them, in
        # one temporary; the running product is folded into the group's
        # first row and carried down its rows, so every node's product is
        # ((f_1 f_2) f_3) ... in coordinate order, bit for bit.  Two
        # temporaries alternate, so the last group's product is read while
        # the next is formed
        nodes = xs[0].size
        rows = max(1, min(self._s, _FACTOR_TERMS // max(nodes, 1)))
        temps = np.empty((min(2, -(-self._s // rows)), rows) + xs.shape[1:])
        prod = None
        # a product past the float range becomes inf, which every caller refuses
        with np.errstate(over="ignore"):
            for k, lo in enumerate(range(0, self._s, rows)):
                f = temps[k % 2, : min(rows, self._s - lo)]
                np.subtract(xs[lo : lo + rows], 0.5, out=f)
                f *= f
                f -= _B2_C
                f += 1.0
                if prod is not None:
                    f[0] *= prod
                for i in range(1, len(f)):
                    f[i] *= f[i - 1]
                prod = f[-1, ...]
        return prod

    def fourier_coeff(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h)
        if h.shape[-1:] != (self._s,):
            raise ValueError(f"index shape {h.shape} does not end in dimension {self._s}")
        # per index, the float product 1.0 * g(h_1) * g(h_2) ... skipping h_i = 0
        out = np.ones(h.shape[:-1])
        for hi in np.moveaxis(h, -1, 0):
            nz = hi != 0
            hf = hi[nz].astype(float)
            out[nz] *= 1.0 / (TWO_PI_SQ * hf * hf)
        return out[()]

    def coefficient_tail_bound(self, bound: int, power: int) -> float:
        """Crude union bound on coefficient mass outside the box |h_i| <= bound.

        Per coordinate, the tail of g(h)^power is bounded by the integral of
        its envelope; the other s - 1 coordinates contribute their full
        coefficient-power sums (7/6 for power 1, 181/180 for power 2).
        Loose, but monotone in the bound and decaying like bound^(1-2*power).
        """
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        if power == 1:
            per_coord_tail = 1.0 / (math.pi**2 * bound)
            full_sum = 7.0 / 6.0
        elif power == 2:
            per_coord_tail = 1.0 / (6.0 * math.pi**4 * bound**3)
            full_sum = 181.0 / 180.0
        else:
            raise NotImplementedError(f"no tail bound for coefficient power {power}")
        return self._s * full_sum ** (self._s - 1) * per_coord_tail
