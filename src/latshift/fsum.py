"""Correctly rounded sums in whole-array passes, equal to math.fsum bit for bit.

fsum_rows(a) returns every row sum of a 2-D float64 array as the float
nearest the exact sum, ties to even, which is what math.fsum returns (and
+0.0 when the exact sum is zero).  It follows the error-free extraction of
Rump, Ogita and Oishi ("Accurate floating-point summation, Part I", SIAM J.
Sci. Comput. 31(1), 2008):

* for a row of n terms, let M = ceil(log2(n + 2)) and sigma = 2^(M + e),
  where 2^e bounds the row's largest magnitude.  Then q = (sigma + x) -
  sigma and x - q are exact, and the q of a row sum exactly in any order;
* a second extraction of the residuals x - q gives a second exact sum and
  last residuals below 2^-53 of the second sigma;
* TwoSum turns the two exact sums into s + t exactly, and the float sum r
  of the last residuals carries a bound E on its own rounding.

A row is settled when its exact sum is known (r = E = 0: s is then the
IEEE-rounded sum of two floats, ties to even), or when |t| + |r| + E lies
below half the gap from s to either neighbour (s is then the nearest
float to the exact sum).  Rows longer than BLOCK_TERMS are reduced a block
at a time and the blocks' parts (s, t, r, two exact floats and one within
its bound) are reduced once more.  Every other row, including rows with a
non-finite term or a scale near overflow, goes to math.fsum, and so does
an input of fewer than SHORT_TERMS terms in all, where the passes' fixed
cost (some 50 numpy calls) exceeds math.fsum's.
"""

from __future__ import annotations

import math
from itertools import chain, islice
from typing import Callable, Iterable

import numpy as np

# terms per sum and pass; longer sums are reduced a block at a time
BLOCK_TERMS = 1 << 16

# below this many terms in all, math.fsum itself is the faster route
SHORT_TERMS = 1 << 10


def _fallback(terms: Iterable[float]) -> float:
    """The reference sum for rows the certificate cannot settle."""
    return math.fsum(terms)


def _extract(x: np.ndarray, buf: np.ndarray, M: int) -> np.ndarray:
    """Exact column sums of q = (sigma + x) - sigma; x becomes x - q.

    sigma is 2^M times the power of two above the column's largest
    magnitude; buf is a work array of x's shape.
    """
    _, e = np.frexp(np.abs(x, out=buf).max(axis=0))
    sigma = np.ldexp(1.0, e + M)
    q = np.add(sigma, x, out=buf)
    q -= sigma
    x -= q
    return q.sum(axis=0)


def _parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per column of x: (s, t, r, E, ok) with exact sum in s + t + r +- E.

    x holds the terms of each sum down a column, so that every reduction
    runs along axis 0, which numpy does fast for short sums; it is
    overwritten.  ok is False for columns the extraction does not cover
    (non-finite terms or a scale near overflow); their other entries are
    meaningless.
    """
    n = x.shape[0]
    M = (n + 1).bit_length()  # ceil(log2(n + 2))
    buf = np.empty_like(x)
    big = np.abs(x, out=buf).max(axis=0)
    # sigma = 2^(M + e) must stay at or below 2^1022 so that sigma + x cannot overflow
    ok = np.isfinite(big) & (big < 2.0 ** (1022 - M))
    if not ok.all():
        x = np.where(ok, x, 0.0)
    a = _extract(x, buf, M)
    b = _extract(x, buf, M)
    # TwoSum: s + t == a + b exactly
    s = a + b
    bv = s - a
    t = (a - (s - bv)) + (b - bv)
    r = x.sum(axis=0)
    # any summation order errs by at most (n - 1) u sum|x| <= n^2 2^-53 max|x|;
    # the bound is doubled for its own rounding
    err = np.abs(x, out=buf).max(axis=0) * (n * n * 2.0**-52)
    return s, t, r, err, ok


def _settled(s: np.ndarray, t: np.ndarray, r: np.ndarray, err: np.ndarray) -> np.ndarray:
    """Sums whose nearest float to s + t + (r +- err) is provably s."""
    exact = (r == 0.0) & (err == 0.0)
    # half the smaller gap from s to a neighbour: the gap toward zero is
    # half the spacing at a power of two
    mant, _ = np.frexp(s)
    half_gap = np.spacing(np.abs(s)) * np.where(np.abs(mant) == 0.5, 0.25, 0.5)
    return exact | ((np.abs(t) + np.abs(r) + err) * (1.0 + 2.0**-40) < half_gap)


def _reduce(pieces: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(sums, settled) per column of the pieces stacked end to end."""
    parts = [_parts(x) for x in pieces]
    if len(parts) == 1:
        s, t, r, err, ok = parts[0]
    else:
        # the pieces' s and t are exact and r is within its bound, so the
        # column sum is the sum of all three, within the sum of the bounds
        s, t, r, err, ok = _parts(np.concatenate([np.stack(p[:3]) for p in parts]))
        err = err + 2.0 * np.sum([p[3] for p in parts], axis=0)
        ok = ok & np.logical_and.reduce([p[4] for p in parts])
    return s, ok & _settled(s, t, r, err)


def fsum_rows(a: np.ndarray) -> np.ndarray:
    """math.fsum of every row of the 2-D float array a, bit for bit."""
    a = np.asarray(a, dtype=np.float64)
    rows, n = a.shape
    if n == 1:
        # a one-term sum is its term, and math.fsum gives +0.0 for -0.0
        return a[:, 0] + 0.0
    if a.size < SHORT_TERMS:
        return np.array([math.fsum(row) for row in a.tolist()]).reshape(rows)
    sums, settled = _reduce(
        np.array(a[:, lo : lo + BLOCK_TERMS].T, order="C") for lo in range(0, n, BLOCK_TERMS)
    )
    for i in np.flatnonzero(~settled).tolist():
        sums[i] = _fallback(a[i].tolist())
    return sums


def fsum_blocks(blocks: Callable[[], Iterable[np.ndarray]]) -> float:
    """math.fsum of the terms of the 1-D arrays blocks() yields, in order.

    The terms are reduced at most BLOCK_TERMS at a time; blocks() is called
    a second time, to feed math.fsum, only when the certificate cannot
    settle the sum.
    """
    pieces = (
        np.array(b[lo : lo + BLOCK_TERMS], dtype=np.float64).reshape(-1, 1)
        for b in map(np.asarray, blocks())
        for lo in range(0, len(b), BLOCK_TERMS)
    )
    head = list(islice(pieces, 2))
    if len(head) < 2 and sum(x.size for x in head) < SHORT_TERMS:
        return math.fsum(head[0][:, 0].tolist() if head else ())
    sums, settled = _reduce(chain(head, pieces))
    if settled[0]:
        return float(sums[0])
    return _fallback(chain.from_iterable(np.asarray(b).tolist() for b in blocks()))
