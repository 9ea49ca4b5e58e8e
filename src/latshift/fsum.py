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
float to the exact sum).  The passes run along the rows when the rows
are at least as long as they are many, and down the columns of a
transposed copy otherwise, since numpy reduces a contiguous axis fast only
for long sums.  The private entry _fsum_columns takes the terms the other
way round, one sum per column, as the node-major blocks of the moment
enumerations hold them; it may overwrite its input, so it reduces short
columns where they lie, with no copy, and asks its caller to form the
terms again for a column the certificate cannot settle.  Both entries
lay their terms out for the chosen axis and hand them to one dispatcher,
_fsum, which overwrites them.  Sums longer
than BLOCK_TERMS are reduced a block at a time and the blocks' parts
(s, t, r, two exact floats and one within its bound) are reduced once
more.  Every other sum, including sums with a non-finite term or a scale
near overflow, goes to math.fsum, and so does an input of fewer than
SHORT_TERMS terms in all, where the passes' fixed cost (some 50 numpy
calls) exceeds math.fsum's.
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


def _extract(x: np.ndarray, buf: np.ndarray, M: int, axis: int) -> np.ndarray:
    """Exact sums along axis of q = (sigma + x) - sigma; x becomes x - q.

    sigma is 2^M times the power of two above the largest magnitude of the
    sum; buf is a work array of x's shape.
    """
    _, e = np.frexp(np.abs(x, out=buf).max(axis=axis, keepdims=True))
    sigma = np.ldexp(1.0, e + M)
    q = np.add(sigma, x, out=buf)
    q -= sigma
    x -= q
    return q.sum(axis=axis)


def _parts(
    x: np.ndarray, axis: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per sum along axis of x: (s, t, r, E, ok) with exact sum in s + t + r +- E.

    x is overwritten.  numpy reduces fast along a contiguous axis only when
    the sums are long, so short sums come with their terms down the columns
    (axis 0) and long ones along the rows (axis 1).  ok is False for sums
    the extraction does not cover (non-finite terms or a scale near
    overflow); their other entries are meaningless.
    """
    n = x.shape[axis]
    M = (n + 1).bit_length()  # ceil(log2(n + 2))
    buf = np.empty_like(x)
    big = np.abs(x, out=buf).max(axis=axis)
    # sigma = 2^(M + e) must stay at or below 2^1022 so that sigma + x cannot overflow
    ok = np.isfinite(big) & (big < 2.0 ** (1022 - M))
    if not ok.all():
        x = np.where(np.expand_dims(ok, axis), x, 0.0)
    a = _extract(x, buf, M, axis)
    b = _extract(x, buf, M, axis)
    # TwoSum: s + t == a + b exactly
    s = a + b
    bv = s - a
    t = (a - (s - bv)) + (b - bv)
    r = x.sum(axis=axis)
    # any summation order errs by at most (n - 1) u sum|x| <= n^2 2^-53 max|x|;
    # the bound is doubled for its own rounding
    err = np.abs(x, out=buf).max(axis=axis) * (n * n * 2.0**-52)
    return s, t, r, err, ok


def _settled(s: np.ndarray, t: np.ndarray, r: np.ndarray, err: np.ndarray) -> np.ndarray:
    """Sums whose nearest float to s + t + (r +- err) is provably s."""
    exact = (r == 0.0) & (err == 0.0)
    # half the smaller gap from s to a neighbour: the gap toward zero is
    # half the spacing at a power of two
    mant, _ = np.frexp(s)
    half_gap = np.spacing(np.abs(s)) * np.where(np.abs(mant) == 0.5, 0.25, 0.5)
    return exact | ((np.abs(t) + np.abs(r) + err) * (1.0 + 2.0**-40) < half_gap)


def _reduce(pieces: Iterable[np.ndarray], axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(sums, settled) per sum of the pieces joined end to end along axis."""
    parts = [_parts(x, axis) for x in pieces]
    if len(parts) == 1:
        s, t, r, err, ok = parts[0]
    else:
        # the pieces' s and t are exact and r is within its bound, so the
        # column sum is the sum of all three, within the sum of the bounds
        s, t, r, err, ok = _parts(np.concatenate([np.stack(p[:3]) for p in parts]))
        err = err + 2.0 * np.sum([p[3] for p in parts], axis=0)
        ok = ok & np.logical_and.reduce([p[4] for p in parts])
    return s, ok & _settled(s, t, r, err)


def _short(a: np.ndarray) -> np.ndarray | None:
    """math.fsum of every row of a when the passes do not pay, else None."""
    if a.shape[1] == 1:
        # a one-term sum is its term, and math.fsum gives +0.0 for -0.0
        return a[:, 0] + 0.0
    if a.size < SHORT_TERMS:
        return np.array([math.fsum(row) for row in a.tolist()]).reshape(len(a))
    return None


def _fsum(x: np.ndarray, axis: int, terms: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """math.fsum of every sum along axis of the C-contiguous 2-D float array x.

    x is overwritten.  terms(i) must give the original terms of the listed
    sums again, one sum per row; it is called only for sums the
    certificate cannot settle.
    """
    short = _short(x if axis else x.T)
    if short is not None:
        return short
    blocks = (slice(lo, lo + BLOCK_TERMS) for lo in range(0, x.shape[axis], BLOCK_TERMS))
    sums, settled = _reduce((x[:, b] if axis else x[b] for b in blocks), axis)
    bad = np.flatnonzero(~settled)
    if len(bad):
        sums[bad] = [_fallback(row) for row in terms(bad).tolist()]
    return sums


def fsum_rows(a: np.ndarray) -> np.ndarray:
    """math.fsum of every row of the 2-D float array a, bit for bit."""
    a = np.asarray(a, dtype=np.float64)
    rows, n = a.shape
    # rows at least as long as they are many are reduced along the rows of
    # a copy, shorter ones down the columns of a transposed copy
    axis = 1 if n >= rows else 0
    return _fsum(np.array(a if axis else a.T, order="C"), axis, lambda i: a[i])


def _fsum_columns(x: np.ndarray, terms: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """math.fsum of every column of the C-contiguous 2-D float array x, bit for bit.

    x is overwritten, so columns shorter than they are many are reduced
    where they lie, with no copy; longer ones go along the rows of a
    transposed copy (a view for a single column).  terms(cols) must give
    the original (n, len(cols)) terms of the listed columns again; it is
    called only for columns the certificate cannot settle.
    """
    n, cols = x.shape
    if n < cols:
        return _fsum(x, 0, lambda c: terms(c).T)
    return _fsum(np.ascontiguousarray(x.T), 1, lambda c: terms(c).T)


def fsum_blocks(blocks: Callable[[], Iterable[np.ndarray]]) -> float:
    """math.fsum of the terms of the 1-D arrays blocks() yields, in order.

    The terms are reduced at most BLOCK_TERMS at a time; blocks() is called
    a second time, to feed math.fsum, only when the certificate cannot
    settle the sum.  Both passes copy each block's terms out before they
    ask for the next block, so blocks() may yield views of one buffer that
    every block overwrites.
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
    return _fallback(chain.from_iterable(np.ravel(b).tolist() for b in blocks()))
