"""Correctly rounded sums in whole-array passes, equal to math.fsum bit for bit.

fsum_rows(a) returns every row sum of a 2-D float64 array as the float
nearest the exact sum, ties to even, which is what math.fsum returns (and
+0.0 when the exact sum is zero).  It follows the error-free extraction of
Rump, Ogita and Oishi ("Accurate floating-point summation, Part I", SIAM J.
Sci. Comput. 31(1), 2008):

* for a sum of n terms, let M = ceil(log2(n + 2)) and sigma = 2^(M + e),
  where 2^e bounds the sum's largest magnitude.  Then q = (sigma + x) -
  sigma and x - q are exact, the q of a sum add up exactly in any order to
  a, and every residual x - q is at most u sigma, u = 2^-53;
* a sum of at most BLOCK_TERMS terms first tries to settle after this one
  extraction.  Its residuals are added as k = 2^floor(log2(n) / 2)
  partials of n/k terms each (k = 1 when k does not divide n), so their
  float sum r errs by at most (n/k) n u^2 sigma + k u sum|partials|,
  whatever order numpy adds them in; the bound is doubled for its own
  rounding, and TwoSum turns a + r into s + t exactly;
* the sums that do not settle so, compacted, and every block of a longer
  sum take a second extraction of the residuals: a second exact sum, which
  TwoSum joins to a as s + t, and last residuals below 2^-53 of the second
  sigma, whose float sum r errs by at most n^2 2^-53 of their largest.

A sum is settled when its exact sum is known (r = E = 0: s is then the
IEEE-rounded sum of two floats, ties to even), or when |t| + |r| + E lies
below half the gap from s to either neighbour (s is then the nearest
float to the exact sum), E being the bound on r; `_settled` is that one
test on every path.  fsum_rows, the entry for a block of rows, picks
the pass axis: along the rows when the sums are at least as long as
they are many, and down the columns otherwise, since numpy reduces a
contiguous axis fast only for long sums.  It sums a copy laid out so,
unless the array is laid out already (as `shifts` writes its blocks)
and its caller gives it up with again(i), a way to form rows i anew: it
is then summed in place, and again is called only for the sums the
certificate cannot settle.  Sums longer than BLOCK_TERMS are reduced a
block at a time and the blocks' parts (s, t, r, two exact floats and
one within its bound) are reduced once more.
fsum_blocks sums k rows at once, fed as a stream of (k, B) blocks (a
1-D block is one row, so one array is a stream of one block).  It first
joins the blocks into whole pieces of at most BLOCK_TERMS terms over all
k rows, whatever the blocks' widths, so a stream of at most that many
terms fed in several blocks still settles after one extraction, and a
longer one takes as few pieces as it can; it holds one piece and one
work array of its size at a time, laid out down a column for one row
and along the rows for more.  Every other
sum, including sums with a non-finite term or a scale near overflow, goes
to math.fsum, and so does a stream of fewer than SHORT_TERMS terms a row,
where the passes' fixed cost (some 30-50 numpy calls) exceeds
math.fsum's.
"""

from __future__ import annotations

import math
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

import numpy as np

# terms per sum and pass; longer sums are reduced a block at a time
BLOCK_TERMS = 1 << 16

# below this many terms math.fsum itself is the faster route: in all, for
# the many rows of fsum_rows, and a row, for the few rows of fsum_blocks
SHORT_TERMS = 1 << 10


def _fallback(terms: Iterable[float]) -> float:
    """The reference sum for sums the certificate cannot settle."""
    return math.fsum(terms)


def _extract(x: np.ndarray, buf: np.ndarray, M: int, axis: int, big=None) -> tuple[np.ndarray, np.ndarray]:
    """(a, sigma): exact sums along axis of q = (sigma + x) - sigma; x becomes x - q.

    sigma (axis kept) is 2^M times the power of two above the largest
    magnitude of the sum, big (axis kept) if the caller has it; every x - q
    is at most u sigma.  buf is a work array of x's shape.
    """
    if big is None:
        big = np.abs(x, out=buf).max(axis=axis, keepdims=True)
    _, e = np.frexp(big)
    sigma = np.ldexp(1.0, e + M)
    q = np.add(sigma, x, out=buf)
    q -= sigma
    x -= q
    return q.sum(axis=axis), sigma


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, t) with s + t == a + b exactly."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _first(x: np.ndarray, axis: int, buf: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """One extraction along axis: (a, sigma, ok, residuals, work array).

    ok is False for sums the extraction does not cover (non-finite terms or
    a scale near overflow); they are extracted as sums of zeros, and their
    other entries are meaningless.  x is overwritten, or copied when some
    sum is not covered.  buf, a work array of x's shape, is made if not
    given.
    """
    M = (x.shape[axis] + 1).bit_length()  # ceil(log2(n + 2))
    if buf is None:
        buf = np.empty_like(x)
    big = np.abs(x, out=buf).max(axis=axis, keepdims=True)
    # sigma = 2^(M + e) must stay at or below 2^1022 so that sigma + x cannot overflow
    ok = np.isfinite(big) & (big < 2.0 ** (1022 - M))
    if not ok.all():
        x = np.where(ok, x, 0.0)
        big = np.where(ok, big, 0.0)
    a, sigma = _extract(x, buf, M, axis, big)
    return a, sigma.squeeze(axis), ok.squeeze(axis), x, buf


def _last(x: np.ndarray, buf: np.ndarray, a: np.ndarray, axis: int) -> tuple[np.ndarray, ...]:
    """Second extraction of the residuals x, whose q summed to a: (s, t, r, err),
    the exact sum within s + t + r +- err.  x and buf are overwritten."""
    n = x.shape[axis]
    b, _ = _extract(x, buf, (n + 1).bit_length(), axis)
    s, t = _two_sum(a, b)
    r = x.sum(axis=axis)
    # any summation order errs by at most (n - 1) u sum|x| <= n^2 2^-53 max|x|;
    # the bound is doubled for its own rounding
    err = np.abs(x, out=buf).max(axis=axis) * (n * n * 2.0**-52)
    return s, t, r, err


def _parts(x: np.ndarray, axis: int = 0, buf: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Per sum along axis of x, after two extractions: (s, t, r, E, ok) with
    the exact sum in s + t + r +- E.  x and buf are overwritten."""
    a, _, ok, x, buf = _first(x, axis, buf)
    return (*_last(x, buf, a, axis), ok)


def _settled(s: np.ndarray, t: np.ndarray, r: np.ndarray, err: np.ndarray) -> np.ndarray:
    """Sums whose nearest float to s + t + (r +- err) is provably s."""
    exact = (r == 0.0) & (err == 0.0)
    # half the smaller gap from s to a neighbour: the gap toward zero is
    # half the spacing at a power of two
    mant, _ = np.frexp(s)
    half_gap = np.spacing(np.abs(s)) * np.where(np.abs(mant) == 0.5, 0.25, 0.5)
    return exact | ((np.abs(t) + np.abs(r) + err) * (1.0 + 2.0**-40) < half_gap)


def _settle_once(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(sums, settled) per sum along axis of one block: one extraction for the
    sums it settles, a second for the rest, compacted.  x is overwritten."""
    n = x.shape[axis]
    a, sigma, ok, x, buf = _first(x, axis)
    k = 1 << (n.bit_length() - 1) // 2
    if n % k:
        k = 1
    # k partials, of the residuals j with the same j mod k
    if axis:
        partials = x.reshape(len(x), n // k, k).sum(axis=1)
    else:
        partials = x.reshape(n // k, k, -1).sum(axis=0)
    r = partials.sum(axis=axis)
    # any summation order over m terms errs by at most (m - 1) u sum|terms|,
    # and each residual is at most u sigma: at most (n/k)^2 u^2 sigma for each
    # partial and k u sum|partials| for their sum, both doubled for the
    # bound's own rounding
    err = sigma * ((n // k) * n * 2.0**-105) + np.abs(partials).sum(axis=axis) * (k * 2.0**-52)
    # below this sigma the products could underflow and lose the bound, so
    # such sums take the second extraction
    err[sigma < 2.0**-900] = np.inf
    s, t = _two_sum(a, r)
    settled = ok & _settled(s, t, 0.0, err)
    rest = np.flatnonzero(~settled)
    if len(rest):
        if len(rest) < len(settled):
            x = x.take(rest, axis=1 - axis)
            buf = np.empty_like(x)
        # a + r is exactly s + t, so the settled sums keep r = 0; the test
        # runs once more on every sum, with the rest's second-extraction parts
        r = np.zeros_like(s)
        s[rest], t[rest], r[rest], err[rest] = _last(x, buf, a[rest], axis)
        settled = ok & _settled(s, t, r, err)
    return s, settled


def _reduce(pieces: Iterable[tuple[np.ndarray, bool]], axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(sums, settled) per sum of the pieces joined end to end along axis,
    given as (piece, last) pairs.

    A sum of one piece may settle after one extraction.  The pieces of a
    longer sum take two each: their totals often cancel, and a piece settled
    by its own bound would leave too wide a bound on the total.  Each piece
    is dropped once its parts are taken, so one is held at a time.
    """
    pieces = iter(pieces)
    x, last = next(pieces)
    if last:
        return _settle_once(x, axis)
    # no piece is wider than the first; one work array serves them all, so
    # that a piece is not freed, and paged in again, together with its own
    work = np.empty_like(x)
    parts = [_parts(x, axis, work)]
    del x
    parts += map(lambda p: _parts(p[0], axis, work[tuple(map(slice, p[0].shape))]), pieces)
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


def fsum_rows(a: np.ndarray, again: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
    """math.fsum of every row of the 2-D float array a, bit for bit.

    A laid-out copy of a is summed unless a is laid out for the passes
    (a C-contiguous when its rows are at least as long as they are many,
    a.T otherwise) and the caller gives it up with again(i), a way to form
    rows i anew: then a is summed in place, and again is called only for
    the sums the certificate cannot settle.
    """
    a = np.asarray(a, dtype=np.float64)
    short = _short(a)
    if short is not None:
        return short
    axis = 1 if a.shape[1] >= len(a) else 0
    x = a if axis else a.T
    in_place = again is not None and x.flags.c_contiguous and x.flags.writeable
    if not in_place:
        x = np.array(x, order="C")
    n = x.shape[axis]
    blocks = (slice(lo, lo + BLOCK_TERMS) for lo in range(0, n, BLOCK_TERMS))
    sums, settled = _reduce(((x[:, b] if axis else x[b], b.stop >= n) for b in blocks), axis)
    bad = np.flatnonzero(~settled)
    if len(bad):
        sums[bad] = [_fallback(row) for row in (again(bad) if in_place else a[bad]).tolist()]
    return sums


def _joined(blocks: Iterable[np.ndarray], k: int = 1) -> Iterator[tuple[np.ndarray, bool]]:
    """(piece, last) pairs: the columns of the (k, B) blocks, in order,
    copied into pieces of BLOCK_TERMS // k columns (the last may be
    narrower), each a new array laid out as `_reduce` reads it: (k, P), or
    (P, 1) for one row, which reduces fastest down its column.

    The first piece starts at the width its first block gives it, and a
    later block that adds to it grows it to twice its fill or to what that
    block needs, at most the full width: a sum fed in one block holds one
    copy of its terms, and a short stream is not held at the full width.
    Every later piece starts at the full width.  Each block is copied
    before the next is asked for.  A full piece is handed out once the next
    block with a column has come, or none has, so that last is known
    without a second piece: that block is held, not copied, until the
    piece is reduced.
    """
    full = max(BLOCK_TERMS // k, 1)
    blocks = map(np.asarray, blocks)

    def fetch() -> np.ndarray | None:
        # the next block with a column, as (k, B)
        for b in blocks:
            if b.size:
                return b.reshape(k, -1)
        return None

    b, lo, width = fetch(), 0, 0
    while b is not None:
        piece, fill = None, 0
        while b is not None and fill < full:
            take = min(b.shape[1] - lo, full - fill)
            if piece is None:
                piece = np.empty((k, max(width, take)))
            elif fill + take > piece.shape[1]:
                grown = np.empty((k, min(max(2 * fill, fill + take), full)))
                grown[:, :fill] = piece[:, :fill]
                piece = grown
                del grown  # or it would hold this piece past its reduction
            piece[:, fill : fill + take] = b[:, lo : lo + take]
            fill += take
            lo += take
            if lo == b.shape[1]:
                b, lo = fetch(), 0
        yield (piece[:, :fill].T if k == 1 else piece[:, :fill]), b is None
        # the stream fills more than one piece: the next takes the full width
        width = full


def _popped(items: list) -> Iterator:
    """The items of the list in order, each dropped from it as it is handed
    out, so that the list does not hold a piece while it is reduced."""
    items.reverse()
    while items:
        yield items.pop()


def fsum_blocks(blocks: Callable[[], Iterable[np.ndarray]]) -> float | list[float]:
    """math.fsum of each row of the blocks blocks() yields, in order.

    The blocks are (k, B) arrays of the same k rows, B free, or 1-D arrays,
    one row each; the k sums come back as a list, or as one float for 1-D
    blocks (0.0 when no block comes).  The columns are joined into whole
    pieces of at most BLOCK_TERMS terms over all their rows, whatever the
    widths of the blocks, and reduced a piece at a time, so a stream of at
    most BLOCK_TERMS terms may settle after one extraction.  blocks() is
    called again, to feed math.fsum, once for each row the certificate
    cannot settle.  Both passes copy each block's terms out before they ask
    for the next block, so blocks() may yield views of one buffer that
    every block overwrites.
    """
    stream = iter(blocks())
    first = next(stream, None)
    if first is None:
        return 0.0
    one_row = np.ndim(first) == 1
    k = 1 if one_row else len(first)
    pieces = _joined(chain([first], stream), k)
    # the chain holds the first block until it is copied, and no longer
    del first
    head = list(islice(pieces, 1))
    if not head or head[0][1] and head[0][0].size < SHORT_TERMS * k:
        rows = (head[0][0].T if k == 1 else head[0][0]).tolist() if head else [[]] * k
        sums = list(map(math.fsum, rows))
    else:
        s, settled = _reduce(chain(_popped(head), pieces), 0 if k == 1 else 1)
        sums = s.tolist()
        for i in np.flatnonzero(~settled).tolist():
            sums[i] = _fallback(chain.from_iterable(np.reshape(b, (k, -1))[i].tolist() for b in blocks()))
    return sums[0] if one_row else sums
