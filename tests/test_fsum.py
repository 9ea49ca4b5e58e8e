"""The vectorized correctly rounded sum against math.fsum, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshift import (
    EmbeddedPair,
    GridShift,
    ProductBernoulliFn,
    Rank1Rule,
    eval_grid_shifted,
    extended_rule_value,
    korobov_vector,
    moments_grid_shift,
    moments_scalar_shift,
)
from latshift import fsum as fsum_module
from latshift import moments as moments_module
from latshift.fsum import _fsum_columns, fsum_blocks, fsum_rows

PROPERTY = settings(max_examples=300, deadline=None)


def bits(values) -> list[int]:
    """int64 view, so that -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def fsum_reference(rows) -> list[int]:
    return bits([math.fsum(row) for row in rows])


# terms from 1e-300 to 1e300, subnormals and both zeros included
wide = st.floats(min_value=-1e300, max_value=1e300)
# +-2^(base - k): sums of a few of these land on and near exact midpoints
ladder = st.tuples(st.sampled_from((-1.0, 1.0)), st.integers(0, 110))


@st.composite
def row_sets(draw):
    """Several rows of one length n, each built one of six ways."""
    n = draw(st.integers(1, 40))
    base = draw(st.integers(-1000, 900))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("wide", "ladder", "cancel", "zeros", "coarse", "dense")))
        if kind == "wide":
            row = draw(st.lists(wide, min_size=n, max_size=n))
        elif kind == "ladder":
            row = [sign * 2.0 ** (base - k) for sign, k in draw(st.lists(ladder, min_size=n, max_size=n))]
        elif kind == "cancel":
            # x and -x pairs that cancel exactly, around a few odd terms
            half = draw(st.lists(wide, min_size=n // 2, max_size=n // 2))
            rest = draw(st.lists(wide, min_size=n % 2, max_size=n % 2))
            row = draw(st.permutations(half + [-x for x in half] + rest))
        elif kind == "zeros":
            row = draw(st.lists(st.sampled_from((0.0, -0.0)), min_size=n, max_size=n))
        elif kind == "coarse":
            # a few bits per term: exact sums, many of them exact midpoints
            row = [k * 2.0**base for k in draw(st.lists(st.integers(-64, 64), min_size=n, max_size=n))]
        else:
            # n terms of one sign just below 2^base: the row sum nears n 2^base
            sign = draw(st.sampled_from((-1.0, 1.0)))
            ks = draw(st.lists(st.integers(1, 1 << 12), min_size=n, max_size=n))
            row = [sign * (2.0**base - k * 2.0 ** (base - 53)) for k in ks]
        rows.append(row)
    return rows


@PROPERTY
@given(row_sets())
def test_rows_equal_fsum_bitwise(rows):
    assert bits(fsum_rows(np.array(rows))) == fsum_reference(rows)
    # the same rows through the extraction passes, not the short-sum path
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fsum_module, "SHORT_TERMS", 0)
        assert bits(fsum_rows(np.array(rows))) == fsum_reference(rows)


def column_sums(rows) -> np.ndarray:
    """_fsum_columns of the rows laid out one sum per column, as the moment
    blocks hold them; the terms are formed again only for a column the
    certificate cannot settle."""
    a = np.array(rows)
    return _fsum_columns(np.array(a.T, order="C"), lambda cols: a[cols].T)


@PROPERTY
@given(row_sets())
def test_row_and_column_layouts_equal_fsum_bitwise(rows):
    # the drawn rows, mostly at least as long as they are many, go along the
    # rows; the same rows 41 times over, more rows than terms, go down the
    # columns of a transposed copy.  _fsum_columns takes the same sums one
    # per column and reduces them the other way round
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fsum_module, "SHORT_TERMS", 0)
        assert bits(fsum_rows(np.array(rows))) == fsum_reference(rows)
        assert bits(fsum_rows(np.array(rows * 41))) == fsum_reference(rows) * 41
        assert bits(column_sums(rows)) == fsum_reference(rows)
        assert bits(column_sums(rows * 41)) == fsum_reference(rows) * 41


@PROPERTY
@given(row_sets(), st.integers(1, 7), st.data())
def test_blocked_rows_and_streams_equal_fsum_bitwise(rows, block, data):
    # short blocks exercise the second reduction of the blocks' parts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fsum_module, "SHORT_TERMS", 0)
        mp.setattr(fsum_module, "BLOCK_TERMS", block)
        assert bits(fsum_rows(np.array(rows))) == fsum_reference(rows)
        assert bits(column_sums(rows)) == fsum_reference(rows)
        row = np.array(rows[0])
        cuts = sorted(data.draw(st.lists(st.integers(0, len(row)), max_size=4)))
        pieces = np.split(row, cuts)
        assert bits([fsum_blocks(lambda: iter(pieces))]) == fsum_reference([rows[0]])


def test_long_rows_and_streams():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, (1 << 17) + 3)) * np.exp(rng.uniform(-30, 30, (2, 1)))
    rows = a.tolist()
    assert bits(fsum_rows(a)) == fsum_reference(rows)
    assert bits([fsum_blocks(lambda: (a[0, lo : lo + 1000] for lo in range(0, a.shape[1], 1000)))]) == (
        fsum_reference(rows[:1])
    )


def test_empty_and_degenerate_shapes():
    assert fsum_rows(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
    assert fsum_rows(np.zeros((0, 4))).shape == (0,)
    assert bits([fsum_blocks(lambda: iter([]))]) == bits([0.0])
    assert bits([fsum_blocks(lambda: iter([np.zeros(0), np.array([-0.0])]))]) == bits([math.fsum([-0.0])])


def test_non_finite_rows_go_to_fsum(monkeypatch):
    monkeypatch.setattr(fsum_module, "SHORT_TERMS", 0)
    rows = [[math.inf, 1.0], [1.0, 2.0], [math.nan, 0.0], [1e308, 1e308 * -0.5]]
    for got in (fsum_rows(np.array(rows)), column_sums(rows)):
        assert got[0] == math.inf and got[1] == 3.0 and math.isnan(got[2])
        assert got[3] == math.fsum(rows[3])


class CountingFallback:
    def __init__(self, mp):
        self.calls = 0
        inner = fsum_module._fallback

        def counted(terms):
            self.calls += 1
            return inner(terms)

        mp.setattr(fsum_module, "_fallback", counted)


def test_forced_fallback_is_fsum(monkeypatch):
    # s + t is an exact midpoint and the last residual decides the rounding,
    # which the certificate leaves to math.fsum: once above 1.0, and once
    # below it, where the gap to the next float down is half as wide
    monkeypatch.setattr(fsum_module, "SHORT_TERMS", 0)
    counter = CountingFallback(monkeypatch)
    rows = [[1.0, 2.0**-53, 2.0**-110], [1.0, -(2.0**-54), -(2.0**-110)], [1.0, 2.0, 0.5]]
    got = fsum_rows(np.array(rows))
    assert counter.calls == 2
    assert bits(got) == fsum_reference(rows)
    assert got[:2].tolist() == [1.0 + 2.0**-52, 1.0 - 2.0**-53]
    assert fsum_blocks(lambda: iter([np.array(rows[0])])) == 1.0 + 2.0**-52
    assert counter.calls == 3
    # the column entry overwrites its terms, so it asks for the two
    # unsettled columns again, and only for them
    asked = []
    a = np.array(rows)

    def terms(cols):
        asked.append(cols.tolist())
        return a[cols].T

    assert bits(_fsum_columns(np.array(a.T, order="C"), terms)) == fsum_reference(rows)
    assert asked == [[0, 1]] and counter.calls == 5


@pytest.mark.parametrize("scheme", ["grid", "scalar"])
def test_moment_blocks_form_unsettled_columns_again(monkeypatch, scheme):
    # the block sums overwrite their terms, so a column left to math.fsum
    # (here every odd one) is formed again from its own offset column
    f = ProductBernoulliFn(2)
    if scheme == "grid":
        report = lambda: moments_grid_shift(Rank1Rule(3, korobov_vector(1267, 2, 3)), f, 5)  # noqa: E731
    else:
        report = lambda: moments_scalar_shift(EmbeddedPair(3, 10, korobov_vector(1267, 2, 13)), f)  # noqa: E731
    expected = {k: v.hex() if isinstance(v, float) else v for k, v in report().to_dict().items()}
    settled = fsum_module._settled
    monkeypatch.setattr(
        fsum_module, "_settled", lambda *parts: settled(*parts) & (np.arange(len(parts[0])) % 2 == 0)
    )
    counter = CountingFallback(monkeypatch)
    got = {k: v.hex() if isinstance(v, float) else v for k, v in report().to_dict().items()}
    assert got == expected and counter.calls >= 64


class EdgeFn(ProductBernoulliFn):
    """The Bernoulli product with a chosen value at the origin, no known integral."""

    known_integral = None

    def __init__(self, s: int, origin: float) -> None:
        super().__init__(s)
        self.origin = origin

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.where((xs == 0.0).all(axis=0), self.origin, super().eval_batch(xs))


@pytest.mark.parametrize("block", [1 << 16, 1000])
def test_extended_rule_value_left_to_fsum(monkeypatch, block):
    # the identity sum reads its blocks from one reused buffer; when the
    # certificate settles nothing, or a term is not finite, math.fsum reads
    # them a second time, here in one block and in blocks with a short last
    pair = EmbeddedPair(3, 10, korobov_vector(1267, 2, 13))
    n = 1 << pair.ext
    z = np.array(pair.z.components, dtype=np.uint64)[:, None]
    xs = (z * np.arange(n, dtype=np.uint64)) % np.uint64(n) * (1.0 / n)
    f = ProductBernoulliFn(2)
    expected = f.known_integral + math.fsum((f.eval_batch(xs) - f.known_integral).tolist()) / n
    monkeypatch.setattr(moments_module, "BLOCK_NODES", block)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fsum_module, "_settled", lambda s, *rest: np.zeros(len(s), dtype=bool))
        counter = CountingFallback(mp)
        assert extended_rule_value(pair, f).hex() == expected.hex()
        assert counter.calls == 1
    assert extended_rule_value(pair, EdgeFn(2, math.inf)) == math.inf
    assert math.isnan(extended_rule_value(pair, EdgeFn(2, math.nan)))
    finite = EdgeFn(2, 1.0)
    assert extended_rule_value(pair, finite).hex() == (math.fsum(finite.eval_batch(xs).tolist()) / n).hex()


class TestFallbackCount:
    """A weakened certificate still gives the right sums, only slowly; these
    counts are what shows it."""

    def count(self, fn) -> int:
        with pytest.MonkeyPatch.context() as mp:
            counter = CountingFallback(mp)
            fn()
            return counter.calls

    def test_scalar_moments(self):
        pair = EmbeddedPair(4, 12, korobov_vector(17797, 3, 16))
        assert self.count(lambda: moments_scalar_shift(pair, ProductBernoulliFn(3))) <= 2

    def test_grid_moments(self):
        rule = Rank1Rule(5, korobov_vector(1267, 2, 5))
        assert self.count(lambda: moments_grid_shift(rule, ProductBernoulliFn(2), 5)) <= 2

    def test_exact_midpoints(self):
        # about one row in eight sums exactly to a midpoint between two
        # floats; a row whose sum is known exactly must never fall back
        rng = np.random.default_rng(3)
        rows = rng.integers(-(1 << 55), 1 << 55, (4096, 16)).astype(np.float64)
        assert self.count(lambda: fsum_rows(rows)) <= 2

    def test_grid_estimate_replicate(self):
        # one replicate of `estimate --scheme grid --s 3 --m 13 --r 13`
        rule = Rank1Rule(13, korobov_vector(17797, 3, 13))
        shift = GridShift((1234, 5678, 8191), 13)
        assert self.count(lambda: eval_grid_shifted(rule, ProductBernoulliFn(3), shift)) <= 2
