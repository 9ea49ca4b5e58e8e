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
    ScalarShift,
    SeededBitSource,
    eval_grid_shifted,
    extended_rule_value,
    grid_evaluator,
    korobov_vector,
    moments_grid_shift,
    moments_scalar_shift,
    scalar_evaluator,
)
from latshift import fsum as fsum_module
from latshift.fsum import fsum_blocks, fsum_rows

from conftest import count_calls, index_block_count, set_block_nodes

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


def given_up_sums(rows) -> np.ndarray:
    """fsum_rows of the rows given up in a layout it sums in place: C order
    when they are at least as long as they are many, and one sum per
    column otherwise, as a node-major block holds them; the terms are
    formed again only for a sum the certificate cannot settle."""
    a = np.array(rows)
    return fsum_rows(np.array(a, order="C" if a.shape[1] >= len(a) else "F"), lambda i: a[i])


@PROPERTY
@given(row_sets())
def test_row_and_column_layouts_equal_fsum_bitwise(rows):
    # the drawn rows, mostly at least as long as they are many, go along the
    # rows; the same rows 41 times over, more rows than terms, go down the
    # columns of a transposed copy.  given_up_sums takes the same sums in
    # place, in the same two layouts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fsum_module, "SHORT_TERMS", 0)
        assert bits(fsum_rows(np.array(rows))) == fsum_reference(rows)
        assert bits(fsum_rows(np.array(rows * 41))) == fsum_reference(rows) * 41
        assert bits(given_up_sums(rows)) == fsum_reference(rows)
        assert bits(given_up_sums(rows * 41)) == fsum_reference(rows) * 41


@PROPERTY
@given(row_sets(), st.integers(1, 7), st.data())
def test_blocked_rows_and_streams_equal_fsum_bitwise(rows, block, data):
    # short blocks exercise the second reduction of the blocks' parts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fsum_module, "SHORT_TERMS", 0)
        mp.setattr(fsum_module, "BLOCK_TERMS", block)
        assert bits(fsum_rows(np.array(rows))) == fsum_reference(rows)
        assert bits(given_up_sums(rows)) == fsum_reference(rows)
        assert bits(given_up_sums(rows * 41)) == fsum_reference(rows) * 41
        row = np.array(rows[0])
        cuts = sorted(data.draw(st.lists(st.integers(0, len(row)), max_size=4)))
        pieces = np.split(row, cuts)
        assert bits([fsum_blocks(lambda: iter(pieces))]) == fsum_reference([rows[0]])


def near_midpoint(rng: np.random.Generator, n: int, base: int) -> np.ndarray:
    """n terms summing to within |e| of the midpoint 1.5 2^base + 2^(base - 53).

    The pairs +-x, all residual after one extraction, cancel exactly, but a
    float sum of them errs by more than |e| about half the time, and then
    crosses the midpoint unless the bound says it could.
    """
    pairs = rng.standard_normal((n - 3) // 2) * 2.0 ** (base - 45)
    e = rng.choice((-1.0, 1.0)) * 2.0 ** (base - 53 - int(rng.integers(25, 50)))
    head = [1.5 * 2.0**base, 2.0 ** (base - 53), e]
    return rng.permutation(np.concatenate([head, pairs, -pairs, np.zeros((n - 3) % 2)]))


@st.composite
def long_sums(draw):
    """One to three sums of one length n in [2^10, 2^16], formed by numpy
    from a drawn seed, each one of eight kinds.  Random lengths are mostly
    ones k = 2^floor(log2(n) / 2) does not divide."""
    n = draw(st.one_of(st.sampled_from((1 << 10, 3 << 10, 1 << 13, 1 << 14, 1 << 16)), st.integers(1 << 10, 1 << 16)))
    base = draw(st.integers(-1000, 900))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("values", "wide", "ladder", "midpoint", "near", "cancel", "zeros", "dense")))
        if kind == "values":
            # integrand values about one scale, as the rule means sum them
            row = (1.0 + 0.1 * rng.standard_normal(n)) * 2.0**base
        elif kind == "wide":
            row = rng.standard_normal(n) * 2.0 ** rng.integers(base - 60, base + 1, n).astype(float)
        elif kind == "ladder":
            # +-2^(base - k): sums of these land on and near exact midpoints
            row = rng.choice((-1.0, 1.0), n) * 2.0 ** (base - rng.integers(0, 111, n).astype(float))
        elif kind == "midpoint":
            # 2^base +- 2^(base - 53) is a midpoint between two floats; pairs
            # far below it cancel, and one last term, of either sign or zero,
            # decides the rounding
            tiny = rng.integers(1, 1 << 20, (n - 3) // 2) * 2.0 ** (base - 120)
            last = rng.choice((-1.0, 0.0, 1.0), 1 + (n - 3) % 2) * 2.0 ** (base - 130)
            head = [2.0**base, rng.choice((-1.0, 1.0)) * 2.0 ** (base - 53)]
            row = rng.permutation(np.concatenate([head, tiny, -tiny, last]))
        elif kind == "near":
            row = near_midpoint(rng, n, base)
        elif kind == "cancel":
            # x and -x pairs: exact zero sums
            half = rng.standard_normal(n // 2) * 2.0**base
            row = rng.permutation(np.concatenate([half, -half, np.zeros(n % 2)]))
        elif kind == "zeros":
            row = rng.choice((0.0, -0.0), n)
        else:
            # n terms of one sign just below 2^base: the sum nears n 2^base
            sign = rng.choice((-1.0, 1.0))
            row = sign * (2.0**base - rng.integers(1, 1 << 12, n) * 2.0 ** (base - 53))
        rows.append(row.tolist())
    return rows


@settings(max_examples=100, deadline=None)
@given(long_sums())
def test_one_extraction_sums_equal_fsum_bitwise(rows):
    # sums of one block, along the rows (copied and in place) and, cut to
    # 64 terms and repeated, down the columns: one extraction where it
    # settles them, a second where it does not
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fsum_module, "SHORT_TERMS", 0)
        assert bits(fsum_rows(np.array(rows))) == fsum_reference(rows)
        assert bits(given_up_sums(rows)) == fsum_reference(rows)
        short = [row[:64] for row in rows] * 65
        assert bits(given_up_sums(short)) == fsum_reference(short)


def test_near_midpoint_sums_equal_fsum_bitwise(monkeypatch):
    # a float sum of the residuals crosses the midpoint in about one row in
    # ten here, so a bound too small to see that rounds those rows wrongly
    monkeypatch.setattr(fsum_module, "SHORT_TERMS", 0)
    rng = np.random.default_rng(19)
    for _ in range(100):
        row = near_midpoint(rng, int(rng.integers(1 << 10, 1 << 13)), int(rng.integers(-800, 800))).tolist()
        assert bits(fsum_rows(np.array([row]))) == bits(given_up_sums([row])) == fsum_reference([row])


def test_long_rows_and_streams():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, (1 << 17) + 3)) * np.exp(rng.uniform(-30, 30, (2, 1)))
    rows = a.tolist()
    assert bits(fsum_rows(a)) == fsum_reference(rows)
    assert bits([fsum_blocks(lambda: (a[0, lo : lo + 1000] for lo in range(0, a.shape[1], 1000)))]) == (
        fsum_reference(rows[:1])
    )


@pytest.mark.parametrize(
    "sizes",
    [[1 << 14] * 4, [1 << 14] * 2 + [1], [1 << 14] * 4 + [1], [(1 << 16) + 1], [1, (1 << 16) - 1, 1 << 14],
     [4097, 12289, 65535, 3, 30001], [(1 << 15) + 3] * 5, [(1 << 16) + 1] * 3, [0, 1 << 14, 0, 40000]],
)
def test_blocks_straddling_block_terms_equal_fsum_bitwise(sizes):
    # blocks of 2^14, odd sizes, and totals just past 2^16 are joined into
    # pieces of BLOCK_TERMS whose edges fall inside the blocks; each block
    # is a view of one buffer that the next block overwrites
    rng = np.random.default_rng(sum(sizes))
    total = sum(sizes)
    for terms in (
        1.0 + 0.1 * rng.standard_normal(total),
        rng.standard_normal(total) * 2.0 ** rng.integers(-60, 1, total).astype(float),
        near_midpoint(rng, total, 40),
    ):
        buf = np.empty(max(sizes))
        cuts = np.cumsum([0] + sizes)

        def blocks():
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                buf[: hi - lo] = terms[lo:hi]
                yield buf[: hi - lo]

        assert bits([fsum_blocks(blocks)]) == fsum_reference([terms.tolist()])


def test_joined_pieces_are_whole_and_share_no_memory():
    # _reduce holds two pieces before it reduces either, so a piece that
    # shared memory with the next would be overwritten under it
    blocks = [np.full(1 << 14, float(k)) for k in range(9)] + [np.full(5, 9.0)]
    pieces = list(fsum_module._joined(iter(blocks)))
    assert [len(x) for x in pieces] == [1 << 16, 1 << 16, (1 << 14) + 5]
    assert all(x.shape[1:] == (1,) for x in pieces)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(pieces) for b in pieces[i + 1 :])
    assert np.concatenate(pieces)[:, 0].tolist() == np.concatenate(blocks).tolist()
    # the terms of two different pieces in flight: 2^16 ones, then 2^16
    # terms of 2^-40 that a shared buffer would count twice
    two = [np.ones(1 << 14)] * 4 + [np.full(1 << 14, 2.0**-40)] * 4 + [np.array([3.0])]
    assert fsum_blocks(lambda: iter(two)) == math.fsum(np.concatenate(two).tolist())


def test_sum_of_one_joined_piece_settles_after_one_extraction(monkeypatch):
    # 2^15 to 2^16 integrand values fed in blocks of 2^14 form one piece,
    # which one extraction settles; longer sums take a second per piece
    second = count_calls(monkeypatch, fsum_module, "_last")
    fallbacks = count_calls(monkeypatch, fsum_module, "_fallback")
    rng = np.random.default_rng(7)
    for total in ((1 << 15) + 1, 3 << 14, 1 << 16):
        terms = 1.0 + 0.1 * rng.standard_normal(total)
        blocks = lambda: (terms[lo : lo + (1 << 14)] for lo in range(0, total, 1 << 14))  # noqa: E731
        assert bits([fsum_blocks(blocks)]) == fsum_reference([terms.tolist()])
    assert second == [] and fallbacks == []
    terms = 1.0 + 0.1 * rng.standard_normal((1 << 16) + 1)
    assert bits([fsum_blocks(lambda: iter([terms]))]) == fsum_reference([terms.tolist()])
    assert len(second) == 3


def test_empty_and_degenerate_shapes():
    assert fsum_rows(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
    assert fsum_rows(np.zeros((0, 4))).shape == (0,)
    assert bits([fsum_blocks(lambda: iter([]))]) == bits([0.0])
    assert bits([fsum_blocks(lambda: iter([np.zeros(0), np.array([-0.0])]))]) == bits([math.fsum([-0.0])])


def test_non_finite_rows_go_to_fsum(monkeypatch):
    monkeypatch.setattr(fsum_module, "SHORT_TERMS", 0)
    rows = [[math.inf, 1.0], [1.0, 2.0], [math.nan, 0.0], [1e308, 1e308 * -0.5]]
    for got in (fsum_rows(np.array(rows)), given_up_sums(rows)):
        assert got[0] == math.inf and got[1] == 3.0 and math.isnan(got[2])
        assert got[3] == math.fsum(rows[3])


def test_forced_fallback_is_fsum(monkeypatch):
    # s + t is an exact midpoint and the last residual decides the rounding,
    # which the certificate leaves to math.fsum: once above 1.0, and once
    # below it, where the gap to the next float down is half as wide
    monkeypatch.setattr(fsum_module, "SHORT_TERMS", 0)
    calls = count_calls(monkeypatch, fsum_module, "_fallback")
    rows = [[1.0, 2.0**-53, 2.0**-110], [1.0, -(2.0**-54), -(2.0**-110)], [1.0, 2.0, 0.5]]
    got = fsum_rows(np.array(rows))
    assert len(calls) == 2
    assert bits(got) == fsum_reference(rows)
    assert got[:2].tolist() == [1.0 + 2.0**-52, 1.0 - 2.0**-53]
    assert fsum_blocks(lambda: iter([np.array(rows[0])])) == 1.0 + 2.0**-52
    assert len(calls) == 3
    # rows given up are summed in place, so the rows are asked for again
    # when two of them are unsettled, and only those two
    asked = []
    a = np.array(rows)

    def terms(i):
        asked.append(i.tolist())
        return a[i]

    given = a.copy()
    assert bits(fsum_rows(given, terms)) == fsum_reference(rows)
    assert asked == [[0, 1]] and len(calls) == 5
    assert not np.array_equal(given, a)


# long rows lie laid out for the passes in C order, and short ones in F
# order (the transpose of a C array)
LAYOUTS = [((8, 512), "C"), ((512, 8), "F")]


@pytest.mark.parametrize("shape, order", LAYOUTS)
def test_rows_given_up_are_summed_in_place(shape, order):
    # every sum settles here, so the rows are never asked for again
    a = np.random.default_rng(11).standard_normal(shape)
    given = np.array(a, order=order)
    asked = []
    assert bits(fsum_rows(given, lambda i: asked.append(i) or a[i])) == fsum_reference(a.tolist())
    assert asked == [] and not np.array_equal(given, a)


@pytest.mark.parametrize("shape, order", LAYOUTS)
def test_rows_in_another_layout_are_summed_in_a_copy(shape, order):
    a = np.random.default_rng(12).standard_normal(shape)
    other = "F" if order == "C" else "C"
    wide = np.repeat(a, 2, axis=1)
    locked = np.array(a, order=order)
    locked.flags.writeable = False
    # the other order, a strided view and a read-only array are not summed
    # where they lie, even when given up; nor is any array that is not
    for given, again in [
        (np.array(a, order=other), lambda i: a[i]),
        (wide[:, ::2], lambda i: a[i]),
        (locked, lambda i: a[i]),
        (np.array(a, order=order), None),
    ]:
        assert bits(fsum_rows(given, again)) == fsum_reference(a.tolist())
        assert np.array_equal(given, a)


@pytest.mark.parametrize("shape, order", LAYOUTS)
def test_unsettled_rows_given_up_are_formed_again(monkeypatch, shape, order):
    # the odd rows are left unsettled: again is called once, with just those
    a = np.random.default_rng(13).standard_normal(shape)
    settled = fsum_module._settled
    monkeypatch.setattr(
        fsum_module, "_settled", lambda *parts: settled(*parts) & (np.arange(len(parts[0])) % 2 == 0)
    )
    asked = []
    got = fsum_rows(np.array(a, order=order), lambda i: asked.append(i.tolist()) or a[i])
    assert bits(got) == fsum_reference(a.tolist())
    assert asked == [list(range(1, len(a), 2))]


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
    calls = count_calls(monkeypatch, fsum_module, "_fallback")
    got = {k: v.hex() if isinstance(v, float) else v for k, v in report().to_dict().items()}
    assert got == expected and len(calls) >= 64


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
    set_block_nodes(monkeypatch, block)
    # the index blocks are of the patched size: ceil(2^17 / block) of them
    assert index_block_count(17) == -(-(1 << 17) // block)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fsum_module, "_settled", lambda s, *rest: np.zeros(len(s), dtype=bool))
        calls = count_calls(mp, fsum_module, "_fallback")
        assert extended_rule_value(pair, f).hex() == expected.hex()
        assert len(calls) == 1
    assert extended_rule_value(pair, EdgeFn(2, math.inf)) == math.inf
    assert math.isnan(extended_rule_value(pair, EdgeFn(2, math.nan)))
    finite = EdgeFn(2, 1.0)
    assert extended_rule_value(pair, finite).hex() == (math.fsum(finite.eval_batch(xs).tolist()) / n).hex()


class TestFallbackCount:
    """A weakened certificate still gives the right sums, only slowly; these
    counts are what shows it."""

    def count(self, fn) -> int:
        with pytest.MonkeyPatch.context() as mp:
            calls = count_calls(mp, fsum_module, "_fallback")
            fn()
            return len(calls)

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

    def test_scalar_moments_at_m0_with_2_18_shifts(self):
        # the moment and identity sums span many blocks and cancel: each
        # block takes two extractions, and the totals settle
        pair = EmbeddedPair(0, 18, korobov_vector(17797, 3, 18))
        assert self.count(lambda: moments_scalar_shift(pair, ProductBernoulliFn(3))) <= 2

    def test_extended_rule_value_at_2_18_nodes(self):
        pair = EmbeddedPair(4, 14, korobov_vector(1267, 3, 18))
        assert self.count(lambda: extended_rule_value(pair, ProductBernoulliFn(3))) <= 2

    def test_grid_estimate_replicate(self):
        # one replicate of `estimate --scheme grid --s 3 --m 13 --r 13`
        rule = Rank1Rule(13, korobov_vector(17797, 3, 13))
        shift = GridShift((1234, 5678, 8191), 13)
        assert self.count(lambda: eval_grid_shifted(rule, ProductBernoulliFn(3), shift)) <= 2



# the replicate shapes of the estimate benchmark: (scheme, s, m, r, q)
ESTIMATE_SHAPES = (
    ("grid", 3, 13, 13, 32), ("grid", 2, 13, 13, 16), ("grid", 3, 14, 14, 16), ("grid", 2, 12, 12, 32),
    ("scalar", 3, 12, 4, 8), ("scalar", 2, 13, 5, 16), ("scalar", 3, 14, 4, 16), ("scalar", 2, 12, 6, 32),
    ("ideal", 3, 12, 1, 8), ("ideal", 2, 13, 1, 16), ("ideal", 3, 14, 1, 16), ("ideal", 2, 12, 1, 32),
)
ESTIMATE_ELLS = (17797, 1267, 12915, 7163, 26245, 23365, 3699, 5709)


def estimate_replicates(scheme: str, s: int, m: int, r: int, q: int, ell: int, seed: int) -> list[float]:
    """The q replicates of `latshift estimate` on these options and seed:N bits."""
    src, f = SeededBitSource(seed), ProductBernoulliFn(s)
    if scheme == "scalar":
        pair = EmbeddedPair(m, s * r, korobov_vector(ell, s, m + s * r))
        return scalar_evaluator(pair, f)([ScalarShift(src.draw(s * r), s * r) for _ in range(q)])
    # an ideal replicate is a grid replicate at 53 bits a coordinate
    r = 53 if scheme == "ideal" else r
    rule = Rank1Rule(m, korobov_vector(ell, s, m))
    return grid_evaluator(rule, f, r)([GridShift.from_word(src.draw(s * r), r, s) for _ in range(q)])


def test_estimate_replicates_settle_after_one_extraction(monkeypatch):
    # 1920 replicate sums of 2^12 to 2^14 terms; a sum extracted a second
    # time is one of the `a` entries _last receives
    fallbacks = count_calls(monkeypatch, fsum_module, "_fallback")
    second = count_calls(monkeypatch, fsum_module, "_last")
    sums = 0
    for shape in ESTIMATE_SHAPES:
        for seed, ell in enumerate(ESTIMATE_ELLS):
            sums += len(estimate_replicates(*shape, ell, seed))
    again = sum(len(args[2]) for args in second)
    assert sums == 1920 and fallbacks == []
    assert again <= 0.05 * sums, again
