"""The vectorized node kernel against the per-point references in conftest."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshift import (
    DyadicPoint,
    EmbeddedPair,
    GeneratingVector,
    GridShift,
    GuardLimitError,
    ProductBernoulliFn,
    Rank1Rule,
    RealShift,
    ScalarShift,
    eval_grid_shifted,
    eval_real_shifted,
    eval_scalar_shifted,
    grid_evaluator,
    moments_grid_shift,
    rectangle_rule_mean,
    scalar_evaluator,
)
from latshift import errors as errors_module
from latshift import shifts as shifts_module
from latshift.lattice import as_uint64, lattice_numerators
from latshift.shifts import (
    BLOCK_NODES,
    DisplacedBlocks,
    coset_blocks,
    coset_offsets,
    grid_blocks,
)

from conftest import coset_node, count_calls, dyadic_add, product_bernoulli_point, rel_err

PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def configs(draw, max_m=5, max_r=4):
    """(s, m, r, z) with odd z known to m + s*r bits and s*r <= 8."""
    s = draw(st.integers(1, 3))
    m = draw(st.integers(0, max_m))
    r = draw(st.integers(0, min(max_r, 8 // s)))
    t = max(m + s * r, 1)
    z = tuple(draw(st.integers(0, (1 << (t - 1)) - 1)) * 2 + 1 for _ in range(s))
    return s, m, r, GeneratingVector(z, t)


@PROPERTY
@given(configs())
def test_rule_nodes_and_values_match_per_point(cfg):
    s, m, _, z = cfg
    rule = Rank1Rule(m, z)
    f = ProductBernoulliFn(s)
    nums = lattice_numerators(z.components, m, rule.n_points)
    points = [rule.node(j) for j in range(rule.n_points)]
    assert nums.T.tolist() == [list(p.nums) for p in points]
    values = f.eval_batch(nums * (1.0 / rule.n_points))
    assert values.tolist() == [product_bernoulli_point(p.as_floats()) for p in points]


@PROPERTY
@given(configs(), st.data())
def test_grid_shifted_nodes_match_dyadic_addition(cfg, data):
    s, m, r, z = cfg
    rule = Rank1Rule(m, z)
    shift = GridShift(tuple(data.draw(st.integers(0, (1 << r) - 1)) for _ in range(s)), r)
    f = ProductBernoulliFn(s)
    blocks = grid_blocks(rule, f, r)
    offsets = as_uint64(shift.nums)[:, None] << np.uint64(blocks.t - r)
    v = DyadicPoint(shift.nums, r)
    points = [dyadic_add(rule.node(j), v) for j in range(rule.n_points)]
    values = [product_bernoulli_point(p.as_floats()) for p in points]
    # one offset column and n >= 1 nodes: the block is shift-major, (1, n)
    assert blocks.values(offsets).tolist() == [[x - 1.0 for x in values]]
    reference = 1.0 + math.fsum(x - 1.0 for x in values) / rule.n_points
    assert eval_grid_shifted(rule, f, shift) == reference


@PROPERTY
@given(configs(max_m=4), st.integers(1, 9))
def test_coset_blocks_match_per_point_and_single_shift(cfg, block):
    s, m, r, z = cfg
    pair = EmbeddedPair(m, s * r, z)
    f = ProductBernoulliFn(s)
    n = 1 << m
    blocks = coset_blocks(pair, f)
    # the stream at 1 to 9 columns a block, the last one short for most
    blocks.width = block
    offsets = lambda lo, hi: coset_offsets(pair, np.arange(lo, hi, dtype=np.uint64))  # noqa: E731
    values = [x for means in blocks.stream(offsets, 1 << pair.sr) for x in means.tolist()]
    for w, value in enumerate(values):
        assert value == eval_scalar_shifted(pair, f, ScalarShift(w, pair.sr))
        points = [coset_node(pair, j, w) for j in range(n)]
        reference = 1.0 + math.fsum(product_bernoulli_point(p.as_floats()) - 1.0 for p in points) / n
        assert value == reference


@pytest.mark.parametrize("t", [5, 53, 54, 60, 64])
@pytest.mark.parametrize("n, B", [(8, 3), (4, 4), (2, 7)])
def test_values_equal_per_point_nodes_in_both_layouts(t, n, B):
    # shift-major (B, n) where n >= B, node-major (n, B) where n < B, and
    # the values one row a column in both; the first column puts a
    # numerator of 2^t - 1 on every coordinate of node 0, which past 53
    # bits rounds to 1.0 and must read 0.0
    s = 3
    rng = random.Random(1000 * t + 10 * n + B)
    z = GeneratingVector(tuple(rng.randrange(1 << t) | 1 for _ in range(s)), t)
    near_one = [(1 << t) - 1, (1 << t) - (1 << max(t - 54, 0))]
    cols = [((1 << t) - 1,) * s] + [
        tuple(rng.choice([*near_one, rng.randrange(1 << t)]) for _ in range(s)) for _ in range(B - 1)
    ]
    seen = []

    class Recording(ProductBernoulliFn):
        def eval_batch(self, xs):
            seen.append(xs.copy())
            return super().eval_batch(xs)

    offsets = as_uint64(v for c in cols for v in c).reshape(B, s).T
    values = DisplacedBlocks(z.components, t, n, Recording(s)).values(offsets)
    rule = Rank1Rule(t, z)
    points = [[dyadic_add(rule.node(j), DyadicPoint(c, t)).as_floats() for j in range(n)] for c in cols]
    (xs,) = seen
    assert values.shape == (B, n)
    if n >= B:
        assert xs.shape == (s, B, n) and values.flags.c_contiguous
        by_column = xs.transpose(1, 2, 0)
    else:
        # the rows of a node-major block are the transpose of a C-contiguous (n, B) block
        assert xs.shape == (s, n, B) and values.T.flags.c_contiguous
        by_column = xs.transpose(2, 1, 0)
    assert by_column.tolist() == [[list(p) for p in column] for column in points]
    assert values.tolist() == [[product_bernoulli_point(p) - 1.0 for p in column] for column in points]
    assert xs.max() < 1.0
    # node 0 of column 0, in either layout
    assert xs[:, 0, 0].tolist() == [0.0 if t > 53 else 1.0 - 2.0**-t] * s


@PROPERTY
@given(configs(max_m=3))
def test_grid_shift_mean_equals_rectangle_rule(cfg):
    s, m, r, z = cfg
    r = max(r, m)
    f = ProductBernoulliFn(s)
    report = moments_grid_shift(Rank1Rule(m, z), f, r)
    assert rel_err(report.mean, rectangle_rule_mean(f, s, r)) < 1e-12


@pytest.mark.parametrize("s", [1, 3, 4096, 4097, 1 << 20])
def test_blocks_size_themselves_and_are_refused_only_above_the_guard(monkeypatch, s):
    # n nodes of s coordinates: blocks are built where s * n <= 2^21, which
    # holds at most 16 MB of numerators, and refused where s * n > 2^26
    z = GeneratingVector((1,) * s, 16)
    made = []

    class Unevaluated(ProductBernoulliFn):
        # the index blocks evaluate their first block; its values do not matter here
        def eval_batch(self, xs):
            return np.zeros(xs.shape[1:])

    f = Unevaluated(s)

    class Recorded(DisplacedBlocks):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(shifts_module, "DisplacedBlocks", Recorded)

    def index_blocks(m):
        next(shifts_module.index_blocks(z.components, m, f))
        return made[-1]

    for m in [0, 1, 4, 8, 14, 15]:
        rule, pair = Rank1Rule(m, z), EmbeddedPair(m, 0, z)
        builders = {
            "grid": lambda: grid_blocks(rule, f, m),
            "coset": lambda: coset_blocks(pair, f),
            "index": lambda: index_blocks(m),
        }
        for name, build in builders.items():
            # index blocks hold at most BLOCK_NODES of the 2^m nodes
            n = min(1 << m, BLOCK_NODES) if name == "index" else 1 << m
            if s * n > 1 << 26:
                with pytest.raises(GuardLimitError) as refused:
                    lattice_numerators(z.components, m, n)
                with pytest.raises(GuardLimitError) as got:
                    build()
                assert str(got.value) == str(refused.value), (name, m)
            elif s * n <= 1 << 21:
                blocks = build()
                assert blocks.n == n, (name, m)
                assert blocks.width == max(1, min(BLOCK_NODES, (1 << 26) // s) // n), (name, m)


class TestKernelGuard:
    def test_refuses_node_count_above_guard(self):
        with pytest.raises(GuardLimitError, match="guard"):
            lattice_numerators([1], 40, 1 << 40)

    def test_refuses_blocks_above_guard(self):
        # a block takes at least one column, so its nodes pass the guard
        # only where the base nodes do
        with pytest.raises(GuardLimitError, match="^134217728 nodes exceed"):
            DisplacedBlocks([1], 27, 1 << 27, ProductBernoulliFn(1))

    def test_refuses_depth_beyond_numerator_dtype(self):
        with pytest.raises(GuardLimitError, match="64-bit"):
            lattice_numerators([1], 65, 4)

    def test_refuses_coordinates_above_guard_after_the_other_checks(self, monkeypatch):
        # 5000 coordinates of 2^14 nodes: within the node guard, refused by
        # the coordinate count; a count or depth refused before keeps its message
        steps = [1] * 5000
        with pytest.raises(GuardLimitError, match="^81920000 node coordinates exceed the 2"):
            lattice_numerators(steps, 14, 1 << 14)
        with pytest.raises(GuardLimitError, match="^81920000 node coordinates exceed the 2"):
            DisplacedBlocks(steps, 14, 1 << 14, ProductBernoulliFn(1))
        with pytest.raises(GuardLimitError, match="64-bit"):
            lattice_numerators(steps, 65, 1 << 14)
        with pytest.raises(GuardLimitError, match="^134217728 nodes exceed"):
            DisplacedBlocks(steps, 14, 1 << 27, ProductBernoulliFn(1))
        # the guard reads GUARD_BITS when called: at 2^12, 16 coordinates of
        # 2^8 nodes are exactly at it, and 17 are one coordinate above
        monkeypatch.setattr(errors_module, "GUARD_BITS", 12)
        assert lattice_numerators([1] * 16, 14, 1 << 8).shape == (16, 1 << 8)
        with pytest.raises(GuardLimitError, match=r"^4352 node coordinates exceed the 2\^12 guard$"):
            lattice_numerators([1] * 17, 14, 1 << 8)

    def test_depth_64_wraps_exactly(self):
        z = (1 << 64) - 1
        nums = lattice_numerators([z], 64, 4)
        assert nums[0].tolist() == [(j * z) % (1 << 64) for j in range(4)]


@st.composite
def evaluator_cases(draw):
    """(s, m, r, z, shifts): odd z known to m + s*r bits, and a list of
    (grid, scalar, real) shift triples; r spans r < m, r = m and r > m."""
    s = draw(st.integers(1, 4))
    m = draw(st.integers(0, 10))
    r = draw(st.integers(0, 12))
    t = max(m + s * r, 1)
    z = GeneratingVector(tuple(draw(st.integers(0, (1 << (t - 1)) - 1)) * 2 + 1 for _ in range(s)), t)
    shift = st.tuples(
        st.builds(GridShift, st.tuples(*[st.integers(0, (1 << r) - 1)] * s), st.just(r)),
        st.builds(ScalarShift, st.integers(0, (1 << (s * r)) - 1), st.just(s * r)),
        st.builds(RealShift, st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * s)),
    )
    return s, m, r, z, draw(st.lists(shift, min_size=1, max_size=4))


def _reference_mean(points) -> float:
    values = [product_bernoulli_point(xs) for xs in points]
    return 1.0 + math.fsum(v - 1.0 for v in values) / len(values)


def _real_points(rule: Rank1Rule, u: RealShift):
    for j in range(rule.n_points):
        xs = [a + b for a, b in zip(rule.node(j).as_floats(), u.u)]
        yield [x - 1.0 if x >= 1.0 else x for x in xs]


def _prepared(rule: Rank1Rule, pair: EmbeddedPair, f, r: int):
    return grid_evaluator(rule, f, r), scalar_evaluator(pair, f)


def _check_real(rule: Rank1Rule, f, u: RealShift) -> None:
    """The float reference of the ideal scheme against its per-point reference."""
    got = eval_real_shifted(rule, f, u)
    assert type(got) is float
    assert got == _reference_mean(_real_points(rule, u))


class TestPreparedEvaluators:
    @PROPERTY
    @given(evaluator_cases())
    def test_replicates_match_per_point_reference_and_fresh_evaluators(self, case):
        # each scheme takes all its shifts in one call; every mean equals a
        # fresh evaluator's on that shift alone, and the per-point reference
        s, m, r, z, shifts = case
        rule, pair, f = Rank1Rule(m, z), EmbeddedPair(m, s * r, z), ProductBernoulliFn(s)
        batched = [ev(list(xs)) for ev, xs in zip(_prepared(rule, pair, f, r), zip(*shifts))]
        for i, (v, w, u) in enumerate(shifts):
            got = [means[i] for means in batched]
            assert all(type(x) is float for x in got)
            assert got == [ev([x])[0] for ev, x in zip(_prepared(rule, pair, f, r), (v, w))]
            nodes = (
                [dyadic_add(rule.node(j), DyadicPoint(v.nums, r)).as_floats() for j in range(rule.n_points)],
                [coset_node(pair, j, w.wnum).as_floats() for j in range(rule.n_points)],
            )
            assert got == [_reference_mean(points) for points in nodes]
            _check_real(rule, f, u)

    @PROPERTY
    @given(evaluator_cases(), st.integers(0, 3))
    def test_interleaved_evaluators_share_no_buffers(self, case, dm):
        # a second rule of a different size over the same z: any value left
        # in a buffer by one evaluator would show in the other's results
        s, m, r, z, shifts = case
        f = ProductBernoulliFn(s)
        m2 = max(m - dm, 0)
        a = _prepared(Rank1Rule(m, z), EmbeddedPair(m, s * r, z), f, r)
        b = _prepared(Rank1Rule(m2, z), EmbeddedPair(m2, s * r, z), f, r)
        # the grid and scalar shifts of each triple; the real one has no evaluator
        pairs = [triple[:2] for triple in shifts]
        alone_a = [[ev([x])[0] for ev, x in zip(a, pair)] for pair in pairs]
        alone_b = [[ev([x])[0] for ev, x in zip(b, pair)] for pair in pairs]
        mixed_a, mixed_b = [], []
        for pair in reversed(pairs):
            mixed_b.append([ev([x])[0] for ev, x in zip(b, pair)])
            mixed_a.append([ev([x])[0] for ev, x in zip(a, pair)])
        assert mixed_a[::-1] == alone_a
        assert mixed_b[::-1] == alone_b

    @PROPERTY
    @given(evaluator_cases())
    def test_mismatched_shifts_raise(self, case):
        s, m, r, z, _ = case
        rule, pair, f = Rank1Rule(m, z), EmbeddedPair(m, s * r, z), ProductBernoulliFn(s)
        grid, scalar = _prepared(rule, pair, f, r)
        with pytest.raises(ValueError, match="dimension"):
            grid([GridShift((0,) * (s + 1), r)])
        with pytest.raises(ValueError, match="bit-depth"):
            grid([GridShift((0,) * s, r + 1)])
        with pytest.raises(ValueError, match="bit-depth"):
            scalar([ScalarShift(0, s * r + 1)])
        with pytest.raises(ValueError, match="dimension"):
            eval_real_shifted(rule, f, RealShift((0.0,) * (s + 1)))

    @pytest.mark.parametrize("build", [
        lambda z, f: grid_evaluator(Rank1Rule(40, z), f, 4),
        lambda z, f: scalar_evaluator(EmbeddedPair(40, 4, z), f),
        lambda z, f: eval_real_shifted(Rank1Rule(40, z), f, RealShift((0.0,))),
    ])
    def test_construction_above_guard_refused_before_allocating(self, build):
        z, f = GeneratingVector((1,), 44), ProductBernoulliFn(1)
        tracemalloc.start()
        try:
            with pytest.raises(GuardLimitError, match="guard"):
                build(z, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_depth_beyond_numerators_refused(self):
        f = ProductBernoulliFn(1)
        with pytest.raises(GuardLimitError, match="64-bit"):
            grid_evaluator(Rank1Rule(2, GeneratingVector((1,), 2)), f, 65)
        with pytest.raises(GuardLimitError, match="64-bit"):
            scalar_evaluator(EmbeddedPair(2, 63, GeneratingVector((1,), 65)), f)

    @pytest.mark.parametrize("t", [52, 53, 54, 60, 64])
    def test_coordinates_stay_below_one_at_any_depth(self, t):
        # past 53 bits a numerator within 2^(t-54) of 2^t rounds to 2^t when
        # cast to a float: the integrand gets the torus point nearest the
        # true coordinate, 0.0, never 1.0
        seen = []

        class Recording(ProductBernoulliFn):
            def eval_batch(self, xs):
                seen.extend(xs.ravel().tolist())
                return super().eval_batch(xs)

        f = Recording(1)
        nums = [(1 << t) - 1, (1 << t) - (1 << max(t - 54, 0)), 1 << (t - 1)]
        grid_evaluator(Rank1Rule(0, GeneratingVector((1,), 1)), f, t)([GridShift((v,), t) for v in nums])
        scalar_evaluator(EmbeddedPair(0, t, GeneratingVector((1,), t)), f)([ScalarShift(v, t) for v in nums])
        nearest = [float(Fraction(v, 1 << t)) for v in nums]
        assert seen == [x if x < 1.0 else 0.0 for x in nearest] * 2
        assert max(seen) < 1.0


class CountingFn(ProductBernoulliFn):
    """The Bernoulli product, counting its eval_batch calls."""

    def __init__(self, s: int) -> None:
        super().__init__(s)
        self.calls = 0

    def eval_batch(self, xs):
        self.calls += 1
        return super().eval_batch(xs)


class TestBatchedEvaluators:
    """One call evaluates all its shifts, max(1, 2^14 >> m) at a time."""

    @pytest.mark.parametrize("m, q, blocks", [
        (4, 1, [(1, 16)]),                       # one shift, shift-major
        (4, 37, [(37, 16)]),                     # more shifts than nodes: node-major, given transposed
        (12, 7, [(4, 4096), (3, 4096)]),         # q not a multiple of the width 4
        (13, 5, [(2, 8192), (2, 8192), (1, 8192)]),
        (14, 3, [(1, 16384)] * 3),               # width 1 at m = 14
        (15, 2, [(1, 32768)] * 2),               # and above it
    ])
    def test_blocks_equal_fresh_single_shifts_and_per_point(self, monkeypatch, m, q, blocks):
        s, r = 2, 4
        z = korobov_like(m + s * r)
        rule, pair, f = Rank1Rule(m, z), EmbeddedPair(m, s * r, z), ProductBernoulliFn(s)
        rng = random.Random(100 * m + q)
        triples = [
            (GridShift((rng.randrange(16), rng.randrange(16)), r), ScalarShift(rng.randrange(256), s * r),
             RealShift((rng.random(), rng.random())))
            for _ in range(q - 1)
        ]
        # the last shift repeats the first (or is the only one)
        triples.append(triples[0] if triples else (GridShift((3, 9), r), ScalarShift(77, s * r), RealShift((0.25, 0.8))))
        sums = count_calls(monkeypatch, shifts_module, "fsum_rows")
        batched = [ev(list(xs)) for ev, xs in zip(_prepared(rule, pair, f, r), zip(*triples))]
        assert [args[0].shape for args in sums] == blocks * 2
        monkeypatch.undo()
        for i, (v, w, u) in enumerate(triples):
            got = [means[i] for means in batched]
            assert all(type(x) is float for x in got)
            assert got == [ev([x])[0] for ev, x in zip(_prepared(rule, pair, f, r), (v, w))]
            nodes = (
                [dyadic_add(rule.node(j), DyadicPoint(v.nums, r)).as_floats() for j in range(rule.n_points)],
                [coset_node(pair, j, w.wnum).as_floats() for j in range(rule.n_points)],
            )
            assert got == [_reference_mean(points) for points in nodes]
            _check_real(rule, f, u)

    @pytest.mark.parametrize("where", [0, 5, 9])
    def test_bad_shift_anywhere_raises_before_any_evaluation(self, where):
        # m = 12: blocks of 4 shifts, so a late bad shift sits in the third block
        s, m, r = 2, 12, 4
        z = korobov_like(m + s * r)
        f = CountingFn(s)
        grid, scalar = _prepared(Rank1Rule(m, z), EmbeddedPair(m, s * r, z), f, r)
        cases = [
            (grid, GridShift((1, 2), r), GridShift((1, 2, 3), r), "dimension"),
            (grid, GridShift((1, 2), r), GridShift((1, 2), r + 1), "bit-depth"),
            (scalar, ScalarShift(5, s * r), ScalarShift(5, s * r + 1), "bit-depth"),
        ]
        for ev, good, bad, message in cases:
            shifts = [good] * 10
            shifts[where] = bad
            with pytest.raises(ValueError, match=message):
                ev(shifts)
            assert f.calls == 0
        assert len(grid([GridShift((1, 2), r)] * 10)) == 10 and f.calls == 3


def korobov_like(t: int) -> GeneratingVector:
    """An odd two-component vector known to t bits."""
    return GeneratingVector((1, 17797), t)
