"""The vectorized node kernel against the per-point references in conftest."""

import math
import tracemalloc

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
    eval_scalar_shifted,
    grid_evaluator,
    moments_grid_shift,
    real_evaluator,
    rectangle_rule_mean,
    scalar_evaluator,
)
from latshift.lattice import as_uint64, displace, lattice_numerators
from latshift.moments import chunked_map
from latshift.shifts import DisplacedBlocks, coset_blocks, coset_offsets

from conftest import coset_node, dyadic_add, product_bernoulli_point, rel_err

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
    t = max(m, r)
    steps = [c << (t - m) for c in z.components]
    offsets = as_uint64(shift.nums)[:, None] << np.uint64(t - r)
    nums = displace(lattice_numerators(steps, t, rule.n_points), offsets, t)
    v = DyadicPoint(shift.nums, r)
    points = [dyadic_add(rule.node(j), v) for j in range(rule.n_points)]
    assert nums[:, :, 0].T.tolist() == [list(p.nums) for p in points]
    f = ProductBernoulliFn(s)
    values = [product_bernoulli_point(p.as_floats()) for p in points]
    reference = 1.0 + math.fsum(x - 1.0 for x in values) / rule.n_points
    assert eval_grid_shifted(rule, f, shift) == reference


@PROPERTY
@given(configs(max_m=4), st.integers(1, 9))
def test_coset_blocks_match_per_point_and_single_shift(cfg, block):
    s, m, r, z = cfg
    pair = EmbeddedPair(m, s * r, z)
    f = ProductBernoulliFn(s)
    n = 1 << m
    blocks = coset_blocks(pair, f, block)
    values = chunked_map(lambda lo, hi: blocks.means(coset_offsets(pair, lo, hi)), 1 << pair.sr, block)
    for w, value in enumerate(values.tolist()):
        assert value == eval_scalar_shifted(pair, f, ScalarShift(w, pair.sr))
        points = [coset_node(pair, j, w) for j in range(n)]
        reference = 1.0 + math.fsum(product_bernoulli_point(p.as_floats()) - 1.0 for p in points) / n
        assert value == reference


@PROPERTY
@given(configs(max_m=3))
def test_grid_shift_mean_equals_rectangle_rule(cfg):
    s, m, r, z = cfg
    r = max(r, m)
    f = ProductBernoulliFn(s)
    report = moments_grid_shift(Rank1Rule(m, z), f, r)
    assert rel_err(report.mean, rectangle_rule_mean(f, s, r)) < 1e-12


class TestKernelGuard:
    def test_refuses_node_count_above_guard(self):
        with pytest.raises(GuardLimitError, match="guard"):
            lattice_numerators([1], 40, 1 << 40)

    def test_refuses_blocks_above_guard(self):
        with pytest.raises(GuardLimitError):
            DisplacedBlocks([1], 16, 1 << 16, ProductBernoulliFn(1), 1 << 11)

    def test_refuses_depth_beyond_numerator_dtype(self):
        with pytest.raises(GuardLimitError, match="64-bit"):
            lattice_numerators([1], 65, 4)

    def test_refuses_coordinates_above_guard_after_the_other_checks(self):
        # 5000 coordinates of 2^14 nodes: within the node guard, refused by
        # the coordinate count; a count or depth refused before keeps its message
        steps = [1] * 5000
        with pytest.raises(GuardLimitError, match="^81920000 node coordinates exceed the 2"):
            lattice_numerators(steps, 14, 1 << 14)
        with pytest.raises(GuardLimitError, match="^81920000 node coordinates exceed the 2"):
            DisplacedBlocks(steps, 14, 1 << 10, ProductBernoulliFn(1), 16)
        with pytest.raises(GuardLimitError, match="64-bit"):
            lattice_numerators(steps, 65, 1 << 14)
        with pytest.raises(GuardLimitError, match="^134217728 nodes exceed"):
            DisplacedBlocks(steps, 14, 1 << 16, ProductBernoulliFn(1), 1 << 11)
        # 4096 coordinates of 2^14 nodes are exactly at the guard
        assert lattice_numerators([1] * 4096, 14, 1 << 14).shape == (4096, 1 << 14)

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
    return grid_evaluator(rule, f, r), scalar_evaluator(pair, f), real_evaluator(rule, f)


class TestPreparedEvaluators:
    @PROPERTY
    @given(evaluator_cases())
    def test_replicates_match_per_point_reference_and_fresh_evaluators(self, case):
        s, m, r, z, shifts = case
        rule, pair, f = Rank1Rule(m, z), EmbeddedPair(m, s * r, z), ProductBernoulliFn(s)
        prepared = _prepared(rule, pair, f, r)
        for v, w, u in shifts:
            got = [ev(x) for ev, x in zip(prepared, (v, w, u))]
            assert all(type(x) is float for x in got)
            assert got == [ev(x) for ev, x in zip(_prepared(rule, pair, f, r), (v, w, u))]
            nodes = (
                [dyadic_add(rule.node(j), DyadicPoint(v.nums, r)).as_floats() for j in range(rule.n_points)],
                [coset_node(pair, j, w.wnum).as_floats() for j in range(rule.n_points)],
                _real_points(rule, u),
            )
            assert got == [_reference_mean(points) for points in nodes]

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
        alone_a = [[ev(x) for ev, x in zip(a, triple)] for triple in shifts]
        alone_b = [[ev(x) for ev, x in zip(b, triple)] for triple in shifts]
        mixed_a, mixed_b = [], []
        for triple in reversed(shifts):
            mixed_b.append([ev(x) for ev, x in zip(b, triple)])
            mixed_a.append([ev(x) for ev, x in zip(a, triple)])
        assert mixed_a[::-1] == alone_a
        assert mixed_b[::-1] == alone_b

    @PROPERTY
    @given(evaluator_cases())
    def test_mismatched_shifts_raise(self, case):
        s, m, r, z, _ = case
        rule, pair, f = Rank1Rule(m, z), EmbeddedPair(m, s * r, z), ProductBernoulliFn(s)
        grid, scalar, real = _prepared(rule, pair, f, r)
        with pytest.raises(ValueError, match="dimension"):
            grid(GridShift((0,) * (s + 1), r))
        with pytest.raises(ValueError, match="bit-depth"):
            grid(GridShift((0,) * s, r + 1))
        with pytest.raises(ValueError, match="bit-depth"):
            scalar(ScalarShift(0, s * r + 1))
        with pytest.raises(ValueError, match="dimension"):
            real(RealShift((0.0,) * (s + 1)))

    @pytest.mark.parametrize("build", [
        lambda z, f: grid_evaluator(Rank1Rule(40, z), f, 4),
        lambda z, f: scalar_evaluator(EmbeddedPair(40, 4, z), f),
        lambda z, f: real_evaluator(Rank1Rule(40, z), f),
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
