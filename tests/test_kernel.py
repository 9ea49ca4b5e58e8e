"""The vectorized node kernel against the per-point references in conftest."""

import math

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
    ScalarShift,
    eval_grid_shifted,
    eval_scalar_shifted,
    moments_grid_shift,
    rectangle_rule_mean,
)
from latshift.lattice import as_uint64, lattice_numerators
from latshift.moments import chunked_map
from latshift.shifts import coset_means

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
    nums = lattice_numerators(steps, t, rule.n_points, as_uint64(shift.nums)[:, None] << np.uint64(t - r))
    v = DyadicPoint(shift.nums, r)
    points = [dyadic_add(rule.node(j), v) for j in range(rule.n_points)]
    assert nums[:, 0].T.tolist() == [list(p.nums) for p in points]
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
    values = chunked_map(lambda lo, hi: coset_means(pair, f, lo, hi), 1 << pair.sr, block)
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
        offsets = np.zeros((1, 1 << 11), dtype=np.uint64)
        with pytest.raises(GuardLimitError):
            lattice_numerators([1], 16, 1 << 16, offsets)

    def test_refuses_depth_beyond_numerator_dtype(self):
        with pytest.raises(GuardLimitError, match="64-bit"):
            lattice_numerators([1], 65, 4)

    def test_depth_64_wraps_exactly(self):
        z = (1 << 64) - 1
        nums = lattice_numerators([z], 64, 4)
        assert nums[0].tolist() == [(j * z) % (1 << 64) for j in range(4)]
