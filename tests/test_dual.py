import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from latshift import (
    CumulantSet,
    DyadicPoint,
    GeneratingVector,
    GuardLimitError,
    ProductBernoulliFn,
    Rank1Rule,
    RealShift,
    TruncationBox,
    cp_variance_series,
    dual_points,
    eval_real_shifted,
    eval_rule,
    korobov_vector,
    mean_cumulants,
    shift_error_series,
    third_moment_series,
)
from latshift.functions import PeriodicFunction

from conftest import brute_force_duals, rel_err, variance_closed_form


class ConstantFn(PeriodicFunction):
    """f = 1: only the zero Fourier coefficient survives."""

    known_integral = 1.0

    def __init__(self, s):
        self._s = s

    @property
    def s(self):
        return self._s

    def eval(self, point):
        return 1.0

    def eval_real(self, xs):
        return 1.0

    def fourier_coeff(self, h):
        return 1.0 if not any(h) else 0.0

    def coefficient_tail_bound(self, bound, power):
        return 0.0


class NoModelFn(ConstantFn):
    fourier_coeff = PeriodicFunction.fourier_coeff
    coefficient_tail_bound = PeriodicFunction.coefficient_tail_bound


def pairwise_third_moment(duals, f, H):
    """Reference double sum over dual pairs: for each h, the k with
    l = h - k nonzero and inside the box, each coefficient evaluated afresh."""
    coeffs = [f.fourier_coeff(h) for h in duals]
    outer = []
    for h, ch in zip(duals, coeffs):
        inner = []
        for k, ck in zip(duals, coeffs):
            l = tuple(hi - ki for hi, ki in zip(h, k))
            if any(l) and all(-H <= li <= H for li in l):
                inner.append(ck * f.fourier_coeff(l))
        outer.append(ch * math.fsum(inner))
    return math.fsum(outer)


@st.composite
def rules_and_boxes(draw):
    """Small rules, including s = 1, the single-node m = 0 and depths past
    64 bits, with components near +-1 mod 2^m so large m still has duals."""
    s = draw(st.integers(1, 3))
    m = draw(st.integers(0, 5) | st.sampled_from([63, 64, 65]))
    t = max(m, 1)
    odd = st.integers(0, 4) | st.integers(0, 1 << 70)
    comps = [
        (draw(st.sampled_from([1, -1])) * (2 * draw(odd) + 1)) % (1 << t) for _ in range(s)
    ]
    H = draw(st.integers(1, {1: 9, 2: 5, 3: 3}[s]))
    return Rank1Rule(m, GeneratingVector(tuple(comps), t)), H


@settings(max_examples=40, deadline=None)
@given(rules_and_boxes())
def test_solver_and_third_moment_match_references(case):
    rule, H = case
    pts = dual_points(rule, TruncationBox(H))
    expected = sorted(brute_force_duals(rule, H))
    assert pts == expected
    assert all(type(hi) is int for h in pts for hi in h)
    f = ProductBernoulliFn(rule.s)
    value = third_moment_series(rule, f, TruncationBox(H)).value
    assert value == pairwise_third_moment(expected, f, H)


class TestDualPoints:
    def test_known_members(self):
        rule = Rank1Rule(3, GeneratingVector((1, 3), 3))
        duals = set(dual_points(rule, TruncationBox(8)))
        assert (5, 1) in duals
        assert (0, 8) in duals
        assert (1, 0) not in duals

    def test_count_matches_brute_force(self):
        rule = Rank1Rule(3, GeneratingVector((1, 3), 3))
        assert set(dual_points(rule, TruncationBox(8))) == brute_force_duals(rule, 8)

    def test_solver_equals_brute_force_grid(self):
        for s in (1, 2, 3):
            for m in (1, 3):
                rule = Rank1Rule(m, korobov_vector(17797, s, max(m, 1)))
                for H in (4, 9):
                    assert set(dual_points(rule, TruncationBox(H))) == brute_force_duals(
                        rule, H
                    ), (s, m, H)

    def test_membership_congruence(self):
        rule = Rank1Rule(4, korobov_vector(12915, 3, 4))
        n = rule.n_points
        pts = dual_points(rule, TruncationBox(10))
        assert pts
        for h in pts:
            assert sum(hi * zi for hi, zi in zip(h, rule.z.components)) % n == 0

    def test_closed_under_subtraction_within_box(self):
        rule = Rank1Rule(3, GeneratingVector((1, 5), 3))
        H = 10
        pts = set(dual_points(rule, TruncationBox(H)))
        sample = sorted(pts)[::7]
        for h in sample:
            for k in sample:
                diff = tuple(hi - ki for hi, ki in zip(h, k))
                if any(diff) and all(abs(d) <= H for d in diff):
                    assert diff in pts

    def test_degenerate_single_node_rule(self):
        rule = Rank1Rule(0, GeneratingVector((1,), 1))
        assert set(dual_points(rule, TruncationBox(2))) == {(-2,), (-1,), (1,), (2,)}

    def test_box_validation(self):
        with pytest.raises(ValueError):
            TruncationBox(0)

    def test_box_bound_keeps_int64_coordinates(self):
        rule = Rank1Rule(61, GeneratingVector((1,), 61))
        H = (1 << 62) - 1
        assert dual_points(rule, TruncationBox(H)) == [(-(1 << 61),), (1 << 61,)]
        with pytest.raises(ValueError):
            TruncationBox(1 << 62)

    def test_guard_on_prefix_count(self):
        # (2H+1)^(s-1) prefixes, or (2H+1)^s box points for a single node
        rule = Rank1Rule(2, korobov_vector(5, 3, 2))
        with pytest.raises(GuardLimitError, match="box prefixes"):
            dual_points(rule, TruncationBox(100000))
        single = Rank1Rule(0, GeneratingVector((1, 1, 1, 1), 1))
        with pytest.raises(GuardLimitError):
            dual_points(single, TruncationBox(45))  # 91^4 > 2^26


class TestShiftErrorSeries:
    def test_zero_shift_matches_direct_rule_error(self):
        f = ProductBernoulliFn(2)
        rule = Rank1Rule(3, GeneratingVector((1, 3), 3))
        direct = eval_rule(rule, f) - 1.0
        res = shift_error_series(rule, f, None, TruncationBox(512))
        assert abs(res.value - direct) <= res.tail_bound
        # coefficients are positive, so the truncated series is a lower bound
        assert res.value <= direct
        assert rel_err(res.value, direct) < 1e-2

    def test_series_increases_towards_direct_value(self):
        # duals with a zero coordinate make the dominant tail decay like
        # 1/H, so convergence is slow but monotone from below
        f = ProductBernoulliFn(2)
        rule = Rank1Rule(4, korobov_vector(17797, 2, 4))
        direct = eval_rule(rule, f) - 1.0
        values = [
            shift_error_series(rule, f, None, TruncationBox(H)).value for H in (16, 128, 1024)
        ]
        assert values[0] <= values[1] <= values[2] <= direct * (1 + 1e-12)
        assert rel_err(values[2], direct) < 1e-2

    def test_constant_function_gives_zero(self):
        rule = Rank1Rule(3, GeneratingVector((1, 3), 3))
        assert shift_error_series(rule, ConstantFn(2), None, TruncationBox(8)).value == 0.0

    def test_nonzero_shift_against_direct_evaluation(self):
        f = ProductBernoulliFn(2)
        rule = Rank1Rule(3, GeneratingVector((1, 3), 3))
        shift = DyadicPoint((3, 11), 4)
        from latshift import GridShift, eval_grid_shifted

        direct = eval_grid_shifted(rule, f, GridShift((3, 11), 4)) - 1.0
        res = shift_error_series(rule, f, shift, TruncationBox(256))
        assert abs(res.value - direct) <= res.tail_bound
        assert abs(res.value - direct) <= 2e-3 * abs(direct)

    def test_shift_argument_forms_are_equivalent(self):
        from latshift import GridShift

        f = ProductBernoulliFn(2)
        rule = Rank1Rule(3, GeneratingVector((1, 3), 3))
        box = TruncationBox(32)
        base = shift_error_series(rule, f, GridShift((3, 11), 4), box).value
        assert shift_error_series(rule, f, DyadicPoint((3, 11), 4), box).value == base
        assert shift_error_series(rule, f, RealShift((3 / 16, 11 / 16)), box).value == base
        assert shift_error_series(rule, f, (3 / 16, 11 / 16), box).value == base

    def test_missing_model_fails_fast(self):
        rule = Rank1Rule(3, GeneratingVector((1, 3), 3))
        with pytest.raises(NotImplementedError):
            shift_error_series(rule, NoModelFn(2), None, TruncationBox(4))


class TestVarianceSeries:
    def test_single_dimension_against_zeta_closed_form(self):
        # duals of the 8-point rule in one dimension are the multiples of 8:
        # sum of g(8k)^2 = zeta(4) / (2 pi^4 * 8^4) = 1/737280
        f = ProductBernoulliFn(1)
        rule = Rank1Rule(3, GeneratingVector((1,), 3))
        res = cp_variance_series(rule, f, TruncationBox(64))
        partial = sum((1.0 / (2.0 * math.pi**2 * (8 * k) ** 2)) ** 2 for k in range(1, 9))
        assert res.value == pytest.approx(2.0 * partial, rel=1e-12)
        assert abs(res.value - 1.0 / 737280.0) <= res.tail_bound

    @pytest.mark.parametrize("m", [3, 5])
    @pytest.mark.parametrize("s", [1, 2])
    def test_matches_autocorrelation_closed_form(self, s, m):
        f = ProductBernoulliFn(s)
        rule = Rank1Rule(m, korobov_vector(17797, s, m))
        res = cp_variance_series(rule, f, TruncationBox(64))
        closed = variance_closed_form(rule, f)
        assert abs(res.value - closed) <= res.tail_bound

    def test_tail_bound_halves_three_octaves(self):
        f = ProductBernoulliFn(2)
        rule = Rank1Rule(3, korobov_vector(17797, 2, 3))
        t64 = cp_variance_series(rule, f, TruncationBox(64)).tail_bound
        t128 = cp_variance_series(rule, f, TruncationBox(128)).tail_bound
        assert t64 / t128 >= 8.0 * (1 - 1e-12)

    def test_monte_carlo_errors_respect_support_bound(self):
        # |Q_u f - 1| is bounded by the total dual coefficient mass
        f = ProductBernoulliFn(2)
        rule = Rank1Rule(3, GeneratingVector((1, 3), 3))
        box = TruncationBox(64)
        bound = sum(f.fourier_coeff(h) for h in dual_points(rule, box))
        bound += f.coefficient_tail_bound(box.H, 1)
        rng = random.Random(99)
        for _ in range(200):
            u = RealShift((rng.random(), rng.random()))
            assert abs(eval_real_shifted(rule, f, u) - 1.0) <= bound


class TestThirdMomentSeries:
    def setup_method(self):
        self.f = ProductBernoulliFn(1)
        self.rule = Rank1Rule(2, GeneratingVector((1,), 2))

    def quadrature_oracle(self) -> float:
        # third central moment of the ideally shifted rule by fine-grid
        # quadrature over the shift; 2^20 rectangle points
        n = 1 << 20
        u = np.arange(n) / n
        x = u - 0.5
        err = np.zeros(n)
        for j in range(4):
            xs = u + j / 4.0
            xs -= np.floor(xs)
            err += (xs - 0.5) ** 2 - 1.0 / 12.0
        err /= 4.0
        return float(np.mean(err**3))

    def test_converges_to_quadrature_oracle(self):
        oracle = self.quadrature_oracle()
        gaps = []
        for H in (16, 64, 256):
            val = third_moment_series(self.rule, self.f, TruncationBox(H)).value
            gaps.append(abs(val - oracle) / abs(oracle))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 5e-5

    def test_box_negation_invariance(self):
        # relabeling h -> -h permutes the constraint set; the sum is unchanged
        val = third_moment_series(self.rule, self.f, TruncationBox(16)).value
        duals = dual_points(self.rule, TruncationBox(16))
        total = 0.0
        for h in duals:
            hn = tuple(-hi for hi in h)
            for k in duals:
                kn = tuple(-ki for ki in k)
                l = tuple(hi - ki for hi, ki in zip(hn, kn))
                if not any(l) or any(abs(li) > 16 for li in l):
                    continue
                total += (
                    self.f.fourier_coeff(hn)
                    * self.f.fourier_coeff(kn)
                    * self.f.fourier_coeff(l)
                )
        assert val == pytest.approx(total, rel=1e-13)

    def test_constant_function_gives_zero(self):
        assert third_moment_series(self.rule, ConstantFn(1), TruncationBox(8)).value == 0.0

    def test_guard_on_pair_count(self):
        # 8194 duals of the single-node rule: 8194^2 pairs exceed 2^26
        rule = Rank1Rule(0, GeneratingVector((1,), 1))
        with pytest.raises(GuardLimitError, match="dual pairs"):
            third_moment_series(rule, self.f, TruncationBox(4097))


class TestCumulants:
    def test_identity_at_one_replicate(self):
        cs = CumulantSet(kappa2=0.3, kappa3=-0.04, kappa4=0.007)
        assert mean_cumulants(cs, 1) == cs

    def test_gaussian_fourth_moment_relation(self):
        sigma2 = 0.81
        cs = CumulantSet(kappa2=sigma2, kappa3=0.0, kappa4=0.0)
        assert cs.mu4 == pytest.approx(3.0 * sigma2**2, rel=1e-15)

    def test_third_moment_scaling(self):
        cs = CumulantSet(kappa2=0.5, kappa3=0.125)
        for q in (1, 2, 7):
            assert mean_cumulants(cs, q).mu3 == cs.mu3 / q**2

    def test_unknown_kappa4_propagates(self):
        cs = CumulantSet(kappa2=0.5, kappa3=0.125)
        assert cs.mu4 is None
        assert mean_cumulants(cs, 3).mu4 is None

    def test_composition(self):
        cs = CumulantSet(kappa2=0.5, kappa3=0.125, kappa4=0.25)
        two_steps = mean_cumulants(mean_cumulants(cs, 2), 8)
        one_step = mean_cumulants(cs, 16)
        assert two_steps == one_step
        a = mean_cumulants(mean_cumulants(cs, 3), 7)
        b = mean_cumulants(cs, 21)
        assert a.kappa3 == pytest.approx(b.kappa3, rel=1e-14)
        assert a.q == b.q == 21

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_cumulants(CumulantSet(1.0, 0.0), 0)
        with pytest.raises(ValueError):
            CumulantSet(1.0, 0.0, q=0)
