import itertools
import math
import random
import tracemalloc

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
from latshift import dual as dual_module
from latshift.errors import guard
from latshift.fsum import fsum_rows
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

    def eval_batch(self, xs):
        return np.ones(xs.shape[1:])

    def fourier_coeff(self, h):
        return (~np.asarray(h).any(axis=-1)).astype(float)[()]

    def coefficient_tail_bound(self, bound, power):
        return 0.0


class ArbitraryCoeffFn(ConstantFn):
    """Real coefficients with no product structure and no symmetry in h,
    spread over many binades and of both signs, so the inner sums cancel."""

    def fourier_coeff(self, h):
        h = np.asarray(h)
        flat = [self.coeff(tuple(k)) for k in h.reshape(-1, h.shape[-1]).tolist()]
        return np.array(flat, dtype=float).reshape(h.shape[:-1])[()]

    @staticmethod
    def coeff(h):
        rng = random.Random(repr(h))
        return rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-40, 0)


class NoModelFn(ConstantFn):
    fourier_coeff = PeriodicFunction.fourier_coeff
    coefficient_tail_bound = PeriodicFunction.coefficient_tail_bound


class Coefficients(dict):
    """f's coefficient at each index tuple, from one single-index
    `fourier_coeff` call per distinct index, filled as it is asked."""

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, h):
        self[h] = value = self.f.fourier_coeff(h)
        return value


def dualwise_error(duals, f, c):
    """Reference error series: one coefficient and one cosine per dual tuple."""
    two_pi = 2.0 * math.pi
    coeff = Coefficients(f)
    return math.fsum(
        math.cos(two_pi * sum(hi * ci for hi, ci in zip(h, c))) * coeff[h] for h in duals
    )


def dualwise_variance(duals, f):
    """Reference variance series: one coefficient per dual tuple."""
    coeff = Coefficients(f)
    return math.fsum(coeff[h] * coeff[h] for h in duals)


def pairwise_third_moment(duals, f, H):
    """Reference double sum over dual pairs: for each h, the k with
    l = h - k nonzero and inside the box, each pair formed on its own."""
    coeff = Coefficients(f)
    outer = []
    for h in duals:
        inner = []
        for k in duals:
            l = tuple(hi - ki for hi, ki in zip(h, k))
            if any(l) and all(-H <= li <= H for li in l):
                inner.append(coeff[k] * coeff[l])
        outer.append(coeff[h] * math.fsum(inner))
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
    shift = RealShift(tuple((0.3 + 0.21 * i) % 1.0 for i in range(rule.s)))
    for f in (ProductBernoulliFn(rule.s), ArbitraryCoeffFn(rule.s)):
        value = third_moment_series(rule, f, TruncationBox(H)).value
        assert value.hex() == pairwise_third_moment(expected, f, H).hex()
        error = shift_error_series(rule, f, shift, TruncationBox(H)).value
        assert error.hex() == dualwise_error(expected, f, shift.u).hex()
        variance = cp_variance_series(rule, f, TruncationBox(H)).value
        assert variance.hex() == dualwise_variance(expected, f).hex()


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
        # a float bound is refused at construction, not deep in the solver
        for H in (2.5, 2.0):
            with pytest.raises(ValueError, match="int"):
                TruncationBox(H)

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

    @pytest.mark.parametrize(
        "m, z, H",
        [(4, (1, 17797, 17797**2), 3), (5, (1, 1267), 12), (0, (1, 1), 3), (3, (1,), 40)],
    )
    def test_reversed_order_is_negation(self, m, z, H):
        # the nonzero lattice points of a box symmetric about 0, in
        # lexicographic order: row D - 1 - i is -h_i, and D is even
        duals = np.array(dual_points(Rank1Rule(m, GeneratingVector(z, max(m, 1))), TruncationBox(H)))
        assert len(duals) % 2 == 0
        assert np.array_equal(duals[::-1], -duals)

    def test_huge_candidate_counts_refused_from_their_log2(self):
        # past 2^128 the count is never formed; the message names the same
        # power of two as the exact count's would
        for base, factor in ((2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (33, 3), (1001, 17)):
            for exponent in (0, 1, 20, 80, 81, 200, 1000, 2999):
                messages = []
                for check in (
                    lambda: guard(base**exponent * factor, "items"),
                    lambda: guard(factor, "items", exponent, base),
                ):
                    try:
                        check()
                        messages.append(None)
                    except GuardLimitError as exc:
                        messages.append(str(exc))
                assert messages[0] == messages[1], (base, exponent, factor)
        # s = 2 * 10^6 at H = 1: 3^1999999 prefixes, about 3.2 million bits
        with pytest.raises(GuardLimitError, match=r"at least 2\^3169925 candidate duals"):
            TruncationBox(1).guard(2_000_000, 0)
        # an exponent past the float range is refused all the same
        with pytest.raises(GuardLimitError, match=r"at least 2\^\(2\^1328\) candidate duals"):
            TruncationBox(1).guard(10**400, 0)
        for base in (2, 3):
            with pytest.raises(GuardLimitError, match=r"^at least 2\^\(2\^64\) items exceed"):
                guard(3, "items", 2**64 + 5, base)


def series_hex(rule, f, box):
    """Every output of one dual op on box, as exact text."""
    shift = RealShift(tuple((0.3 + 0.21 * i) % 1.0 for i in range(rule.s)))
    results = (
        shift_error_series(rule, f, shift, box),
        cp_variance_series(rule, f, box),
        third_moment_series(rule, f, box),
    )
    return dual_points(rule, box), [(r.value.hex(), r.tail_bound.hex()) for r in results]


class TestPreparedBox:
    # two rules of one dimension with different duals in |h_i| <= 4, and
    # two integrands, one with even coefficients and one without
    RULES = (Rank1Rule(4, korobov_vector(17797, 3, 4)), Rank1Rule(3, korobov_vector(7163, 3, 3)))
    FNS = (ProductBernoulliFn(3), ArbitraryCoeffFn(3))

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_reused_box_equals_fresh_boxes(self, block, monkeypatch):
        fresh = {(r, f): series_hex(r, f, TruncationBox(4)) for r in self.RULES for f in self.FNS}
        assert fresh[self.RULES[0], self.FNS[0]][0] != fresh[self.RULES[1], self.FNS[0]][0]
        # every series, on a box reused across rules and integrands in both
        # orders, with the duals built and decoded a few at a time
        monkeypatch.setattr(dual_module, "_DUAL_BLOCK", block)
        for rules in (self.RULES, self.RULES[::-1]):
            for fns in (self.FNS, self.FNS[::-1]):
                box = TruncationBox(4)
                for rule in rules:
                    for f in fns:
                        assert series_hex(rule, f, box) == fresh[rule, f]
                # and back to the first rule and integrand
                assert series_hex(rules[0], fns[0], box) == fresh[rules[0], fns[0]]

    def test_box_hands_out_only_its_rule_and_integrand(self):
        box = TruncationBox(4)
        first, second = self.RULES
        prepared = box.prepare(first)
        # an equal rule shares the prepared duals; another rule replaces them
        assert box.prepare(Rank1Rule(4, korobov_vector(17797, 3, 4))) is prepared
        assert box.prepare(second) is not prepared
        assert dual_points(second, box) == sorted(brute_force_duals(second, 4))
        assert dual_points(first, box) == sorted(brute_force_duals(first, 4))
        for f in (*self.FNS, ProductBernoulliFn(3)):
            coeffs = box.prepare(first).coefficients(f)
            expected = [f.fourier_coeff(h) for h in dual_points(first, box)] + [0.0]
            assert [c.hex() for c in coeffs.tolist()] == [float(c).hex() for c in expected]
        # one key a dual, one coefficient more (0.0), and neither writeable
        prepared = box.prepare(first)
        assert len(prepared.keys) == len(prepared) == len(dual_points(first, box))
        assert len(coeffs) == len(prepared) + 1 and coeffs[-1] == 0.0
        assert not prepared.keys.flags.writeable and not coeffs.flags.writeable
        # the prepared duals take no part in the box's value
        assert box == TruncationBox(4) and hash(box) == hash(TruncationBox(4))
        assert repr(box) == "TruncationBox(H=4)"

    def test_one_op_solves_the_duals_and_coefficients_once(self, monkeypatch):
        builds, calls = [], []
        box_keys = dual_module._box_keys
        monkeypatch.setattr(dual_module, "_box_keys", lambda *a: builds.append(a) or box_keys(*a))

        class Counted(ProductBernoulliFn):
            def fourier_coeff(self, h):
                calls.append(len(h))
                return super().fourier_coeff(h)

        rule, f, box = self.RULES[0], Counted(3), TruncationBox(4)
        series_hex(rule, f, box)
        assert len(builds) == 1 and calls == [len(dual_points(rule, box))]


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
        from latshift import GridShift, eval_grid_shifted

        shift = GridShift((3, 11), 4)
        direct = eval_grid_shifted(rule, f, shift) - 1.0
        res = shift_error_series(rule, f, shift, TruncationBox(256))
        assert abs(res.value - direct) <= res.tail_bound
        assert abs(res.value - direct) <= 2e-3 * abs(direct)

    def test_shift_argument_forms_are_equivalent(self):
        from latshift import GridShift

        f = ProductBernoulliFn(2)
        rule = Rank1Rule(3, GeneratingVector((1, 3), 3))
        box = TruncationBox(32)
        base = shift_error_series(rule, f, GridShift((3, 11), 4), box).value
        assert shift_error_series(rule, f, RealShift((3 / 16, 11 / 16)), box).value == base
        assert shift_error_series(rule, f, RealShift((0.0, 0.0)), box).value == shift_error_series(
            rule, f, None, box
        ).value
        # a bare point or float sequence is no shift form the series takes
        for shift in (DyadicPoint((3, 11), 4), (3 / 16, 11 / 16)):
            with pytest.raises(TypeError, match="None, a RealShift or a GridShift"):
                shift_error_series(rule, f, shift, box)

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

    def test_arbitrary_coefficients_match_pairwise_reference(self):
        f = ArbitraryCoeffFn(2)
        rules = ((Rank1Rule(3, GeneratingVector((1, 3), 3)), 8), (Rank1Rule(2, korobov_vector(7163, 2, 2)), 5))
        for rule, H in rules:
            duals = dual_points(rule, TruncationBox(H))
            value = third_moment_series(rule, f, TruncationBox(H)).value
            assert value.hex() == pairwise_third_moment(duals, f, H).hex()

    def test_diagonal_pair_counted_once(self):
        # rows h = +-8 of the multiples of 4 in |h| <= 8 hold only the pair
        # k = l = h / 2; (4, 4) and (2, 2) are both duals of z = (1, 3) mod 8
        rules = ((Rank1Rule(2, GeneratingVector((1,), 2)), 8), (Rank1Rule(3, GeneratingVector((1, 3), 3)), 8))
        for rule, H in rules:
            duals = dual_points(rule, TruncationBox(H))
            assert any(tuple(2 * ki for ki in k) in duals for k in duals)
            for f in (ProductBernoulliFn(rule.s), ArbitraryCoeffFn(rule.s)):
                value = third_moment_series(rule, f, TruncationBox(H)).value
                assert value.hex() == pairwise_third_moment(duals, f, H).hex()

    @pytest.mark.parametrize("rows", range(1, 8))
    def test_rows_split_across_pair_blocks(self, rows, monkeypatch):
        # the rows' windows hold 12 to 23 of the 44 duals, so a budget of 15
        # pairs a row gives blocks of `rows` rows among others, and for
        # rows >= 2 a last block shorter than that
        rule = Rank1Rule(4, korobov_vector(17797, 3, 4))
        H = 4
        duals = dual_points(rule, TruncationBox(H))
        assert len(duals) == 44
        blocks = []
        monkeypatch.setattr(dual_module, "_PAIR_BLOCK", 15 * rows)
        monkeypatch.setattr(dual_module, "fsum_rows", lambda t: blocks.append(len(t)) or fsum_rows(t))
        for f in (ProductBernoulliFn(3), ArbitraryCoeffFn(3)):
            blocks.clear()
            value = third_moment_series(rule, f, TruncationBox(H)).value
            assert value.hex() == pairwise_third_moment(duals, f, H).hex()
            assert rows in blocks and (rows == 1 or blocks[-1] < rows)

    def test_each_unordered_pair_formed_once(self, monkeypatch):
        # the largest benchmark shape, (3,5,16) at ell = 17797: the ordered
        # pairs of the box duals number D^2, the rows' windows about 0.38 D^2,
        # and half the rows' windows about 0.19 D^2
        rule = Rank1Rule(5, korobov_vector(17797, 3, 5))
        D = len(dual_points(rule, TruncationBox(16)))
        terms = []
        monkeypatch.setattr(dual_module, "fsum_rows", lambda t: terms.append(t.size) or fsum_rows(t))
        formed = {}
        for f in (ProductBernoulliFn(3), ArbitraryCoeffFn(3)):
            terms.clear()
            third_moment_series(rule, f, TruncationBox(16))
            formed[type(f)] = sum(terms)
        assert D == 1122 and max(formed.values()) <= 0.45 * D**2
        # even coefficients take half the rows; others take every row
        assert formed[ProductBernoulliFn] <= 0.20 * D**2
        assert formed[ArbitraryCoeffFn] >= 0.37 * D**2

    # the value of every benchmark dual shape whose D exceeds 400, where the
    # pairwise reference would be slow, recorded from commit 655ef98, whose
    # series summed every row
    PARENT_HEX = {
        (3, 5, 16): "0x1.786ac2388c239p-38",
        (3, 3, 8): "0x1.0cc1f64260fc7p-26",
        (3, 6, 16): "0x1.2cbb1d08f9083p-40",
        (3, 5, 12): "0x1.611f32887562ep-38",
    }

    @pytest.mark.parametrize("ell", [1267, 12915])
    @pytest.mark.parametrize(
        "s, m, H",
        [(3, 5, 16), (3, 3, 8), (3, 6, 16), (3, 5, 12), (3, 6, 12), (3, 4, 8),
         (2, 4, 16), (2, 3, 8), (2, 6, 16), (2, 5, 12), (2, 3, 12)],
    )
    def test_half_rows_bitwise_on_benchmark_shapes(self, s, m, H, ell):
        rule = Rank1Rule(m, korobov_vector(ell, s, m))
        duals = dual_points(rule, TruncationBox(H))
        value = third_moment_series(rule, ProductBernoulliFn(s), TruncationBox(H)).value
        if (s, m, H) in self.PARENT_HEX:
            assert len(duals) > 400
            assert value.hex() == self.PARENT_HEX[s, m, H]
        else:
            assert value.hex() == pairwise_third_moment(duals, ProductBernoulliFn(s), H).hex()

    # with test_empty_dual_set (no dual) and test_diagonal_pair_counted_once
    # (pairs k = h - k), the edge cases of the half rows
    @pytest.mark.parametrize(
        "m, z, H",
        [
            (4, (1,), 40),  # s = 1
            (0, (1, 1), 3),  # the single-node rule: every nonzero box point
        ],
    )
    def test_half_rows_bitwise_on_edge_rules(self, m, z, H):
        rule = Rank1Rule(m, GeneratingVector(z, max(m, 1)))
        duals = dual_points(rule, TruncationBox(H))
        for f in (ProductBernoulliFn(len(z)), ArbitraryCoeffFn(len(z))):
            value = third_moment_series(rule, f, TruncationBox(H)).value
            assert value.hex() == pairwise_third_moment(duals, f, H).hex()

    def test_subnormal_products_keep_their_bits(self, monkeypatch):
        # coefficients below 2^-511 make products of two subnormal, where
        # (2 c(k)) c(l) may differ from 2 (c(k) c(l)); every term is doubled
        # after its product, so each inner sum is still the math.fsum of its
        # ordered terms
        class Tiny(ArbitraryCoeffFn):
            @staticmethod
            def coeff(h):
                return ArbitraryCoeffFn.coeff(h) * 2.0**-530

        rule, H, f = Rank1Rule(3, GeneratingVector((1, 3), 3)), 8, Tiny(2)
        duals = dual_points(rule, TruncationBox(H))
        sums = []
        monkeypatch.setattr(dual_module, "fsum_rows", lambda t: sums.append(fsum_rows(t)) or sums[-1])
        third_moment_series(rule, f, TruncationBox(H))
        coeff, dual_set = Coefficients(f), set(duals)
        expected = [
            math.fsum(
                coeff[k] * coeff[l]
                for k in duals
                for l in [tuple(hi - ki for hi, ki in zip(h, k))]
                if l in dual_set
            )
            for h in duals
        ]
        inner = np.concatenate(sums)
        assert any(0.0 < abs(x) < 2.0**-1022 for x in expected)
        assert [x.hex() for x in inner.tolist()] == [x.hex() for x in expected]

    @pytest.mark.parametrize("budget, lands_on_half", [(58, True), (66, False)])
    def test_block_split_at_the_half_row(self, budget, lands_on_half, monkeypatch):
        # the 44 duals of test_rows_split_across_pair_blocks: a budget of 58
        # pairs ends a block of the full rows at row 22, the half, and one of
        # 66 ends blocks at rows 21 and 23, so the half rows stop mid-block
        rule = Rank1Rule(4, korobov_vector(17797, 3, 4))
        H = 4
        duals = dual_points(rule, TruncationBox(H))
        monkeypatch.setattr(dual_module, "_PAIR_BLOCK", budget)
        rows = []
        monkeypatch.setattr(dual_module, "fsum_rows", lambda t: rows.append(len(t)) or fsum_rows(t))
        ends = {}
        for f in (ProductBernoulliFn(3), ArbitraryCoeffFn(3)):
            rows.clear()
            value = third_moment_series(rule, f, TruncationBox(H)).value
            assert value.hex() == pairwise_third_moment(duals, f, H).hex()
            ends[type(f)] = list(itertools.accumulate(rows))
        assert ends[ArbitraryCoeffFn][-1] == len(duals) == 44
        assert (22 in ends[ArbitraryCoeffFn]) == lands_on_half
        assert ends[ProductBernoulliFn][-1] == 22
        assert ends[ProductBernoulliFn][:-1] == [e for e in ends[ArbitraryCoeffFn] if e < 22]

    def test_peak_memory_linear_in_duals(self):
        # every nonzero point of |h_i| <= 40 is a dual of the one-node rule.
        # The pairs would take 8 D^2 bytes (344 MB).  With its box built
        # inside the traced region, the series holds the box's keys and
        # coefficients, the row windows and the inner sums, 47 bytes a dual
        # (measured between 3720 and 6560 duals), and one block of pairs,
        # 25-27 bytes a pair (measured at 2^12-2^14 pairs a block): 590 KB
        # here, where the parent's 256 bytes a dual allowed 2 MB
        rule = Rank1Rule(0, GeneratingVector((1, 1), 1))
        D = len(dual_points(rule, TruncationBox(40)))
        assert D == 6560
        tracemalloc.start()
        try:
            third_moment_series(rule, ProductBernoulliFn(2), TruncationBox(40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 56 * D + 32 * dual_module._PAIR_BLOCK

    def test_peak_memory_with_the_key_table(self):
        # the largest benchmark shape reads h - k from the dense key table:
        # besides the per-dual arrays and one block of pairs, the series
        # holds the table's 2K + 3 int16 entries (331 KB in all before the
        # table, 596 KB with it)
        rule = Rank1Rule(5, korobov_vector(17797, 3, 5))
        duals = TruncationBox(16).prepare(rule)
        D, K = len(duals), int(duals.keys[len(duals) - 1])
        assert (D, K) == (1122, 68640)
        tracemalloc.start()
        try:
            third_moment_series(rule, ProductBernoulliFn(3), TruncationBox(16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 56 * D + 2 * (2 * K + 3) + 32 * dual_module._PAIR_BLOCK

    @pytest.mark.parametrize(
        "s, m, H, table",
        [(3, 5, 16, True), (2, 4, 16, True), (2, 6, 16, False)],
    )
    def test_key_table_or_binary_search(self, s, m, H, table, monkeypatch):
        # the index of h - k is read from the dense key table where its
        # 2K + 3 entries are few against the pairs formed, and searched for
        # in the sorted keys elsewhere: (2,6,16) has 2K + 1 = 26 times its
        # 78 windowed pairs.  The benchmark's shapes take both lookups
        rule = Rank1Rule(m, korobov_vector(17797, s, m))
        f = ProductBernoulliFn(s)
        box = TruncationBox(H)
        duals = dual_points(rule, box)
        searched = []
        search = np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda a, v, *args, **kw: searched.append(np.ndim(v)) or search(a, v, *args, **kw))
        value = third_moment_series(rule, f, box).value
        # only the lookup of h - k searches a 2-D array of needles
        assert (2 in searched) != table
        if (s, m, H) in self.PARENT_HEX:
            assert value.hex() == self.PARENT_HEX[s, m, H]
        else:
            assert value.hex() == pairwise_third_moment(duals, f, H).hex()

    @pytest.mark.parametrize(
        "rule, H",
        [
            (Rank1Rule(4, korobov_vector(17797, 3, 4)), 4),
            (Rank1Rule(0, GeneratingVector((1, 1), 1)), 6),
            (Rank1Rule(5, korobov_vector(17797, 3, 5)), 16),
            (Rank1Rule(6, korobov_vector(1267, 2, 6)), 16),
        ],
    )
    def test_key_table_and_binary_search_agree_bitwise(self, rule, H, monkeypatch):
        # every inner sum is the correctly rounded sum of one multiset of
        # terms whichever lookup finds h - k, also for coefficients that
        # take every row
        values = {}
        for per_pair, entries in ((0, 0), (1 << 62, 1 << 62)):
            monkeypatch.setattr(dual_module, "_INDEX_PER_PAIR", per_pair)
            monkeypatch.setattr(dual_module, "_INDEX_ENTRIES", entries)
            values[per_pair] = [
                third_moment_series(rule, f, TruncationBox(H)).value.hex()
                for f in (ProductBernoulliFn(rule.s), ArbitraryCoeffFn(rule.s))
            ]
        assert values[0] == values[1 << 62]

    @pytest.mark.parametrize(
        "m, z, H, D",
        [
            (20, (1, 12345), 4096, 62),
            (24, (1, 3001, 70001), 300, 24),
            (30, (1, 123456789), 1 << 15, 4),
        ],
    )
    def test_sparse_rules_with_large_keys_build_no_table(self, m, z, H, D):
        # few duals with keys up to 6.7e7, 3.9e8 and 4.1e9: a key table
        # would take 2 bytes a key and dwarf the pairs, so the series
        # searches the sorted keys and holds far less than 2K + 1 bytes
        rule = Rank1Rule(m, GeneratingVector(z, m))
        f = ProductBernoulliFn(len(z))
        box = TruncationBox(H)
        duals = box.prepare(rule)
        duals.coefficients(f)
        K = int(duals.keys[len(duals) - 1])
        assert len(duals) == D and K > 6 * 10**7
        tracemalloc.start()
        try:
            value = third_moment_series(rule, f, box).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1000 * peak < 2 * K + 1
        assert value.hex() == pairwise_third_moment(dual_points(rule, box), f, H).hex()

    def _error_and_variance_peaks(self, H):
        rule = Rank1Rule(0, GeneratingVector((1, 1), 1))
        f = ProductBernoulliFn(2)
        peaks = []
        for series in (
            lambda box: shift_error_series(rule, f, RealShift((0.3, 0.7)), box),
            lambda box: cp_variance_series(rule, f, box),
        ):
            tracemalloc.start()
            try:
                # the box is built inside the traced region
                series(TruncationBox(H))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_error_and_variance_peak_memory_per_dual(self):
        # 6560 duals, fewer than one block: building the box's keys and
        # coefficients and summing one block of terms peaked at 73 bytes a
        # dual for each series (481 and 479 KB), where the parent allowed 128
        D = (2 * 40 + 1) ** 2 - 1
        for peak in self._error_and_variance_peaks(40):
            assert peak < 80 * D

    def test_error_and_variance_peak_memory_flat_beyond_a_block(self):
        # past one block, each series holds the box's keys and coefficients,
        # 16 bytes a dual, besides one block of decoded duals and their terms
        # and the certified sum's pieces: 16.0 bytes a dual measured between
        # these sizes, over a fixed 6.3 MB (error) and 3.7 MB (variance) at
        # 2^16 duals a block, where the whole dual array took 73 and 57
        D1, D2 = ((2 * H + 1) ** 2 - 1 for H in (300, 400))
        for p1, p2 in zip(self._error_and_variance_peaks(300), self._error_and_variance_peaks(400)):
            assert (p2 - p1) / (D2 - D1) < 17
            assert p2 < 16 * D2 + (7 << 20)

    def test_empty_dual_set(self):
        # the multiples of 32 inside |h| <= 1 are 0 only, which is not a dual
        rule = Rank1Rule(5, GeneratingVector((1,), 5))
        assert dual_points(rule, TruncationBox(1)) == []
        res = third_moment_series(rule, self.f, TruncationBox(1))
        assert res.value.hex() == pairwise_third_moment([], self.f, 1).hex() == (0.0).hex()
        assert res.tail_bound == 3.0 * self.f.coefficient_tail_bound(1, 1) ** 2

    def test_benchmark_sized_op(self):
        # a dual op of the benchmark: 306 duals, several pair blocks
        rule = Rank1Rule(4, korobov_vector(17797, 3, 4))
        f = ProductBernoulliFn(3)
        duals = dual_points(rule, TruncationBox(8))
        assert len(duals) >= 300 and len(duals) ** 2 > dual_module._PAIR_BLOCK
        value = third_moment_series(rule, f, TruncationBox(8)).value
        assert value.hex() == pairwise_third_moment(duals, f, 8).hex()

    def test_guard_on_pair_count(self):
        # 8194 duals of the single-node rule: 8194^2 pairs exceed 2^26
        rule = Rank1Rule(0, GeneratingVector((1,), 1))
        with pytest.raises(GuardLimitError, match="dual pairs"):
            third_moment_series(rule, self.f, TruncationBox(4097))


class TestCumulants:
    def test_identity_at_one_replicate(self):
        cs = CumulantSet(kappa2=0.3, kappa3=-0.04)
        assert mean_cumulants(cs, 1) == cs

    def test_third_moment_scaling(self):
        cs = CumulantSet(kappa2=0.5, kappa3=0.125)
        for q in (1, 2, 7):
            assert mean_cumulants(cs, q).mu3 == cs.mu3 / q**2

    def test_composition(self):
        cs = CumulantSet(kappa2=0.5, kappa3=0.125)
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
