import math
from fractions import Fraction

import numpy as np
import pytest

from latshift import (
    DyadicPoint,
    PeriodicFunction,
    ProductBernoulliFn,
    bernoulli2,
    rectangle_rule_mean,
)
from latshift.functions import TWO_PI_SQ

from conftest import autocorrelation, bernoulli4, product_bernoulli_point, rel_err

REL = 1e-14


class TestBernoulliPolynomials:
    @pytest.mark.parametrize(
        "x,expected", [(0.0, 1 / 6), (0.5, -1 / 12), (0.25, -1 / 48)]
    )
    def test_b2_values(self, x, expected):
        assert bernoulli2(x) == pytest.approx(expected, rel=REL)

    @pytest.mark.parametrize("x,expected", [(0.0, -1 / 30), (0.5, 7 / 240)])
    def test_b4_values(self, x, expected):
        assert bernoulli4(x) == pytest.approx(expected, rel=REL)

    def test_reflection_symmetry_is_exact(self):
        # dyadic x and 1 - x must give bitwise-equal values
        for k in range(1, 64):
            x = k / 64
            assert bernoulli2(x) == bernoulli2(1.0 - x)
            assert bernoulli4(x) == bernoulli4(1.0 - x)


class TestProductBernoulliFn:
    def test_eval_at_origin(self):
        f = ProductBernoulliFn(3)
        assert f.eval(DyadicPoint((0, 0, 0), 1)) == pytest.approx(343 / 216, rel=REL)

    def test_eval_at_center(self):
        f = ProductBernoulliFn(2)
        assert f.eval(DyadicPoint((1, 1), 1)) == pytest.approx(121 / 144, rel=REL)

    def test_eval_reflection_symmetry_exact(self):
        f = ProductBernoulliFn(2)
        t = 6
        top = 1 << t
        for nums in [(1, 9), (13, 40), (33, 63), (7, 0)]:
            mirrored = tuple((top - n) % top for n in nums)
            assert f.eval(DyadicPoint(nums, t)) == f.eval(DyadicPoint(mirrored, t))

    def test_table_path_matches_direct_path(self):
        # eval and eval_real go through eval_batch and agree bitwise with
        # the scalar reference
        f = ProductBernoulliFn(2)
        p = DyadicPoint((13, 40), 6)
        assert f.eval(p) == f.eval_real(p.as_floats()) == product_bernoulli_point(p.as_floats())

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_in_place_eval_batch_matches_factor_product(self, s):
        # the product of the factors 1.0 + B2(x) in the order of factor(),
        # on dyadic coordinates, their reflections 1 - x, and plain floats
        rng = np.random.default_rng(s)
        dyadic = rng.integers(0, 1 << 20, size=(s, 3, 64)) * 2.0**-20
        xs = np.concatenate([dyadic, 1.0 - dyadic, rng.random((s, 2, 64))], axis=1)
        expected = np.ones(xs.shape[1:])
        for x in xs:
            expected *= 1.0 + bernoulli2(x)
        got = ProductBernoulliFn(s).eval_batch(xs)
        assert got.shape == xs.shape[1:]
        assert got.tobytes() == expected.tobytes()
        assert got[:3].tobytes() == got[3:6].tobytes()

    @pytest.mark.parametrize("t", range(17))
    def test_factor_in_one_buffer_matches_formula(self, t):
        # factor's in-place steps give 1.0 + B2(x) bit for bit, on the
        # dyadic table cbc builds and on plain floats
        f = ProductBernoulliFn(1)
        x = np.arange(1 << t) / (1 << t)
        assert f.factor(x).tobytes() == (1.0 + bernoulli2(x)).tobytes()
        for v in np.random.default_rng(t).random(64).tolist() + [x[-1], 0.5]:
            got = f.factor(v)
            assert np.ndim(got) == 0 and float(got).hex() == (1.0 + bernoulli2(v)).hex()

    def test_dimension_mismatch(self):
        f = ProductBernoulliFn(2)
        with pytest.raises(ValueError):
            f.eval(DyadicPoint((0, 0, 0), 1))
        with pytest.raises(ValueError):
            f.fourier_coeff((1,))


class TestInterface:
    def test_abstract_members_are_s_and_eval_batch(self):
        assert PeriodicFunction.__abstractmethods__ == {"s", "eval_batch"}

    def test_per_point_evaluators_derive_from_eval_batch(self):
        class Sum(PeriodicFunction):
            s = 2

            def eval_batch(self, xs):
                return xs[0] + 2.0 * xs[1]

        f = Sum()
        assert f.eval_real((0.25, 0.5)) == 1.25
        assert f.eval(DyadicPoint((1, 3), 3)) == 0.125 + 0.75
        assert f.eval_batch(np.array([[0.5], [0.25]])).tolist() == [1.0]


class TestFourierModel:
    def test_zero_index_is_integral(self):
        assert ProductBernoulliFn(3).fourier_coeff((0, 0, 0)) == 1.0

    def test_first_coefficient(self):
        # frozen: 1 / (2 pi^2)
        assert ProductBernoulliFn(1).fourier_coeff((1,)) == pytest.approx(
            0.05066059182116889, rel=REL
        )

    def test_coefficients_sum_to_b2_mean(self):
        # summing 2 * g(h) over h >= 1 approaches B2(0) = 1/6 with tail <= 1/(pi^2 H)
        f = ProductBernoulliFn(1)
        H = 10_000
        total = sum(2.0 * f.fourier_coeff((h,)) for h in range(1, H + 1))
        assert abs(total - 1 / 6) <= 1.0 / (math.pi**2 * H)

    def test_product_rule(self):
        f = ProductBernoulliFn(2)
        g1 = ProductBernoulliFn(1)
        expected = g1.fourier_coeff((1,)) * g1.fourier_coeff((2,))
        assert f.fourier_coeff((1, 2)) == pytest.approx(expected, rel=REL)

    def test_coefficients_strictly_positive(self):
        f = ProductBernoulliFn(3)
        for h in [(-5, 0, 2), (1, 1, 1), (0, 0, 7), (-3, -9, 4)]:
            assert f.fourier_coeff(h) > 0.0

    def test_series_reconstructs_factor(self):
        # partial Fourier sum of 1 + B2 at dyadic points, H = 1000
        f = ProductBernoulliFn(1)
        H = 1000
        tail = 1.0 / (math.pi**2 * H)
        coeffs = [f.fourier_coeff((h,)) for h in range(1, H + 1)]
        for k in range(0, 64, 7):
            x = k / 64
            series = 1.0 + sum(2.0 * c * math.cos(2.0 * math.pi * h * x)
                               for h, c in zip(range(1, H + 1), coeffs))
            assert abs(series - f.factor(x)) <= tail

    def test_tail_bound_validation(self):
        f = ProductBernoulliFn(2)
        with pytest.raises(NotImplementedError):
            f.coefficient_tail_bound(10, 3)
        with pytest.raises(ValueError):
            f.coefficient_tail_bound(0, 1)


class TestBatchedFourierCoeff:
    @staticmethod
    def per_index(h):
        # the product of the factors of one index, in coordinate order
        out = 1.0
        for hi in h:
            if hi != 0:
                out *= 1.0 / (TWO_PI_SQ * hi * hi)
        return out

    @pytest.mark.parametrize("lead", [(), (40,), (0,), (5, 8)])
    @pytest.mark.parametrize("s", [1, 3])
    def test_matches_per_index_product(self, s, lead):
        # zeros, small indices of both signs and indices up to 2^61 in size
        rng = np.random.default_rng(len(lead) + s)
        pool = np.concatenate([
            [0, 0, 0, 1, -1, 2, -7, 1 << 61, -(1 << 61), (1 << 61) - 1],
            rng.integers(-(1 << 61), 1 << 61, size=10),
        ])
        h = rng.choice(pool, size=lead + (s,))
        got = ProductBernoulliFn(s).fourier_coeff(h)
        assert got.shape == lead
        want = [self.per_index(k) for k in h.reshape(-1, s).tolist()]
        assert [x.hex() for x in np.ravel(got).tolist()] == [x.hex() for x in want]

    def test_single_index_gives_float(self):
        f = ProductBernoulliFn(3)
        for h in [(0, 0, 0), (-5, 0, 2), np.array([1, 1, 1])]:
            got = f.fourier_coeff(h)
            assert isinstance(got, float)
            assert got.hex() == self.per_index(tuple(int(x) for x in h)).hex()

    def test_last_axis_must_be_dimension(self):
        f = ProductBernoulliFn(3)
        for h in [np.zeros((4, 2), dtype=np.int64), np.zeros((3, 4), dtype=np.int64), (1, 2, 3, 4)]:
            with pytest.raises(ValueError):
                f.fourier_coeff(h)


class TestAutocorrelation:
    def test_at_zero(self):
        for s in (1, 2, 3):
            zero = DyadicPoint((0,) * s, 1)
            assert autocorrelation(zero) == pytest.approx((1 + 1 / 180) ** s, rel=REL)

    def test_at_half(self):
        expected = 1 - (1 / 6) * (7 / 240)
        assert autocorrelation(DyadicPoint((1,), 1)) == pytest.approx(expected, rel=REL)

    def test_negation_symmetry_exact(self):
        t = 5
        top = 1 << t
        for nums in [(3, 17), (9, 0), (31, 1)]:
            mirrored = tuple((top - n) % top for n in nums)
            assert autocorrelation(DyadicPoint(nums, t)) == autocorrelation(
                DyadicPoint(mirrored, t)
            )

    def test_squared_coefficient_sum_identity(self):
        # autocorr(0) - 1 equals the full-grid sum of squared coefficients
        # up to the boxed tail bound
        H = 64
        for s in (1, 2):
            f = ProductBernoulliFn(s)
            if s == 1:
                box = sum(f.fourier_coeff((h,)) ** 2 for h in range(-H, H + 1) if h != 0)
            else:
                box = sum(
                    f.fourier_coeff((h1, h2)) ** 2
                    for h1 in range(-H, H + 1)
                    for h2 in range(-H, H + 1)
                    if (h1, h2) != (0, 0)
                )
            lhs = autocorrelation(DyadicPoint((0,) * s, 1)) - 1.0
            assert abs(lhs - box) <= f.coefficient_tail_bound(H, 2)


class TestGridMeanB2:
    # the one-dimensional rectangle rule of 1 + B2 is 1 + 1/(6 n^2)
    def test_single_point(self):
        assert rectangle_rule_mean(ProductBernoulliFn(1), 1, 0) == pytest.approx(7 / 6, rel=REL)

    def test_sixteen_points_against_rational_oracle(self):
        oracle = sum(
            Fraction(j, 16) ** 2 - Fraction(j, 16) + Fraction(1, 6) for j in range(16)
        ) / 16
        assert oracle == Fraction(1, 1536)
        assert rel_err(rectangle_rule_mean(ProductBernoulliFn(1), 1, 4), 1 + 1 / 1536) < 1e-13

    def test_closed_form_sweep(self):
        f = ProductBernoulliFn(1)
        for k in range(1, 11):
            n = 1 << k
            assert rel_err(rectangle_rule_mean(f, 1, k), 1.0 + 1.0 / (6 * n * n)) < 1e-13

    def test_validation(self):
        with pytest.raises(ValueError):
            rectangle_rule_mean(ProductBernoulliFn(1), 1, -1)
