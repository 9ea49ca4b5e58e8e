import math
import random

import pytest

from latshift import (
    BitString,
    EmbeddedPair,
    GridShift,
    ProductBernoulliFn,
    Rank1Rule,
    RealShift,
    ScalarShift,
    bits_to_grid_shift,
    bits_to_scalar_shift,
    estimate_mean,
    eval_grid_shifted,
    eval_real_shifted,
    eval_rule,
    eval_scalar_shifted,
    extended_rule_value,
    grid_shift_to_bits,
    korobov_vector,
    rectangle_rule_mean,
    scalar_shift_to_bits,
)

from conftest import rel_err


class TestBitCodecs:
    def test_grid_all_zero(self):
        v = bits_to_grid_shift(BitString((0,) * 8, 4, 2))
        assert v.nums == (0, 0)

    def test_grid_leading_bit_is_half(self):
        v = bits_to_grid_shift(BitString((1, 0, 0, 0), 4, 1))
        assert v.nums == (8,) and v.r == 4

    def test_grid_coordinate_major(self):
        v = bits_to_grid_shift(BitString((1, 0, 1, 1), 2, 2))
        assert v.nums == (2, 3)

    def test_scalar_all_zero(self):
        w = bits_to_scalar_shift(BitString((0,) * 12, 4, 3))
        assert w.wnum == 0 and w.sr == 12

    def test_scalar_leading_bit(self):
        bits = (1,) + (0,) * 11
        w = bits_to_scalar_shift(BitString(bits, 4, 3))
        assert w.wnum == 2048

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            BitString((0, 1), 4, 1)
        with pytest.raises(ValueError):
            BitString((0, 2, 1, 0), 2, 2)

    def test_grid_codec_bijective_exhaustive(self):
        r, s = 4, 4  # all 2^16 bit strings
        for wnum in range(1 << (r * s)):
            bits = tuple((wnum >> (r * s - 1 - i)) & 1 for i in range(r * s))
            bs = BitString(bits, r, s)
            assert grid_shift_to_bits(bits_to_grid_shift(bs)) == bs

    def test_scalar_codec_bijective_exhaustive(self):
        r, s = 4, 3
        for wnum in range(1 << (r * s)):
            w = ScalarShift(wnum, r * s)
            assert bits_to_scalar_shift(scalar_shift_to_bits(w, r, s)) == w

    def test_scalar_to_bits_needs_matching_split(self):
        with pytest.raises(ValueError):
            scalar_shift_to_bits(ScalarShift(0, 12), 4, 2)


class TestZeroShiftReductions:
    def test_grid_zero_equals_plain_rule(self):
        f = ProductBernoulliFn(2)
        rule = Rank1Rule(4, korobov_vector(1267, 2, 4))
        assert eval_grid_shifted(rule, f, GridShift((0, 0), 3)) == eval_rule(rule, f)

    def test_scalar_zero_equals_plain_rule(self):
        f = ProductBernoulliFn(2)
        pair = EmbeddedPair(3, 6, korobov_vector(1267, 2, 9))
        w0 = ScalarShift(0, 6)
        assert eval_scalar_shifted(pair, f, w0) == eval_rule(pair.base_rule(), f)

    def test_real_zero_equals_plain_rule(self):
        f = ProductBernoulliFn(2)
        rule = Rank1Rule(4, korobov_vector(1267, 2, 4))
        assert eval_real_shifted(rule, f, RealShift((0.0, 0.0))) == eval_rule(rule, f)

    def test_real_at_grid_point_equals_grid_eval(self):
        f = ProductBernoulliFn(2)
        rule = Rank1Rule(3, korobov_vector(17797, 2, 3))
        v = GridShift((5, 12), 4)
        u = RealShift(v.as_point().as_floats())
        assert eval_real_shifted(rule, f, u) == eval_grid_shifted(rule, f, v)

    def test_dimension_mismatch(self):
        f = ProductBernoulliFn(2)
        rule = Rank1Rule(3, korobov_vector(17797, 2, 3))
        with pytest.raises(ValueError):
            eval_grid_shifted(rule, f, GridShift((0,), 3))
        with pytest.raises(ValueError):
            eval_real_shifted(rule, f, RealShift((0.5,)))
        pair = EmbeddedPair(3, 6, korobov_vector(1267, 2, 9))
        with pytest.raises(ValueError):
            eval_scalar_shifted(pair, f, ScalarShift(0, 4))


class TestExhaustiveShiftMeans:
    """Small-configuration versions of the shift-space identities."""

    def test_grid_mean_equals_rectangle_rule(self):
        s, m, r = 2, 3, 3
        f = ProductBernoulliFn(s)
        rect = rectangle_rule_mean(f, s, r)
        closed = (1.0 + 1.0 / (6.0 * (1 << (2 * r)))) ** s
        means = []
        for ell in (17797, 1267, 12915):
            rule = Rank1Rule(m, korobov_vector(ell, s, m))
            vals = [
                eval_grid_shifted(rule, f, GridShift((a, b), r))
                for a in range(1 << r)
                for b in range(1 << r)
            ]
            mean = 1.0 + math.fsum(v - 1.0 for v in vals) / len(vals)
            assert rel_err(mean, rect) < 1e-12
            assert rel_err(mean, closed) < 1e-12
            means.append(mean)
        # the mean does not depend on the generating vector
        assert rel_err(means[0], means[1]) < 1e-13
        assert rel_err(means[0], means[2]) < 1e-13

    def test_scalar_mean_equals_extension(self):
        s, m, r = 2, 3, 3
        sr = s * r
        f = ProductBernoulliFn(s)
        for ell in (17797, 1267):
            pair = EmbeddedPair(m, sr, korobov_vector(ell, s, m + sr))
            vals = [eval_scalar_shifted(pair, f, ScalarShift(w, sr)) for w in range(1 << sr)]
            mean = 1.0 + math.fsum(v - 1.0 for v in vals) / len(vals)
            assert rel_err(mean, extended_rule_value(pair, f)) < 1e-12


class TestRealShiftUnbiasedness:
    def test_monte_carlo_mean_near_integral(self):
        s, m = 2, 5
        f = ProductBernoulliFn(s)
        rule = Rank1Rule(m, korobov_vector(1267, s, m))
        rng = random.Random(20240817)
        q = 4000
        vals = [
            eval_real_shifted(rule, f, RealShift((rng.random(), rng.random())))
            for _ in range(q)
        ]
        mean = math.fsum(vals) / q
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (q - 1))
        assert abs(mean - 1.0) < 4.0 * sd / math.sqrt(q)


class TestEstimateMean:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_mean(lambda w: 0.0, [])

    def test_single_replicate_has_no_sd(self):
        est = estimate_mean(lambda w: 1.25, [ScalarShift(0, 4)])
        assert est.q == 1 and est.mean == 1.25 and est.sd is None

    def test_constant_replicates(self):
        f = ProductBernoulliFn(2)
        pair = EmbeddedPair(3, 6, korobov_vector(1267, 2, 9))
        w0 = ScalarShift(0, 6)
        est = estimate_mean(lambda w: eval_scalar_shifted(pair, f, w), [w0] * 5)
        assert est.mean == eval_rule(pair.base_rule(), f)
        assert est.sd == 0.0

    def test_exhaustive_replicates_recover_exact_moments(self):
        s, m, r = 2, 2, 2
        sr = s * r
        f = ProductBernoulliFn(s)
        pair = EmbeddedPair(m, sr, korobov_vector(17797, s, m + sr))
        shifts = [ScalarShift(w, sr) for w in range(1 << sr)]
        est = estimate_mean(lambda w: eval_scalar_shifted(pair, f, w), shifts)
        q = est.q
        assert rel_err(est.mean, extended_rule_value(pair, f)) < 1e-12
        # sample variance (divisor q-1) vs exact population variance
        pop_var = math.fsum((v - est.mean) ** 2 for v in est.values) / q
        assert est.sd == pytest.approx(math.sqrt(pop_var * q / (q - 1)), rel=1e-12)
