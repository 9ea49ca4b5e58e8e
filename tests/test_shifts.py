import math
import random
import time

import numpy as np
import pytest

from latshift import (
    DyadicPoint,
    EmbeddedPair,
    FileBitSource,
    GridShift,
    ProductBernoulliFn,
    Rank1Rule,
    RealShift,
    ScalarShift,
    estimate_mean,
    eval_grid_shifted,
    eval_real_shifted,
    eval_rule,
    eval_scalar_shifted,
    extended_rule_value,
    korobov_vector,
    load_bit_file,
    rectangle_rule_mean,
    scalar_evaluator,
)

from latshift.shifts import grid_offsets

from conftest import rel_err


class TestBitCodecs:
    """How a draw of s*r bits becomes a shift: `GridShift.from_word` splits
    it coordinate-major, the first coordinate highest; a scalar shift holds
    the whole draw, the first bit highest."""

    def test_grid_all_zero(self):
        v = GridShift.from_word(0, 4, 2)
        assert v.nums == (0, 0)

    def test_grid_leading_bit_is_half(self):
        v = GridShift.from_word(0b1000, 4, 1)
        assert v.nums == (8,) and v.r == 4

    def test_grid_coordinate_major(self):
        v = GridShift.from_word(0b1011, 2, 2)
        assert v.nums == (2, 3)

    def test_grid_zero_bits_per_coordinate(self):
        assert GridShift.from_word(0, 0, 3) == GridShift((0, 0, 0), 0)

    def test_grid_drawn_bits_in_file_order(self, tmp_path):
        p = tmp_path / "bits.txt"
        p.write_text("101 110 001 011")
        assert GridShift.from_word(load_bit_file(p).draw(12), 3, 4).nums == (5, 6, 1, 3)

    def test_scalar_all_zero(self):
        w = ScalarShift(FileBitSource("0" * 12).draw(12), 12)
        assert w.wnum == 0 and w.sr == 12

    def test_scalar_leading_bit(self):
        w = ScalarShift(FileBitSource("1" + "0" * 11).draw(12), 12)
        assert w.wnum == 2048

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            GridShift.from_word(1 << 4, 4, 1)
        with pytest.raises(ValueError):
            GridShift.from_word(-1, 2, 2)
        with pytest.raises(ValueError):
            GridShift.from_word(0, -1, 2)
        with pytest.raises(ValueError):
            GridShift.from_word(0, 2, 0)

    def test_deep_shifts_checked_by_bit_length(self):
        # the range checks never form 2^r, 2^sr or 2^(r*s)
        assert GridShift((1,), 10**12).nums == (1,)
        assert ScalarShift(1, 10**12).wnum == 1
        assert GridShift.from_word(5, 10**12, 2).nums == (0, 5)
        with pytest.raises(ValueError):
            GridShift((8,), 3)
        with pytest.raises(ValueError):
            ScalarShift(8, 3)
        assert GridShift((7,), 3).nums == (7,) and ScalarShift(7, 3).wnum == 7

    @pytest.mark.parametrize("s, r", [(1, 0), (3, 0), (1, 1), (1, 64), (2, 5), (3, 7), (4, 16), (8, 8), (16, 4)])
    def test_grid_offsets_split_words_as_from_word(self, s, r):
        # the vectorized split of a whole array of words, field by field
        rng = random.Random(31 * s + r)
        words = [0, (1 << r * s) - 1] + [rng.getrandbits(r * s) for _ in range(200)]
        got = grid_offsets(np.array(words, dtype=np.uint64), s, r)
        assert got.dtype == np.uint64 and got.shape == (s, len(words))
        assert [tuple(col) for col in got.T.tolist()] == [GridShift.from_word(w, r, s).nums for w in words]

    def test_grid_split_takes_time_linear_in_the_word(self):
        # an ideal estimate at s = 2^17 draws a word of 53 * 2^17 bits: one
        # shift a coordinate would copy it 2^17 times (about 20 s on a
        # 2-core Xeon); one pass over its digits takes about 0.1 s
        s, r = 1 << 17, 53
        rng = random.Random(5)
        nums = tuple(rng.getrandbits(r) for _ in range(s))
        word = int("".join(format(v, f"0{r}b") for v in nums), 2)
        start = time.perf_counter()
        assert GridShift.from_word(word, r, s).nums == nums
        assert time.perf_counter() - start < 2.0

    def test_grid_codec_bijective_exhaustive(self):
        r, s = 4, 4  # all 2^16 words; the fold back is the inverse
        for word in range(1 << (r * s)):
            back = 0
            for num in GridShift.from_word(word, r, s).nums:
                back = (back << r) | num
            assert back == word


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
        u = RealShift(DyadicPoint(v.nums, v.r).as_floats())
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
            estimate_mean(lambda ws: [0.0 for _ in ws], [])

    def test_single_replicate_has_no_sd(self):
        est = estimate_mean(lambda ws: [1.25 for _ in ws], [ScalarShift(0, 4)])
        assert est.q == 1 and est.mean == 1.25 and est.sd is None

    def test_squares_past_the_float_range_give_an_infinite_sd(self):
        est = estimate_mean(lambda ws: [1e300, -1e300], [ScalarShift(0, 4)] * 2)
        assert est.mean == 0.0 and est.sd == math.inf

    def test_constant_replicates(self):
        f = ProductBernoulliFn(2)
        pair = EmbeddedPair(3, 6, korobov_vector(1267, 2, 9))
        w0 = ScalarShift(0, 6)
        est = estimate_mean(scalar_evaluator(pair, f), [w0] * 5)
        assert est.mean == eval_rule(pair.base_rule(), f)
        assert est.sd == 0.0

    def test_exhaustive_replicates_recover_exact_moments(self):
        s, m, r = 2, 2, 2
        sr = s * r
        f = ProductBernoulliFn(s)
        pair = EmbeddedPair(m, sr, korobov_vector(17797, s, m + sr))
        shifts = [ScalarShift(w, sr) for w in range(1 << sr)]
        est = estimate_mean(scalar_evaluator(pair, f), shifts)
        q = est.q
        assert rel_err(est.mean, extended_rule_value(pair, f)) < 1e-12
        # sample variance (divisor q-1) vs exact population variance
        pop_var = math.fsum((v - est.mean) ** 2 for v in est.values) / q
        assert est.sd == pytest.approx(math.sqrt(pop_var * q / (q - 1)), rel=1e-12)
