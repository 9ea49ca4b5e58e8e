import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from latshift import (
    DyadicPoint,
    EmbeddedPair,
    GeneratingVector,
    GuardLimitError,
    Rank1Rule,
    korobov_vector,
)

from conftest import coset_node, dyadic_add, dyadic_rescaled, extended_node


class TestDyadicPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            DyadicPoint((4,), 2)
        with pytest.raises(ValueError):
            DyadicPoint((-1,), 2)
        with pytest.raises(ValueError):
            DyadicPoint((), 2)

    def test_deep_point_checked_by_bit_length(self):
        # the range check never forms 2^t
        assert DyadicPoint((1,), 10**12).nums == (1,)
        assert DyadicPoint((3,), 2).nums == (3,)

    def test_deep_point_reads_as_zero_in_bounded_memory(self):
        # a coordinate below 2^-1076 rounds to 0.0 without forming 2^t
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from latshift import DyadicPoint\n"
            "print(DyadicPoint((1, 0), 10**12).as_floats())\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "(0.0, 0.0)"

    @pytest.mark.parametrize("t", [1100, 2200])
    def test_deep_point_rounds_correctly_at_the_zero_threshold(self, t):
        # numerators of b bits with t - b on both sides of the 1075-bit cut
        for b in range(t - 1080, t - 1069):
            for n in ((1 << b) - 1, 1 << (b - 1), (1 << (b - 1)) + 1):
                assert DyadicPoint((n,), t).as_floats() == (float(Fraction(n, 1 << t)),)

    # rescaling and addition are the test-side reference arithmetic
    def test_rescale_preserves_value(self):
        p = DyadicPoint((3, 5), 3)
        q = dyadic_rescaled(p, 7)
        assert q.t == 7
        assert [Fraction(n, 1 << 7) for n in q.nums] == [Fraction(n, 1 << 3) for n in p.nums]
        assert q.as_floats() == p.as_floats()
        with pytest.raises(ValueError):
            dyadic_rescaled(q, 3)

    def test_add_wraps_mod_one(self):
        a = DyadicPoint((3,), 2)
        b = DyadicPoint((3,), 2)
        assert dyadic_add(a, b).nums == (2,)

    def test_add_aligns_depths(self):
        a = DyadicPoint((1,), 1)   # 1/2
        b = DyadicPoint((3,), 3)   # 3/8
        assert dyadic_add(a, b) == DyadicPoint((7,), 3)

    def test_as_floats_exact(self):
        p = DyadicPoint((11, 1), 4)
        assert p.as_floats() == (11 / 16, 1 / 16)

    def test_as_floats_survives_extreme_depth(self):
        t = 1100
        p = DyadicPoint(((1 << (t - 1)) + 1,), t)
        assert p.as_floats() == (0.5,)


class TestGeneratingVector:
    def test_rejects_even_components(self):
        with pytest.raises(ValueError):
            GeneratingVector((1, 2), 4)
        with pytest.raises(ValueError):
            GeneratingVector((0,), 4)

    def test_reduces_mod_depth(self):
        z = GeneratingVector((1, 17,), 4)
        assert z.components == (1, 1)

    def test_vector_bits_guarded_before_the_vector(self):
        # s * max(t, 64) bits: 2^20 components of at most 64 bits, or
        # 2^26 / s bits of depth, and one more is refused before 2^t is formed
        assert GeneratingVector((1,), 1 << 26).t == 1 << 26
        with pytest.raises(GuardLimitError, match="^67108866 generating vector bits exceed the 2"):
            GeneratingVector((1, 1), (1 << 25) + 1)
        with pytest.raises(GuardLimitError, match="^1000000000000 generating vector bits exceed the 2"):
            GeneratingVector((1,), 10**12)


class TestKorobovVector:
    def test_identity_base(self):
        assert korobov_vector(1, 4, 16).components == (1, 1, 1, 1)

    def test_modular_powers(self):
        # oracle: big-integer power reduced afterwards
        assert 17797**2 % 65536 == 63257
        assert korobov_vector(17797, 3, 16).components == (1, 17797, 63257)

    def test_small_ell_unreduced(self):
        assert korobov_vector(1267, 2, 15).components == (1, 1267)

    def test_reduction_before_or_after_is_identical(self):
        t = 10
        direct = korobov_vector(12915, 4, t)
        pre_reduced = korobov_vector(12915 % (1 << t), 4, t)
        assert direct == pre_reduced

    def test_vector_bits_guarded_before_any_component(self):
        # no 2^t and no per-component loop: each refusal comes at once
        with pytest.raises(GuardLimitError, match="^2000000000000 generating vector bits exceed the 2"):
            korobov_vector(1, 2, 10**12)
        with pytest.raises(GuardLimitError, match="^67108928 generating vector bits exceed the 2"):
            korobov_vector(1, (1 << 20) + 1, 1)
        with pytest.raises(GuardLimitError, match="^1920000000 generating vector bits exceed the 2"):
            korobov_vector(1, 30_000_000, 1)

    @pytest.mark.parametrize("ell,s,t", [(2, 3, 8), (0, 3, 8), (-3, 3, 8), (3, 0, 8), (3, 3, 0)])
    def test_rejects_bad_arguments(self, ell, s, t):
        with pytest.raises(ValueError):
            korobov_vector(ell, s, t)


class TestRank1Rule:
    def setup_method(self):
        self.rule = Rank1Rule(3, GeneratingVector((1, 3), 3))

    @pytest.mark.parametrize("j,expected", [(0, (0, 0)), (2, (2, 6)), (5, (5, 7))])
    def test_node_examples(self, j, expected):
        assert self.rule.node(j).nums == expected

    def test_node_index_out_of_range(self):
        with pytest.raises(ValueError):
            self.rule.node(8)
        with pytest.raises(ValueError):
            self.rule.node(-1)

    def test_group_law_exhaustive(self):
        n = self.rule.n_points
        for j1 in range(n):
            for j2 in range(n):
                total = dyadic_add(self.rule.node(j1), self.rule.node(j2))
                assert total == self.rule.node((j1 + j2) % n)

    def test_nodes_are_reproducible(self):
        assert self.rule.node(5) == self.rule.node(5)

    def test_vector_too_shallow(self):
        with pytest.raises(ValueError):
            Rank1Rule(4, GeneratingVector((1, 3), 3))


class TestEmbeddedPair:
    def setup_method(self):
        self.pair = EmbeddedPair(2, 4, GeneratingVector((1, 3), 6))

    def test_extended_node_zero(self):
        assert extended_node(self.pair, 0).nums == (0, 0)
        assert self.pair.extended_rule() == Rank1Rule(6, self.pair.z)

    def test_embedding_identity(self):
        base = self.pair.base_rule()
        ext = self.pair.extended_rule()
        for j in range(base.n_points):
            assert ext.node(j << self.pair.sr) == dyadic_rescaled(base.node(j), self.pair.ext)

    def test_extended_node_korobov_first_index(self):
        pair = EmbeddedPair(4, 12, korobov_vector(17797, 3, 16))
        assert pair.extended_rule().node(1).nums == (1, 17797, 63257)
        assert pair.extended_rule().node(1).t == 16

    def test_coset_zero_is_base(self):
        base = self.pair.base_rule()
        for j in range(base.n_points):
            assert coset_node(self.pair, j, 0) == dyadic_rescaled(base.node(j), self.pair.ext)

    def test_coset_definition(self):
        # coset w is the base lattice advanced by the fractional index w / 2^sr
        ext = self.pair.extended_rule()
        step = ext.node(1)
        for j in range(1 << self.pair.m):
            for w in range(1, 1 << self.pair.sr):
                assert coset_node(self.pair, j, w) == dyadic_add(coset_node(self.pair, j, w - 1), step)

    @pytest.mark.parametrize("m,sr", [(2, 4), (3, 6)])
    def test_coset_partition(self, m, sr):
        pair = EmbeddedPair(m, sr, GeneratingVector((1, 5), m + sr))
        seen = set()
        for j in range(1 << m):
            for w in range(1 << sr):
                seen.add(coset_node(pair, j, w).nums)
        ext = pair.extended_rule()
        expected = {ext.node(k).nums for k in range(1 << (m + sr))}
        assert len(seen) == 1 << (m + sr)
        assert seen == expected

    def test_index_validation(self):
        with pytest.raises(ValueError):
            self.pair.base_rule().node(1 << self.pair.m)
        with pytest.raises(ValueError):
            self.pair.extended_rule().node(1 << self.pair.ext)
        with pytest.raises(ValueError):
            EmbeddedPair(2, 5, GeneratingVector((1, 3), 6))
