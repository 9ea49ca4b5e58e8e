import math
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
    PeriodicFunction,
    ProductBernoulliFn,
    Rank1Rule,
    ScalarShift,
    eval_grid_shifted,
    eval_rule,
    eval_scalar_shifted,
    extended_rule_value,
    korobov_vector,
    moments_grid_shift,
    moments_scalar_shift,
    rectangle_rule_mean,
)

from latshift import shifts as shifts_module
from latshift.moments import _report, chunked_map
from latshift.reference import REFERENCE_CELLS
from latshift.shifts import DisplacedBlocks, coset_blocks, coset_offsets, grid_blocks, grid_offsets

from conftest import count_calls, index_block_count, rel_err, set_block_nodes

# frozen from the exact-rational enumeration oracle (Fraction arithmetic,
# converted to float at the end); the float pipeline must agree closely
EXACT_STATS = {
    # (s, m, r, ell): (bias_grid, sd_grid, bias_scalar, sd_scalar)
    (3, 4, 4, 17797): (1.954396841702638e-3, 7.937577255576664e-4, 5.1619162835909386e-9, 8.389065803427922e-4),
    (3, 4, 4, 1267): (1.954396841702638e-3, 7.937577255576664e-4, 1.5158090747349946e-8, 8.373605029734753e-4),
    (3, 4, 4, 12915): (1.954396841702638e-3, 7.937577255576664e-4, 1.9154795114105065e-8, 8.377855040775839e-4),
    (2, 5, 5, 17797): (3.255473242865668e-4, 1.6597786406663046e-4, 1.2939601331487311e-9, 1.8194418231206588e-4),
    (2, 5, 5, 1267): (3.255473242865668e-4, 1.6597786406663046e-4, 4.4992694844216754e-9, 1.8195363287846724e-4),
    (2, 5, 5, 12915): (3.255473242865668e-4, 1.6597786406663046e-4, 1.782019947933678e-9, 1.8202272191792567e-4),
}


class TestTableCellsAgainstExactOracle:
    def test_all_cells(self, table_cells):
        for key, (grid, scalar) in table_cells.items():
            bias_v, sd_v, bias_w, sd_w = EXACT_STATS[key]
            assert rel_err(grid.bias, bias_v) < 1e-10, key
            assert rel_err(grid.sd, sd_v) < 1e-10, key
            assert rel_err(scalar.bias, bias_w) < 1e-6, key
            assert rel_err(scalar.sd, sd_w) < 1e-10, key

    def test_reference_cells_match_oracle(self):
        # catches a transcription slip in the bundled table at unit level
        # expectations() and EXACT_STATS share the order grid bias, grid sd,
        # scalar bias, scalar sd
        for cell in REFERENCE_CELLS:
            exact = EXACT_STATS[(cell.s, cell.m, cell.r, cell.ell)]
            for (scheme, stat, expected, rtol), value in zip(cell.expectations(), exact, strict=True):
                err = rel_err(value, expected)
                assert err <= rtol, (cell, scheme, stat, err)

    def test_scheme_sds_are_comparable(self, table_cells):
        # the two schemes spend the same bit budget; their spreads stay close
        # and the grid scheme's bias is of the order of its own SD
        for grid, scalar in table_cells.values():
            assert 0.9 <= scalar.sd / grid.sd <= 1.2
            assert 1 / 5 <= abs(grid.bias) / grid.sd <= 5

    def test_reports_are_well_formed(self, table_cells):
        for grid, scalar in table_cells.values():
            for rep in (grid, scalar):
                assert rep.sd == math.sqrt(rep.variance)
                assert rep.variance >= 0.0
                assert rep.method == "enumeration"
                assert rep.mean_check_rel_err <= 1e-12
            assert grid.scheme == "grid-shift"
            assert scalar.scheme == "scalar-shift"
            assert grid.shift_space_size == scalar.shift_space_size


class TestExactRationalSpotCheck:
    def test_small_scalar_config(self):
        # full independent recomputation in exact rational arithmetic
        s, m, r, ell = 2, 3, 3, 1267
        sr = s * r
        ext = m + sr
        z = [pow(ell, i, 1 << ext) for i in range(s)]
        sixth = Fraction(1, 6)

        def fval(k):
            out = Fraction(1)
            for zi in z:
                x = Fraction((k * zi) % (1 << ext), 1 << ext)
                out *= 1 + x * x - x + sixth
            return out

        qs = []
        for w in range(1 << sr):
            acc = Fraction(0)
            for j in range(1 << m):
                acc += fval((j << sr) | w)
            qs.append(acc / (1 << m))
        mean = sum(qs) / len(qs)
        var = sum((q - mean) ** 2 for q in qs) / len(qs)

        f = ProductBernoulliFn(s)
        pair = EmbeddedPair(m, sr, korobov_vector(ell, s, ext))
        rep = moments_scalar_shift(pair, f)
        assert rel_err(rep.mean, float(mean)) < 1e-13
        assert rel_err(rep.variance, float(var)) < 1e-10
        assert rel_err(rep.mu3, float(sum((q - mean) ** 3 for q in qs) / len(qs))) < 1e-8


def grid_words(s: int, r: int):
    """The offset columns lo .. hi - 1 of the r-bit grid shifts in s
    dimensions, for `DisplacedBlocks.stream`."""
    return lambda lo, hi: grid_offsets(np.arange(lo, hi, dtype=np.uint64), s, r)


def full_grid_report(rule: Rank1Rule, f: ProductBernoulliFn, r: int):
    """The grid-shift report over all 2^(r*s) shifts, every class in full."""
    s = rule.s
    size = 1 << (r * s)
    blocks = grid_blocks(rule, f, r)
    return _report("grid-shift", lambda: blocks.stream(grid_words(s, r), size), size, f,
                   rectangle_rule_mean(f, s, r), size)


def report_bits(rep) -> dict:
    return {k: v.hex() if isinstance(v, float) else v for k, v in rep.to_dict().items()}


class TestGridCosetRepresentatives:
    """Enumerating one shift per lattice-translation class reports the full
    space's moments bit for bit."""

    CELLS = ((3, 4, 4, 17797), (3, 4, 4, 1267), (3, 4, 4, 12915), (2, 5, 5, 17797), (2, 5, 5, 1267),
             (2, 5, 5, 12915), (3, 3, 4, 7163), (2, 2, 6, 3))

    @pytest.mark.parametrize("s, m, r, ell", CELLS)
    def test_cells_match_full_enumeration(self, s, m, r, ell):
        rule = Rank1Rule(m, korobov_vector(ell, s, m))
        f = ProductBernoulliFn(s)
        rep = moments_grid_shift(rule, f, r)
        assert report_bits(rep) == report_bits(full_grid_report(rule, f, r))
        assert rep.shift_space_size == 1 << (r * s)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_random_rules_match_full_enumeration(self, s, data):
        r = data.draw(st.integers(0, 9 // s))
        m = data.draw(st.integers(0, r))
        z = tuple(data.draw(st.integers(0, (1 << max(m, 1)) - 1)) | 1 for _ in range(s))
        rule = Rank1Rule(m, GeneratingVector(z, max(m, 1)))
        f = ProductBernoulliFn(s)
        assert report_bits(moments_grid_shift(rule, f, r)) == report_bits(full_grid_report(rule, f, r))


class TestRectangleRuleMean:
    @pytest.mark.parametrize("r", range(15))
    def test_factor_path_equals_pointwise_fsum(self, r):
        # the vectorized factor reproduces the per-point factor calls bitwise
        f = ProductBernoulliFn(3)
        n = 1 << r
        expected = (math.fsum(f.factor(i * (1.0 / n)) for i in range(n)) / n) ** 3
        got = rectangle_rule_mean(f, 3, r)
        assert type(got) is float and got.hex() == expected.hex()

    def test_closed_form_3_4(self):
        f = ProductBernoulliFn(3)
        assert rel_err(rectangle_rule_mean(f, 3, 4), (1 + 1 / 1536) ** 3) < 1e-13

    def test_closed_form_2_5(self):
        f = ProductBernoulliFn(2)
        assert rel_err(rectangle_rule_mean(f, 2, 5), (1 + 1 / 6144) ** 2) < 1e-13

    def test_single_point_grid(self):
        f = ProductBernoulliFn(1)
        assert rectangle_rule_mean(f, 1, 0) == pytest.approx(7 / 6, rel=1e-14)

    def test_non_factorized_path_agrees(self):
        class Wrapped(ProductBernoulliFn):
            factor = None  # hide the factorization

        f = ProductBernoulliFn(2)
        w = Wrapped(2)
        assert rel_err(rectangle_rule_mean(w, 2, 4), rectangle_rule_mean(f, 2, 4)) < 1e-13

    @pytest.mark.parametrize("block", [1 << 16, 5])
    def test_non_factorized_path_streams_one_fsum(self, block, monkeypatch):
        # blocks of grid points, the last one short, reduce to the one
        # correctly rounded sum over the whole grid
        class Wrapped(ProductBernoulliFn):
            factor = None

        monkeypatch.setattr(shifts_module, "BLOCK_NODES", block)
        f = Wrapped(2)
        for r in range(7):
            n = 1 << r
            xs = grid_offsets(np.arange(n * n, dtype=np.uint64), 2, r) * (1.0 / n)
            expected = math.fsum(f.eval_batch(xs).tolist()) / (n * n)
            assert rectangle_rule_mean(f, 2, r).hex() == expected.hex()

    def test_non_factorized_guard(self):
        class Wrapped(ProductBernoulliFn):
            factor = None

        with pytest.raises(GuardLimitError):
            rectangle_rule_mean(Wrapped(3), 3, 10)

    @pytest.mark.parametrize("r", [27, 40])
    def test_factorized_coordinate_guard(self, r):
        # the per-coordinate path holds 2^r grid coordinates: refused above
        # 2^26 before allocating (2^40 would ask for 8 TiB)
        with pytest.raises(GuardLimitError):
            rectangle_rule_mean(ProductBernoulliFn(2), 2, r)

    def test_huge_resolution_refused_without_forming_the_grid_size(self):
        # the guard takes r and r * s as exponents, so neither 2^r nor
        # 2^(r*s) is built: each refusal comes at once
        class Wrapped(ProductBernoulliFn):
            factor = None

        with pytest.raises(GuardLimitError, match=r"^at least 2\^1000000000000 grid coordinates exceed"):
            rectangle_rule_mean(ProductBernoulliFn(2), 2, 10**12)
        with pytest.raises(GuardLimitError, match=r"^at least 2\^2000000000000 grid points of an integrand"):
            rectangle_rule_mean(Wrapped(2), 2, 10**12)


class TestExtendedRuleValue:
    def test_degenerate_extension_is_base_rule(self):
        f = ProductBernoulliFn(2)
        pair = EmbeddedPair(4, 0, korobov_vector(1267, 2, 4))
        assert extended_rule_value(pair, f) == eval_rule(pair.base_rule(), f)

    def test_invariant_under_odd_scaling(self):
        # the node set is invariant under z -> c*z mod 2^ext for odd c
        s, m, sr = 2, 3, 5
        ext = m + sr
        n = 1 << ext
        f = ProductBernoulliFn(s)
        base = extended_rule_value(EmbeddedPair(m, sr, korobov_vector(17797, s, ext)), f)
        z0 = korobov_vector(17797, s, ext).components
        for c in range(1, n, 2):
            z = GeneratingVector(tuple(c * zi for zi in z0), ext)
            val = extended_rule_value(EmbeddedPair(m, sr, z), f)
            assert rel_err(val, base) < 1e-13

    def test_guard(self):
        f = ProductBernoulliFn(1)
        with pytest.raises(GuardLimitError):
            extended_rule_value(EmbeddedPair(14, 13, GeneratingVector((1,), 27)), f)

    @pytest.mark.parametrize("block", [1 << 14, 5, 64])
    def test_reflection_halves_the_nodes_and_keeps_the_sum(self, block, monkeypatch):
        # node 0 once, nodes n - k, k = 1 .. n/2 - 1, twice and node n/2
        # once: the same correctly rounded sum as all n nodes, from n/2 + 1
        # evaluations
        set_block_nodes(monkeypatch, block)
        for ext, z in [(0, (1,)), (1, (1, 3)), (2, (1, 7)), (7, (1, 7)), (12, (1, 5709, 1267)), (15, (1, 17797))]:
            pair = EmbeddedPair(ext, 0, GeneratingVector(z, max(ext, 1)))
            half, full = CountedFn(len(z)), CountedFn(len(z), symmetric=False)
            assert extended_rule_value(pair, half).hex() == extended_rule_value(pair, full).hex(), (ext, z)
            assert full.points == evaluated(1 << ext, block), (ext, z)
            assert half.points == (evaluated(1 << ext - 1, block) + 1 if ext else 1), (ext, z)


def evaluated(nodes: int, block: int) -> int:
    """The points evaluated for nodes index-order nodes in blocks of at most
    block: every block is evaluated in full, a short last one too."""
    width = min(nodes, block)
    return -(-nodes // width) * width


class CountedFn(ProductBernoulliFn):
    """The Bernoulli product, counting the points it is evaluated at."""

    def __init__(self, s: int, symmetric: bool = True) -> None:
        super().__init__(s)
        self.reflection_symmetric = symmetric
        self.points = 0

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        self.points += xs[0].size
        return super().eval_batch(xs)


class TestIdentityCrossCheck:
    def test_fires_on_inconsistent_factorization(self):
        # a per-coordinate factor that disagrees with eval makes the
        # rectangle-rule route diverge from the enumeration route
        from latshift import IdentityCheckError
        from latshift.functions import bernoulli2

        class LyingFactor(ProductBernoulliFn):
            def factor(self, x):
                return 1.0 + bernoulli2(x) + 1e-6

        rule = Rank1Rule(3, korobov_vector(17797, 2, 3))
        with pytest.raises(IdentityCheckError):
            moments_grid_shift(rule, LyingFactor(2), 3)


class TestGuardsAndValidation:
    def test_grid_requires_r_at_least_m(self):
        f = ProductBernoulliFn(2)
        rule = Rank1Rule(4, korobov_vector(1267, 2, 4))
        with pytest.raises(ValueError, match="below rule resolution"):
            moments_grid_shift(rule, f, 3)

    def test_grid_shift_space_guard(self):
        f = ProductBernoulliFn(3)
        rule = Rank1Rule(3, korobov_vector(1267, 3, 3))
        with pytest.raises(GuardLimitError):
            moments_grid_shift(rule, f, 9)  # 2^27 shifts

    def test_scalar_shift_space_guard(self):
        f = ProductBernoulliFn(3)
        pair = EmbeddedPair(1, 27, korobov_vector(1267, 3, 28))
        with pytest.raises(GuardLimitError):
            moments_scalar_shift(pair, f)

    def test_guard_names_huge_counts_by_size(self):
        # 2^15000 has more digits than str() converts by default
        f = ProductBernoulliFn(3)
        rule = Rank1Rule(3, korobov_vector(1267, 3, 3))
        with pytest.raises(GuardLimitError, match=r"at least 2\^15000 grid shifts"):
            moments_grid_shift(rule, f, 5000)


def exact_moments(values: list[float]) -> tuple[Fraction, Fraction]:
    """The variance and the third central moment of the values, exactly."""
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    d = [x - mean for x in exact]
    return sum(x * x for x in d) / len(d), sum(x * x * x for x in d) / len(d)


def ulps_off(got: float, exact: Fraction) -> float:
    """|got - exact| in units of the last place of the float nearest exact."""
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))


def check_report(rep, values: list[float], check: float, f: PeriodicFunction) -> None:
    """rep against its definition over the class values: the mean (summed
    about If), the bias and the identity residual bit for bit as math.fsum
    forms them, var within 1 ulp and mu3 within 4 ulps of the exact central
    moments of the values."""
    n, offset = len(values), f.known_integral
    delta = math.fsum(v - offset for v in values) / n
    mean = offset + delta
    assert (rep.mean.hex(), rep.bias.hex()) == (mean.hex(), delta.hex())
    assert rep.mean_check_rel_err.hex() == (abs(mean - check) / abs(check)).hex()
    var, mu3 = exact_moments(values)
    assert ulps_off(rep.variance, var) <= 1.0
    assert ulps_off(rep.mu3, mu3) <= 4.0


class TestBlockSizes:
    """Reports do not depend on how the shifts are blocked: 1 to 7 columns
    a block (the last block short for 3, 5, 6 and 7) and 2^16 nodes."""

    CELLS = (("scalar", 2, 0, 3), ("scalar", 2, 3, 3), ("grid", 2, 0, 3), ("grid", 2, 2, 3))

    @pytest.mark.parametrize("scheme, s, m, r", CELLS)
    def test_reports_hex_equal_across_block_sizes(self, scheme, s, m, r, monkeypatch):
        f = ProductBernoulliFn(s)
        if scheme == "scalar":
            pair = EmbeddedPair(m, s * r, korobov_vector(17797, s, m + s * r))
            values = [eval_scalar_shifted(pair, f, ScalarShift(w, s * r)) for w in range(1 << (s * r))]
            check = extended_rule_value(pair, f)
            moments = lambda: moments_scalar_shift(pair, f)  # noqa: E731
        else:
            rule = Rank1Rule(m, korobov_vector(17797, s, max(m, 1)))
            # one shift per lattice-translation class, as moments_grid_shift enumerates
            nums = grid_offsets(np.arange(1 << (r * s - m), dtype=np.uint64), s, r)
            values = [eval_grid_shifted(rule, f, GridShift(tuple(v), r)) for v in nums.T.tolist()]
            check = rectangle_rule_mean(f, s, r)
            moments = lambda: moments_grid_shift(rule, f, r)  # noqa: E731
        check_report(moments(), values, check, f)
        expected = report_bits(moments())
        sizes = [k << m for k in range(1, 8)] + [1 << 16]
        widths = []
        for block in sizes:
            set_block_nodes(monkeypatch, block)
            if scheme == "scalar":
                assert extended_rule_value(pair, f).hex() == check.hex(), block
                # the identity's index blocks are of the patched size too
                assert index_block_count(pair.ext) == -(-(1 << pair.ext) // block), block
                widths.append(coset_blocks(pair, f).width)
            else:
                widths.append(grid_blocks(rule, f, r).width)
            assert report_bits(moments()) == expected, block
        # the patch reaches the block width: each size blocks the shifts its own way
        assert widths == [block >> m for block in sizes]


class FullFn(ProductBernoulliFn):
    """The Bernoulli product without its reflection declaration, so every
    coset is enumerated."""

    reflection_symmetric = False


class SkewFn(PeriodicFunction):
    """prod_i (1/2 + x_i): integral 1, and f(1 - x) != f(x)."""

    known_integral = 1.0

    def __init__(self, s: int, symmetric: bool = False) -> None:
        self._s = s
        # a false declaration, for the identity to catch
        self.reflection_symmetric = symmetric

    @property
    def s(self) -> int:
        return self._s

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        out = np.ones(xs.shape[1:])
        for x in xs:
            out *= 0.5 + x
        return out


def brute_scalar_values(pair: EmbeddedPair, f: PeriodicFunction) -> tuple[list[float], float]:
    """Every coset's mean from its nodes in Python ints and floats, and the
    extended rule's mean over all nodes in index order."""
    t, sr, z = pair.ext, pair.sr, pair.z.components

    def value(k: int) -> float:
        return f.eval_real([(k * c % (1 << t)) / (1 << t) for c in z])

    cosets = [
        1.0 + math.fsum(value((j << sr) | w) - 1.0 for j in range(1 << pair.m)) / (1 << pair.m)
        for w in range(1 << sr)
    ]
    return cosets, 1.0 + math.fsum(value(k) - 1.0 for k in range(1 << t)) / (1 << t)


class TestReflectionSymmetry:
    """A reflection-symmetric f enumerates cosets 0 .. 2^(sr-1) and counts
    the ones between twice; its reports equal the full enumeration's."""

    # sr = 0, sr = 1 and m = 0 included
    CELLS = ((1, 0, 0), (2, 3, 0), (1, 0, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1), (1, 0, 5), (3, 0, 2),
             (2, 2, 2), (3, 1, 3), (2, 4, 3), (2, 0, 6), (3, 4, 4))

    @pytest.mark.parametrize("s, m, r", CELLS)
    def test_half_and_full_enumerations_give_equal_reports(self, s, m, r, monkeypatch):
        sr = s * r
        calls = count_calls(monkeypatch, DisplacedBlocks, "stream")
        for ell in (1267, 17797, 5709):
            pair = EmbeddedPair(m, sr, korobov_vector(ell, s, max(m + sr, 1)))
            half = moments_scalar_shift(pair, ProductBernoulliFn(s))
            full = moments_scalar_shift(pair, FullFn(s))
            assert half == full and report_bits(half) == report_bits(full), ell
        half_cosets = (1 << sr - 1) + 1 if sr else 1
        assert [args[2] for args in calls] == [half_cosets, 1 << sr] * 3

    @pytest.mark.parametrize("s, m, r", [(1, 0, 3), (2, 1, 2), (2, 2, 2), (3, 0, 2), (1, 3, 4)])
    def test_asymmetric_integrand_matches_brute_force(self, s, m, r, monkeypatch):
        calls = count_calls(monkeypatch, DisplacedBlocks, "stream")
        pair = EmbeddedPair(m, s * r, korobov_vector(1267, s, m + s * r))
        f = SkewFn(s)
        values, check = brute_scalar_values(pair, f)
        # some reflected cosets differ, so halving would change the moments
        assert any(values[w] != values[-w] for w in range(1, len(values)))
        check_report(moments_scalar_shift(pair, f), values, check, f)
        assert [args[2] for args in calls] == [1 << s * r]

    @pytest.mark.parametrize("s, m, r", [(1, 0, 3), (1, 2, 2), (2, 0, 2), (2, 2, 2), (3, 1, 2), (2, 4, 3)])
    def test_false_declaration_fails_the_halved_identity(self, s, m, r):
        # the identity pairs node k with n - k, and the enumeration pairs
        # coset w with 2^sr - w: for an f that is not symmetric each halving
        # misses the mean its own way, so the check still fails
        from latshift import IdentityCheckError

        pair = EmbeddedPair(m, s * r, korobov_vector(1267, s, m + s * r))
        lying, honest = SkewFn(s, symmetric=True), SkewFn(s)
        assert extended_rule_value(pair, lying) != extended_rule_value(pair, honest)
        with pytest.raises(IdentityCheckError, match="^scalar-shift mean .* disagrees with its identity value"):
            moments_scalar_shift(pair, lying)

    def test_false_declaration_fails_the_identity(self):
        # the extended rule keeps every node, so half the cosets of an f
        # that is not symmetric miss its mean
        from latshift import IdentityCheckError

        pair = EmbeddedPair(2, 4, korobov_vector(1267, 2, 6))
        with pytest.raises(IdentityCheckError, match="^scalar-shift mean"):
            moments_scalar_shift(pair, SkewFn(2, symmetric=True))


def traced_peak(fn) -> int:
    """The tracemalloc peak of fn(), after one untraced call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockMemory:
    def test_scalar_m0_peak_per_node(self):
        # s = 4, m = 0: 2^16 one-node cosets.  The report holds one block
        # of class values and their terms, whatever the cell's size.
        # Blocks of 2^16 nodes peaked at 128 bytes a node here.
        pair = EmbeddedPair(0, 16, korobov_vector(17797, 4, 16))
        peak = traced_peak(lambda: moments_scalar_shift(pair, ProductBernoulliFn(4)))
        assert peak / (1 << 16) < 64

    def test_scalar_peak_is_flat_in_the_shift_count(self):
        # s = 2, m = 0: 2^16 and 2^22 one-node cosets; a list of the class
        # values would take 8 bytes a shift, 17 MB more at 2^22
        f = ProductBernoulliFn(2)
        peaks = [
            traced_peak(lambda: moments_scalar_shift(EmbeddedPair(0, sr, korobov_vector(17797, 2, sr)), f))
            for sr in (16, 22)
        ]
        assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks

    def test_grid_peak_is_flat_in_the_class_count(self):
        # s = 2, m = 0: 2^16 and 2^20 classes of one shift each
        f = ProductBernoulliFn(2)
        rule = Rank1Rule(0, korobov_vector(17797, 2, 1))
        peaks = [traced_peak(lambda: moments_grid_shift(rule, f, r)) for r in (8, 10)]
        assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks


class NoIntegralFn(ProductBernoulliFn):
    """The Bernoulli product without its known integral: the mean is summed
    about 0, and the bias is not reported."""

    known_integral = None


def scalar_values(pair: EmbeddedPair, f: PeriodicFunction) -> list[float]:
    """The rule value of every coset, through the enumeration's blocks."""
    offsets = lambda lo, hi: coset_offsets(pair, np.arange(lo, hi, dtype=np.uint64))  # noqa: E731
    return np.concatenate(list(coset_blocks(pair, f).stream(offsets, 1 << pair.sr))).tolist()


def grid_values(rule: Rank1Rule, f: PeriodicFunction, r: int) -> list[float]:
    """The rule value of one shift per lattice-translation class."""
    classes = 1 << (r * rule.s - rule.m)
    return np.concatenate(list(grid_blocks(rule, f, r).stream(grid_words(rule.s, r), classes))).tolist()


class TestExactCentralMoments:
    """var and mu3 against the exact central moments of the class values,
    formed in rationals: var within 1 ulp, and mu3 within 4 ulps where the
    integral is declared."""

    # mirrored with m > 0, m = 0, sr = 0, an odd sr, and one unmirrored cell
    SCALAR = ((3, 4, 4, 17797), (2, 4, 6, 5709), (3, 0, 4, 1267), (2, 0, 7, 12915), (3, 5, 0, 17797),
              (3, 3, 1, 7163))
    GRID = ((3, 4, 4, 17797), (2, 5, 5, 1267), (3, 3, 4, 7163), (2, 0, 6, 12915))

    @pytest.mark.parametrize("s, m, r, ell", SCALAR)
    def test_scalar(self, s, m, r, ell):
        pair = EmbeddedPair(m, s * r, korobov_vector(ell, s, max(m + s * r, 1)))
        for f in (ProductBernoulliFn(s), FullFn(s)):
            check_report(moments_scalar_shift(pair, f), scalar_values(pair, f), extended_rule_value(pair, f), f)

    @pytest.mark.parametrize("s, m, r, ell", GRID)
    def test_grid(self, s, m, r, ell):
        rule = Rank1Rule(m, korobov_vector(ell, s, max(m, 1)))
        f = ProductBernoulliFn(s)
        check_report(moments_grid_shift(rule, f, r), grid_values(rule, f, r), rectangle_rule_mean(f, s, r), f)

    def test_zero_variance_is_exact(self):
        # sr = 0: one coset, so var and mu3 are 0 exactly, and so is the sd
        pair = EmbeddedPair(5, 0, korobov_vector(17797, 3, 5))
        rep = moments_scalar_shift(pair, ProductBernoulliFn(3))
        assert (rep.variance, rep.sd, rep.mu3) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("s, m, r, ell", [(3, 4, 4, 17797), (2, 0, 6, 12915), (2, 5, 5, 1267)])
    def test_without_a_known_integral(self, s, m, r, ell):
        # the mean is summed about 0, so its rounding is that of the mean,
        # not of the bias; mu3 is then no worse than about the rounded mean
        f = NoIntegralFn(s)
        pair = EmbeddedPair(m, s * r, korobov_vector(ell, s, m + s * r))
        rule = Rank1Rule(m, korobov_vector(ell, s, max(m, 1)))
        for rep, values in ((moments_scalar_shift(pair, f), scalar_values(pair, f)),
                            (moments_grid_shift(rule, f, r), grid_values(rule, f, r))):
            assert math.isnan(rep.bias)
            assert rep.mean.hex() == (math.fsum(values) / len(values)).hex()
            var, mu3 = exact_moments(values)
            assert ulps_off(rep.variance, var) <= 1.0
            d = [v - rep.mean for v in values]
            about_mean = math.fsum(x * x * x for x in d) / len(d)
            assert ulps_off(rep.mu3, mu3) <= max(4.0, ulps_off(about_mean, mu3))


class PointFn(PeriodicFunction):
    """1 everywhere but at the origin, where it is `origin`; its
    per-coordinate factor is the constant `factor`."""

    known_integral = 1.0
    reflection_symmetric = True

    def __init__(self, s: int, origin: float = 1.0, factor: float = 1.0) -> None:
        self._s, self.origin, self._factor = s, origin, factor

    @property
    def s(self) -> int:
        return self._s

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.where((xs == 0.0).all(axis=0), self.origin, 1.0)

    def factor(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.shape(x), self._factor)


class TestReportSums:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_mean_or_identity_value_is_refused(self, bad):
        # the value at the origin reaches both routes; a per-coordinate
        # factor reaches the rectangle rule alone
        pair = EmbeddedPair(2, 2, korobov_vector(17797, 2, 4))
        with pytest.raises(ValueError, match=f"^scalar-shift mean {bad!r} and its identity value {bad!r} are not"):
            moments_scalar_shift(pair, PointFn(2, origin=bad))
        rule = Rank1Rule(1, korobov_vector(17797, 1, 1))
        with pytest.raises(ValueError, match=f"^grid-shift mean 1.0 and its identity value {bad!r} are not"):
            moments_grid_shift(rule, PointFn(1, factor=bad), 2)
        with pytest.raises(ValueError, match=f"^grid-shift mean {bad!r} and its identity value 1.0 are not"):
            moments_grid_shift(rule, PointFn(1, origin=bad), 2)

    def test_chunked_map_order_and_values(self):
        calls = []

        def block_values(lo, hi):
            calls.append((lo, hi))
            return np.arange(lo, hi) * 0.5

        for n, block in ((10, 3), (9, 3), (4, 8), (1, 1)):
            calls.clear()
            out = chunked_map(block_values, n, block)
            assert out.dtype == np.float64 and out.tolist() == [0.5 * i for i in range(n)]
            assert calls == [(lo, min(lo + block, n)) for lo in range(0, n, block)]
        assert chunked_map(block_values, 0, 4).shape == (0,)
        with pytest.raises(ValueError):
            chunked_map(block_values, -1, 4)


class TestDeterminism:
    def test_reports_are_deterministic(self):
        s, m, r = 2, 3, 3
        f = ProductBernoulliFn(s)
        rule = Rank1Rule(m, korobov_vector(17797, s, m))
        pair = EmbeddedPair(m, s * r, korobov_vector(17797, s, m + s * r))
        a = (moments_grid_shift(rule, f, r), moments_scalar_shift(pair, f))
        b = (moments_grid_shift(rule, f, r), moments_scalar_shift(pair, f))
        assert a == b
