import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshift import (
    GeneratingVector,
    GuardLimitError,
    ProductBernoulliFn,
    Rank1Rule,
    cbc_construct,
    embedded_merit,
    eval_rule,
    korobov_vector,
    merit,
)
import latshift.cbc as cbc_module
from latshift.cbc import _TwoLevelScan, _normalizers, _sample_candidates
from latshift.functions import bernoulli2

from conftest import count_calls, index_block_count, rel_err, set_block_nodes


def _run_capped(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter on this checkout's sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    # one BLAS thread: per-thread buffers would count against an RLIMIT_AS cap
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


class TestMerit:
    def test_one_dimensional_closed_form(self):
        # grid mean of B2 over 8 points: 1/(6 * 64)
        m = merit(GeneratingVector((1,), 3), 8)
        assert rel_err(m.value, 1.0 / 384.0) < 1e-12
        assert m.level == 8

    def test_matches_plain_rule_evaluation(self):
        f = ProductBernoulliFn(2)
        for z in [(1, 3), (1, 7), (3, 5)]:
            rule = Rank1Rule(4, GeneratingVector(z, 4))
            direct = eval_rule(rule, f) - 1.0
            assert rel_err(merit(GeneratingVector(z, 4), 16).value, direct) < 1e-12

    def test_extended_korobov_17797(self, table_cells):
        # the extended-level merit IS the scalar-shift bias; the two routes
        # share only the integrand, so they disagree at the float-noise
        # floor (~1e-16 absolute on a 5e-9 quantity)
        m = merit(korobov_vector(17797, 3, 16), 1 << 16)
        assert rel_err(m.value, table_cells[(3, 4, 4, 17797)][1].bias) < 1e-7

    def test_positive(self):
        for z, n in [((1,), 2), ((1, 3), 16), ((1, 5, 7), 64)]:
            assert merit(GeneratingVector(z, 6), n).value > 0.0

    def test_negation_invariance_is_exact(self):
        n = 64
        for z in range(1, n, 2):
            a = merit(GeneratingVector((1, z), 6), n).value
            b = merit(GeneratingVector((1, n - z), 6), n).value
            assert a == b

    def test_permutation_invariance_is_exact(self):
        assert (
            merit(GeneratingVector((3, 1, 5), 6), 64).value
            == merit(GeneratingVector((5, 3, 1), 6), 64).value
        )

    def test_odd_scaling_invariance(self):
        n = 64
        base = merit(GeneratingVector((1, 3), 6), n).value
        for c in range(1, n, 2):
            scaled = GeneratingVector((c % n, (3 * c) % n), 6)
            assert rel_err(merit(scaled, n).value, base) < 1e-13

    def test_agrees_with_dual_series_route(self):
        # two independent computations of Qf - 1: node-space evaluation vs
        # the truncated dual-lattice coefficient sum
        from latshift import TruncationBox, shift_error_series

        f = ProductBernoulliFn(2)
        for z, m in [((1, 3), 3), ((1, 7), 4)]:
            gv = GeneratingVector(z, m)
            series = shift_error_series(Rank1Rule(m, gv), f, None, TruncationBox(128))
            assert abs(merit(gv, 1 << m).value - series.value) <= series.tail_bound

    @pytest.mark.parametrize("t", [0, 1, 5, 12, 16, 17, 18, 20])
    def test_streamed_blocks_equal_full_array_sum(self, t):
        # the full-array form merit had before it streamed node blocks:
        # one gathered factor table and one np.sum over all 2^t nodes
        n = 1 << t
        w = 1.0 + bernoulli2(np.arange(n) / n)
        k = np.arange(n, dtype=np.int64)
        for z in [(1,), (1, 17797), (1, 1267, 12915 * 3), (5, 9, 77, 2 * (n // 3) + 1, 3)]:
            vals = np.ones(n)
            for c in sorted(min(c % n, -c % n) for c in z):
                vals = vals * w[(k * c) & (n - 1)]
            reference = float(np.sum(vals - 1.0)) / n
            assert merit(GeneratingVector(z, max(t, 1)), n).value == reference

    @pytest.mark.parametrize("block", [1 << 7, 1 << 16])
    @pytest.mark.parametrize("t", [0, 1, 5, 7, 8, 12, 16, 17, 18, 20])
    def test_streamed_blocks_equal_full_array_sum_at_any_block_size(self, monkeypatch, block, t):
        # halving the block sums pairwise is numpy's own tree for every
        # power-of-two block of at least 128 nodes
        set_block_nodes(monkeypatch, block)
        # the merit's node blocks are of the patched size
        assert index_block_count(17) == (1 << 17) // block
        self.test_streamed_blocks_equal_full_array_sum(t)

    def test_guard_size_fits_in_bounded_memory(self):
        # node blocks are streamed, so 2^26 nodes need no 2^26-entry table
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from latshift import korobov_vector, merit\n"
            "print(merit(korobov_vector(17797, 3, 26), 1 << 26).value > 0)\n"
        )
        proc = _run_capped(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_validation(self):
        with pytest.raises(ValueError):
            merit(GeneratingVector((1,), 4), 12)  # not a power of two
        with pytest.raises(ValueError):
            merit(GeneratingVector((1,), 4), 32)  # vector too shallow
        with pytest.raises(GuardLimitError):
            merit(GeneratingVector((1,), 27), 1 << 27)


class TestEmbeddedMerit:
    def test_korobov_1267_extended_level(self):
        # (s, m, r) = (2, 5, 5): extended merit equals the scalar-shift bias
        em = embedded_merit(korobov_vector(1267, 2, 15), 5, 10)
        assert rel_err(em.extended.value, 4.4993e-9) < 1e-3
        assert em.base.level == 32 and em.extended.level == 1 << 15

    def test_degenerate_extension_uses_base_only(self):
        z = korobov_vector(17797, 2, 5)
        em = embedded_merit(z, 5, 0)
        rb, _ = _normalizers(2, 5, 0)
        assert em.combined == em.base.value / rb
        assert em.base == em.extended

    def test_each_baseline_merit_is_evaluated_once(self, monkeypatch):
        # at sr = 0 the two levels are one: one merit of z and the three
        # Korobov merits of its baseline
        cbc_module._baseline.cache_clear()
        calls = count_calls(monkeypatch, cbc_module, "merit")
        em = embedded_merit(korobov_vector(17797, 3, 4), 4, 0)
        assert len(calls) == 4 and em.combined.hex() == "0x1.0000000000000p+0"
        # the baselines of d = 2, 3 at the one level, then 3 merits of candidates
        calls.clear()
        assert cbc_construct(3, 6, 0).components == (1, 19, 29)
        assert len(calls) == 9

    def test_ordering_matches_direct_merit_comparison(self):
        # two candidate vectors at s = 2: the combined ordering must agree
        # with the per-level merit comparison when one dominates the other
        m, sr = 2, 4
        n = 1 << (m + sr)
        good = GeneratingVector((1, 3), 6)
        bad = GeneratingVector((1, n - 1), 6)  # mirror-equivalent to (1, 1)
        em_good = embedded_merit(good, m, sr)
        em_bad = embedded_merit(bad, m, sr)
        assert merit(good, n).value < merit(bad, n).value
        assert em_good.combined < em_bad.combined


def _two_product(a, b):
    """a * b as an exact unevaluated sum hi + lo (Veltkamp/Dekker)."""

    def split(x):
        c = 134217729.0 * x  # 2^27 + 1
        hi = c - (c - x)
        return hi, x - hi

    hi = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _node_product(comps, n):
    """Factor table w and node product p of the components at n nodes."""
    w = 1.0 + bernoulli2(np.arange(n) / n)
    k = np.arange(n)
    p = np.ones(n)
    for c in comps:
        p = p * w[(k * c) % n]
    return p, w


def _odd_vectors(t):
    n = 1 << t
    odd = st.integers(0, max(n // 2 - 1, 0)).map(lambda i: 2 * i + 1)
    return st.lists(odd, min_size=1, max_size=4)


def _exact_level_sums(p, w, lev):
    """sum_k (p[k] - 1)(w[k c mod 2^lev] - 1) over the nodes of level 2^lev,
    for c = 5^a mod 2^lev, a < max(2^lev / 4, 1), exactly as hi + lo."""
    n, nl = len(p), 1 << lev
    p1, w1 = p[:: n // nl] - 1.0, w[:: n // nl] - 1.0
    k = np.arange(nl)
    out = []
    for a in range(max(nl // 4, 1)):
        hi, lo = _two_product(p1, w1[(k * pow(5, a, nl)) % nl])
        terms = np.concatenate([hi, lo]).tolist()
        s = math.fsum(terms)
        out.append((s, math.fsum(terms + [-s])))
    return out


def _assert_sums_within_bound(scan, exact):
    """Both levels of a scan lie within their bounds of the exact sums."""
    for (sums, bound), ref in zip(scan, exact):
        assert len(sums) == len(ref)
        for a, ((hi, lo), got) in enumerate(zip(ref, sums.tolist())):
            # the exact sum minus the scan, rounded once (lo carries the
            # exact sum's rounding error to within u^2 of it)
            gap = abs(math.fsum((hi, lo, -got)))
            assert gap <= bound, (a, gap, bound)


def _canonical_level_merits(prefix, t, lev):
    """merit(prefix + (c,), 2^lev) for the mirror classes c mod 2^lev."""
    nl = 1 << lev
    return {
        r: merit(GeneratingVector(prefix + (r,), max(t, 1)), nl).value
        for r in range(1, max(nl // 2, 1) + 1, 2)
    }


def _assert_estimates_bracket(merits, canonical, norms, rows):
    """Per row c, every level's estimate lies within its bound of the
    canonical merit over its normalizer."""
    for (est, err), (nl, ref), norm in zip(merits, canonical, norms):
        assert len(est) == len(err) == len(rows)
        for c, e, bound in zip(rows.tolist(), est.tolist(), err.tolist()):
            want = ref[max(min(c % nl, -c % nl), 1)] / norm
            assert abs(e - want) <= bound, (nl, c, e, want, bound)


class TestUnitScan:
    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(1, 12), data=st.data())
    def test_matches_direct_gather_within_reported_bound(self, t, data):
        # symmetric tables, as the construction passes them: the node
        # product of a random odd partial vector and the factor table, or
        # the same plus one, so that the scanned parts are the raw products
        n = 1 << t
        sr = data.draw(st.integers(0, t))
        p, w = _node_product(data.draw(_odd_vectors(t)), n)
        if data.draw(st.booleans()):
            p, w = p + 1.0, w + 1.0
        scan = _TwoLevelScan(w, sr, 2 * np.arange(max(n // 4, 1)) + 1).scan(p)
        _assert_sums_within_bound(scan, [_exact_level_sums(p, w, lev) for lev in (t - sr, t)])

    @settings(max_examples=25, deadline=None)
    @given(t=st.integers(1, 10), data=st.data())
    def test_estimates_bracket_canonical_merits(self, t, data):
        prefix = tuple(data.draw(_odd_vectors(t)))
        sr = data.draw(st.integers(0, t))
        d = len(prefix) + 1
        n = 1 << t
        p, w = _node_product(prefix, n)
        rows = 2 * np.arange(max(n // 4, 1)) + 1
        norms = _normalizers(d, t - sr, sr)
        merits = _TwoLevelScan(w, sr, rows).merits(p, d, norms)
        canonical = [(1 << lev, _canonical_level_merits(prefix, t, lev)) for lev in (t - sr, t)]
        _assert_estimates_bracket(merits, canonical, norms, rows)

    @pytest.mark.parametrize("t", range(13))
    def test_every_split_of_both_levels(self, t):
        # every 0 <= sr <= t, bases of 1 and 2 nodes and sr = t included:
        # the sums of a two-component product against the exact gather, and
        # the estimates of the d = 2 step (which passes the factor table
        # itself, whose transforms the scan reuses) and of the d = 3 step
        # against the canonical merits
        n = 1 << t
        rows = 2 * np.arange(max(n // 4, 1)) + 1
        second = int(2 * np.random.default_rng(t).integers(max(n // 2, 1)) + 1)
        p, w = _node_product((1, second), n)
        exact = [_exact_level_sums(p, w, lev) for lev in range(t + 1)]
        for sr in range(t + 1):
            scan = _TwoLevelScan(w, sr, rows).scan(p)
            _assert_sums_within_bound(scan, [exact[lev] for lev in (t - sr, t)])
        for prefix, q in [((1,), w), ((1, second), p)]:
            d = len(prefix) + 1
            canonical = [
                (1 << lev, _canonical_level_merits(prefix, t, lev)) for lev in range(t + 1)
            ]
            for sr in range(t + 1):
                norms = _normalizers(d, t - sr, sr)
                merits = _TwoLevelScan(w, sr, rows).merits(q, d, norms)
                _assert_estimates_bracket(merits, [canonical[t - sr], canonical[t]], norms, rows)

    @pytest.mark.parametrize("t,sr", [(0, 0), (1, 1), (5, 0), (8, 3), (12, 12), (12, 5)])
    def test_factor_side_reuse_and_level_independence(self, t, sr):
        # at d = 2 the node product is the factor table, and the scan reuses
        # its transforms bit for bit; the extension level does not depend on
        # where the base splits off, and the base level is the single-level
        # scan of the tables at every 2^sr-th node
        n = 1 << t
        rows = 2 * np.arange(max(n // 4, 1)) + 1
        p, w = _node_product((1, 2 * (n // 3) + 1), n)
        scan = _TwoLevelScan(w, sr, rows)
        for (a, ea), (b, eb) in zip(scan.scan(), scan.scan(w.copy())):
            assert a.tobytes() == b.tobytes() and ea == eb
        (base, base_err), (ext, ext_err) = scan.scan(p)
        whole = _TwoLevelScan(w, 0, rows).scan(p)[1]
        sub = _TwoLevelScan(w[:: 1 << sr], 0, rows[: max(n >> (sr + 2), 1)]).scan(p[:: 1 << sr])[1]
        assert ext.tobytes() == whole[0].tobytes() and ext_err == whole[1]
        assert base.tobytes() == sub[0].tobytes() and base_err == sub[1]


def _greedy_reference(s, m, sr):
    """Greedy CBC re-scoring every odd candidate c <= 2^(ext-1) canonically."""
    ext = m + sr
    comps = (1,)
    for _ in range(2, s + 1):
        keys = [
            (embedded_merit(GeneratingVector(comps + (c,), max(ext, 1)), m, sr).combined, c)
            for c in range(1, (1 << ext) // 2 + 1, 2)
        ]
        comps += (min(keys)[1],)
    return comps


class TestCbcConstruct:
    @pytest.mark.parametrize(
        "s,m,sr",
        [(s, m, sr) for s in (1, 2, 3) for m in range(4) for sr in range(7) if m + sr > 0]
        # tie-dominated: every base figure is 1.0, so combined == 1.0 ties
        + [(2, 2, 10)],
    )
    def test_equals_canonical_greedy_search(self, s, m, sr):
        assert cbc_construct(s, m, sr).components == _greedy_reference(s, m, sr)

    @pytest.mark.parametrize(
        "shape,z",
        [
            # benchmark shapes (s, m, sr), from perfbench/expected.json
            ((2, 8, 8), (1, 6755)),
            ((3, 2, 12), (1, 989, 351)),
            ((3, 5, 9), (1, 1145, 411)),
            ((2, 5, 10), (1, 5831)),
        ],
    )
    def test_pinned_vectors(self, shape, z):
        assert cbc_construct(*shape).components == z

    def test_near_ties_are_resolved_lazily(self, monkeypatch):
        # open candidates are re-scored best-first by lower bound, and ties
        # only below the winner; re-scoring all of them took 11 calls here
        calls = []
        real = cbc_module.embedded_merit

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cbc_module, "embedded_merit", counting)
        assert cbc_construct(3, 4, 16).components == (1, 21415, 27461)
        assert len(calls) <= 2

    # the 13 full cbc benchmark shapes (s, m, r), with sr = s r, from
    # perfbench/workloads.py, and their (vector, class merits, re-scores)
    BENCHMARK_SHAPES = [
        ((2, 4, 6), (1, 5863), 1, 0),
        ((3, 2, 4), (1, 989, 351), 2, 0),
        ((2, 2, 6), (1, 989), 1, 0),
        ((2, 8, 4), (1, 6755), 2, 0),
        ((3, 5, 3), (1, 1145, 411), 3, 0),
        ((2, 5, 5), (1, 5831), 2, 0),
        ((2, 4, 5), (1, 1145), 1, 0),
        ((3, 4, 3), (1, 1719, 363), 3, 0),
        ((2, 6, 4), (1, 3739), 2, 0),
        ((2, 2, 5), (1, 757), 1, 0),
        ((3, 3, 3), (1, 757, 277), 3, 0),
        ((2, 4, 4), (1, 1799), 5, 2),
        ((3, 6, 2), (1, 1799, 757), 7, 2),
    ]

    def test_benchmark_shapes_merit_and_rescore_counts(self, monkeypatch):
        # the canonical class merits and re-scores a construction needs, with
        # the normalizers warm: 33 and 4 over the 13 shapes.  A scan bound
        # 2^10 times looser keeps more classes and candidates open and fails
        # here; test_near_ties_are_resolved_lazily catches a smaller factor
        for (s, m, r), *_ in self.BENCHMARK_SHAPES:
            for d in range(2, s + 1):
                _normalizers(d, m, s * r)
        counts = {"merit": 0, "embedded_merit": 0, "scan": 0}
        patched = [(cbc_module, "merit"), (cbc_module, "embedded_merit"), (_TwoLevelScan, "scan")]
        for owner, name in patched:
            real = getattr(owner, name)

            def counting(*args, name=name, real=real):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, counting)
        for (s, m, r), z, merits, rescores in self.BENCHMARK_SHAPES:
            counts.update(merit=0, embedded_merit=0, scan=0)
            assert cbc_construct(s, m, s * r).components == z
            # one scan per component step serves both levels
            assert counts == {"merit": merits, "embedded_merit": rescores, "scan": s - 1}, (s, m, r)

    @pytest.mark.parametrize("shape,limit", [((2, 4, 12), 56.0), ((3, 4, 12), 61.0)])
    def test_peak_memory_per_extension_node(self, shape, limit):
        # tracemalloc peak of a construction with warm normalizers, in bytes
        # per extension node (2^16 here).  Two scans per component, each
        # building its own tables, peaked at 56.0 and 60.6 B; one scan over
        # int32 class indices and the factor side's transforms, built once,
        # peaks at 35.1 and 43.9 B
        s, m, sr = shape
        for d in range(2, s + 1):
            _normalizers(d, m, sr)
        cbc_construct(*shape)
        tracemalloc.start()
        try:
            cbc_construct(*shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (1 << (m + sr)) <= limit

    def test_first_component_fixed(self):
        assert cbc_construct(1, 4, 8).components == (1,)

    def test_components_odd_and_in_range(self):
        z = cbc_construct(3, 3, 6)
        ext = 1 << 9
        assert z.components[0] == 1
        for c in z.components:
            assert c % 2 == 1 and 0 < c < ext

    def test_deterministic(self):
        a = cbc_construct(3, 3, 6)
        b = cbc_construct(3, 3, 6)
        assert a == b

    def test_locally_optimal_at_every_stage(self):
        # at each dimension d, the partial vector must beat every
        # single-candidate replacement of its last component
        s, m, sr = 3, 3, 6
        z = cbc_construct(s, m, sr)
        for d in (2, 3):
            partial = z.components[:d]
            chosen = embedded_merit(GeneratingVector(partial, m + sr), m, sr).combined
            for cand in range(1, 1 << (m + sr), 2):
                alt = GeneratingVector(partial[:-1] + (cand,), m + sr)
                assert chosen <= embedded_merit(alt, m, sr).combined, (d, cand)

    def test_second_component_locally_optimal(self):
        s, m, sr = 2, 3, 5
        z = cbc_construct(s, m, sr)
        chosen = embedded_merit(z, m, sr).combined
        for cand in range(1, 1 << (m + sr), 2):
            alt = GeneratingVector((1, cand), m + sr)
            assert chosen <= embedded_merit(alt, m, sr).combined

    def test_one_point_extension_scans_candidate_one(self):
        # at extension 0, as at extension 1, the lower half is candidate 1
        for s in (2, 3, 4):
            for policy in ("auto", "full", "sampled"):
                z = cbc_construct(s, 0, 0, candidate_policy=policy)
                assert (z.components, z.t) == ((1,) * s, 1), (s, policy)
                assert cbc_construct(s, 1, 0, candidate_policy=policy) == z

    def test_guards_and_validation(self):
        with pytest.raises(GuardLimitError):
            cbc_construct(2, 14, 13)
        with pytest.raises(GuardLimitError):
            cbc_construct(2, 4, 14, candidate_policy="full")
        with pytest.raises(ValueError):
            cbc_construct(2, 4, 4, candidate_policy="random")
        with pytest.raises(ValueError):
            cbc_construct(0, 4, 4)

    def test_total_merit_work_is_refused_before_the_first_step(self):
        # the normalizers of s - 1 steps: 3 (s (s + 1) / 2 - 1) (2^m + 2^ext)
        # node coordinates, checked after the checks of the shape
        with pytest.raises(GuardLimitError, match="^240002399952 merit node coordinates"):
            cbc_construct(100000, 3, 0)
        with pytest.raises(GuardLimitError, match="full scan"):
            cbc_construct(100000, 4, 14, candidate_policy="full")
        # one dimension past the largest the guard admits at m = sr = 0
        with pytest.raises(GuardLimitError, match="merit node coordinates"):
            cbc_construct(4730, 0, 0)
        assert cbc_construct(2, 0, 1).components == (1, 1)


class TestSampledPolicy:
    def test_pinned_vector_at_extension_18(self):
        assert cbc_construct(2, 4, 14).components == (1, 16617)

    def test_extension_20_fits_in_bounded_memory(self):
        # the scan allocates O(2^ext) floats, independent of the sample size
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"
            "from latshift import cbc_construct\n"
            "print(cbc_construct(2, 4, 16).components)\n"
        )
        proc = _run_capped(code)
        assert proc.returncode == 0, proc.stderr
        # a canonical re-score of all 4096 sampled candidates picks 21415
        assert proc.stdout.strip() == "(1, 21415)"

    def test_sample_is_deterministic_odd_lower_half(self):
        n_ext = 1 << 18
        a = _sample_candidates(n_ext // 4)
        b = _sample_candidates(n_ext // 4)
        assert (a == b).all()
        assert len(a) == 4096
        assert all(int(c) % 2 == 1 for c in a)
        assert int(a.max()) <= n_ext // 2
        assert sorted(set(int(c) for c in a)) == [int(c) for c in a]

    @pytest.mark.parametrize("s", [2, 3])
    def test_sampled_equals_full_up_to_extension_14(self, monkeypatch, s):
        # up to extension 14 the lower half holds at most SAMPLE_SIZE odd
        # candidates, so a draw would give all of them: the sampled policy
        # scans them without drawing, also at extension 1
        draws = count_calls(monkeypatch, cbc_module, "SplitMix64")
        for ext in range(1, 15):
            m = ext // 2
            full = cbc_construct(s, m, ext - m, candidate_policy="full")
            assert cbc_construct(s, m, ext - m, candidate_policy="sampled") == full
        assert draws == []

    def test_small_space_sample_covers_everything(self):
        n_ext = 1 << 8
        a = _sample_candidates(n_ext // 4)
        assert len(a) == n_ext // 4
        assert a.tolist() == list(range(1, n_ext // 2, 2))
