"""Acceptance suite: one test per criterion, one printed verdict line each.

Each criterion is asserted at its stated tolerance against the built-in
reference values.  Expected values come from the reference tables, from
closed forms, or from the independent oracles in conftest; computed values
come from exhaustive enumeration or the dual-lattice series.
"""

import math
import time

import numpy as np
import pytest

from latshift import (
    CumulantSet,
    EmbeddedPair,
    GeneratingVector,
    ProductBernoulliFn,
    Rank1Rule,
    TruncationBox,
    cbc_construct,
    cp_variance_series,
    dual_points,
    embedded_merit,
    extended_rule_value,
    korobov_vector,
    mean_cumulants,
    moments_grid_shift,
    moments_scalar_shift,
    rectangle_rule_mean,
    third_moment_series,
)
from latshift.cli import main

from conftest import TABLE_ELLS, brute_force_duals, rel_err, variance_closed_form


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} - {detail}")


def test_c01_table1_bias(table_cells):
    t0 = time.perf_counter()
    f = ProductBernoulliFn(3)
    biases = {}
    for ell in TABLE_ELLS:
        rule = Rank1Rule(4, korobov_vector(ell, 3, 4))
        pair = EmbeddedPair(4, 12, korobov_vector(ell, 3, 16))
        biases[ell] = (moments_grid_shift(rule, f, 4).bias, moments_scalar_shift(pair, f).bias)
    elapsed = time.perf_counter() - t0

    expected_w = {17797: 5.1619e-9, 1267: 1.5158e-8, 12915: 1.9155e-8}
    errs = [rel_err(biases[ell][0], 1.9544e-3) for ell in TABLE_ELLS]
    errs += [rel_err(biases[ell][1], expected_w[ell]) for ell in TABLE_ELLS]
    grid_vals = [biases[ell][0] for ell in TABLE_ELLS]
    identical = max(rel_err(v, grid_vals[0]) for v in grid_vals) < 1e-13
    ok = max(errs) < 1e-3 and identical and elapsed < 5.0
    verdict(1, "table-1 bias", ok, f"max rel err {max(errs):.2e}, runtime {elapsed:.2f}s")
    assert max(errs) < 1e-3
    assert identical
    assert elapsed < 5.0


def test_c02_table2_bias(table_cells):
    expected_w = {17797: 1.2940e-9, 1267: 4.4993e-9, 12915: 1.7820e-9}
    errs = []
    for ell in TABLE_ELLS:
        grid, scalar = table_cells[(2, 5, 5, ell)]
        errs.append(rel_err(grid.bias, 3.2555e-4))
        errs.append(rel_err(scalar.bias, expected_w[ell]))
    ok = max(errs) < 1e-3
    verdict(2, "table-2 bias", ok, f"max rel err {max(errs):.2e}")
    assert max(errs) < 1e-3


def test_c03_tables34_sd(table_cells):
    expectations = {
        (3, 4, 4, 17797): (7.938e-4, 1e-3, 8.389e-4, 1e-3),
        (3, 4, 4, 1267): (7.938e-4, 1e-3, 8.374e-4, 1e-3),
        (3, 4, 4, 12915): (7.938e-4, 1e-3, 8.378e-4, 1e-3),
        (2, 5, 5, 17797): (1.6598e-4, 1e-3, 1.8194e-4, 1e-3),
        (2, 5, 5, 1267): (1.6598e-4, 1e-3, 1.820e-4, 5e-3),
        # scalar SD formerly transcribed as 1.782e-4, the bias mantissa;
        # see the note at this cell in latshift.reference
        (2, 5, 5, 12915): (1.6598e-4, 1e-3, 1.8202e-4, 5e-3),
    }
    failures = []
    worst = 0.0
    for key, (sd_v, tol_v, sd_w, tol_w) in expectations.items():
        grid, scalar = table_cells[key]
        ev = rel_err(grid.sd, sd_v)
        ew = rel_err(scalar.sd, sd_w)
        worst = max(worst, ev / tol_v, ew / tol_w)
        if ev > tol_v:
            failures.append((key, "grid sd", grid.sd, sd_v, ev))
        if ew > tol_w:
            failures.append((key, "scalar sd", scalar.sd, sd_w, ew))
    ok = not failures
    verdict(3, "tables-3/4 sd", ok, f"worst err/tol {worst:.3f}; mismatches: {failures or 'none'}")
    assert not failures, failures


def test_c04_grid_mean_identities(table_cells):
    f_by_s = {2: ProductBernoulliFn(2), 3: ProductBernoulliFn(3)}
    worst = 0.0
    for s, m, r in ((3, 4, 4), (2, 5, 5), (2, 3, 3)):
        f = f_by_s[s]
        rect = rectangle_rule_mean(f, s, r)
        closed = (1.0 + 1.0 / (6.0 * (1 << (2 * r)))) ** s
        for ell in TABLE_ELLS:
            if (s, m, r, ell) in table_cells:
                mean = table_cells[(s, m, r, ell)][0].mean
            else:
                rule = Rank1Rule(m, korobov_vector(ell, s, m))
                mean = moments_grid_shift(rule, f, r).mean
            worst = max(worst, rel_err(mean, rect), rel_err(mean, closed))
    ok = worst < 1e-12
    verdict(4, "grid-shift mean identity", ok, f"max rel err {worst:.2e} over 9 configs")
    assert worst < 1e-12


def test_c05_scalar_mean_identities(table_cells):
    f_by_s = {2: ProductBernoulliFn(2), 3: ProductBernoulliFn(3)}
    worst = 0.0
    for s, m, r in ((3, 4, 4), (2, 5, 5), (2, 3, 3)):
        f = f_by_s[s]
        sr = s * r
        for ell in TABLE_ELLS:
            pair = EmbeddedPair(m, sr, korobov_vector(ell, s, m + sr))
            if (s, m, r, ell) in table_cells:
                mean = table_cells[(s, m, r, ell)][1].mean
            else:
                mean = moments_scalar_shift(pair, f).mean
            worst = max(worst, rel_err(mean, extended_rule_value(pair, f)))
    ok = worst < 1e-12
    verdict(5, "scalar-shift mean identity", ok, f"max rel err {worst:.2e} over 9 configs")
    assert worst < 1e-12


def test_c06_variance_series_cross_check():
    worst_margin = 0.0
    shrink_ok = True
    for s in (1, 2, 3):
        f = ProductBernoulliFn(s)
        for m in (3, 5):
            rule = Rank1Rule(m, korobov_vector(17797, s, m))
            res = cp_variance_series(rule, f, TruncationBox(64))
            closed = variance_closed_form(rule, f)
            gap = abs(res.value - closed)
            assert gap <= res.tail_bound, (s, m, gap, res.tail_bound)
            worst_margin = max(worst_margin, gap / res.tail_bound)
            doubled = cp_variance_series(rule, f, TruncationBox(128))
            if res.tail_bound / doubled.tail_bound < 8.0 * (1 - 1e-12):
                shrink_ok = False
    verdict(
        6, "variance series vs closed form", shrink_ok,
        f"worst gap/bound {worst_margin:.3f}; tail bound shrink >= 8x: {shrink_ok}",
    )
    assert shrink_ok


def test_c07_third_moment_series():
    f = ProductBernoulliFn(1)
    rule = Rank1Rule(2, GeneratingVector((1,), 2))

    n = 1 << 20
    u = np.arange(n) / n
    err = np.zeros(n)
    for j in range(4):
        xs = u + j / 4.0
        xs -= np.floor(xs)
        err += (xs - 0.5) ** 2 - 1.0 / 12.0
    err /= 4.0
    oracle = float(np.mean(err**3))
    # the rule error is B2({4u})/16, so mu3 = int B2^3 / 4^6 = 1/(3780 * 4096)
    oracle_gap = rel_err(oracle, 1.0 / (3780 * 4096))

    # Coefficients decay like 1/h^2, so box truncation at H loses O(H^-3):
    # 4.65e-2 at H = 16, 1.28e-5 at H = 256.  The small box is checked
    # against its own tail bound; the tolerance is asserted at H = 256.
    small = third_moment_series(rule, f, TruncationBox(16))
    small_gap = rel_err(small.value, oracle)
    small_in_bound = abs(small.value - oracle) <= small.tail_bound
    series = third_moment_series(rule, f, TruncationBox(256)).value
    gap = rel_err(series, oracle)

    scaling_exact = True
    cs = CumulantSet(kappa2=0.5, kappa3=series)
    for q in (1, 2, 7):
        if mean_cumulants(cs, q).mu3 != cs.mu3 / q**2:
            scaling_exact = False

    ok = oracle_gap < 1e-8 and small_in_bound and gap < 1e-4 and scaling_exact
    verdict(
        7, "third-moment series", ok,
        f"series {series:.6e} vs oracle {oracle:.6e} (closed-form rel err "
        f"{oracle_gap:.1e}), rel gap H=256 {gap:.2e} (tolerance 1e-4), "
        f"H=16 {small_gap:.2e} (within tail bound: {small_in_bound}); "
        f"mean scaling exact: {scaling_exact}",
    )
    assert oracle_gap < 1e-8, oracle_gap
    assert small_in_bound, (small.value, oracle, small.tail_bound)
    assert scaling_exact
    assert gap < 1e-4, gap


def test_c08_dual_solver_vs_brute_force():
    checked = 0
    for s in (1, 2, 3):
        for m in (1, 2, 3, 4):
            for ell in (17797, 1267):
                rule = Rank1Rule(m, korobov_vector(ell, s, m))
                for H in (4, 8, 12):
                    solver = set(dual_points(rule, TruncationBox(H)))
                    assert solver == brute_force_duals(rule, H), (s, m, ell, H)
                    checked += 1
    # closure spot check on a mid-size rule
    rule = Rank1Rule(4, korobov_vector(17797, 2, 4))
    H = 12
    pts = set(dual_points(rule, TruncationBox(H)))
    for h in list(pts)[::5]:
        for k in list(pts)[::7]:
            diff = tuple(a - b for a, b in zip(h, k))
            if any(diff) and all(abs(d) <= H for d in diff):
                assert diff in pts
    verdict(8, "dual-lattice solver", True, f"{checked} rule/box combinations equal brute force")


def test_c09_headline_bias_ratio(table_cells):
    worst = 0.0
    for (s, m, r, ell), (grid, scalar) in table_cells.items():
        worst = max(worst, abs(scalar.bias) / abs(grid.bias))
    ok = worst < 1e-4
    verdict(9, "bias-reduction headline", ok, f"worst |bias ratio| {worst:.2e} over 6 cells")
    assert worst < 1e-4


def test_c10_cbc_beats_korobov_baseline():
    t0 = time.perf_counter()
    z = cbc_construct(3, 4, 12, candidate_policy="full")
    elapsed = time.perf_counter() - t0
    constructed = embedded_merit(z, 4, 12)
    baseline = embedded_merit(korobov_vector(17797, 3, 16), 4, 12)
    ok = constructed.combined <= baseline.combined and elapsed < 60.0
    verdict(
        10, "cbc construction", ok,
        f"combined {constructed.combined:.6f} vs baseline {baseline.combined:.6f}, "
        f"z={z.components}, runtime {elapsed:.1f}s",
    )
    assert constructed.combined <= baseline.combined
    assert elapsed < 60.0


def test_c11_check_mode_determinism(tmp_path):
    outputs = {}
    codes = {}
    for label in ("run1", "run2", "run3"):
        out = tmp_path / f"tables-{label}.json"
        codes[label] = main(["tables", "--check", "--out", str(out)])
        outputs[label] = out.read_bytes()
    identical = outputs["run1"] == outputs["run2"] == outputs["run3"]
    all_zero = set(codes.values()) == {0}
    ok = identical and all_zero
    verdict(
        11, "check-mode determinism", ok,
        f"artifacts byte-identical: {identical}; exit codes {sorted(set(codes.values()))} "
        f"(expected all 0)",
    )
    assert identical
    assert all_zero, (
        "tables --check exits nonzero: a reference entry disagrees with the "
        "enumeration (see test_cli and test_moments.EXACT_STATS)"
    )
