"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import math

import pytest

from latshift import (
    EmbeddedPair,
    ProductBernoulliFn,
    Rank1Rule,
    korobov_vector,
    moments_grid_shift,
    moments_scalar_shift,
)

TABLE_CONFIGS = ((3, 4, 4), (2, 5, 5))
TABLE_ELLS = (17797, 1267, 12915)


@pytest.fixture(scope="session")
def table_cells():
    """Exhaustive moment reports for the six standard table cells.

    Computed once per session; several test modules assert against them.
    Keys are (s, m, r, ell), values are (grid_report, scalar_report).
    """
    cells = {}
    for s, m, r in TABLE_CONFIGS:
        f = ProductBernoulliFn(s)
        for ell in TABLE_ELLS:
            rule = Rank1Rule(m, korobov_vector(ell, s, m))
            pair = EmbeddedPair(m, s * r, korobov_vector(ell, s, m + s * r))
            cells[(s, m, r, ell)] = (
                moments_grid_shift(rule, f, r),
                moments_scalar_shift(pair, f),
            )
    return cells


def brute_force_duals(rule: Rank1Rule, H: int) -> set[tuple[int, ...]]:
    """Independent dual enumeration: scan every nonzero vector in the box."""
    from itertools import product

    n = rule.n_points
    z = rule.z.components
    out = set()
    for h in product(range(-H, H + 1), repeat=rule.s):
        if any(h) and sum(hi * zi for hi, zi in zip(h, z)) % n == 0:
            out.add(h)
    return out


def variance_closed_form(rule: Rank1Rule, f: ProductBernoulliFn) -> float:
    """Autocorrelation route to Var(Q_u f): node mean of the correlation
    kernel minus 1.  Independent of the Fourier-series route it checks."""
    n = rule.n_points
    return math.fsum(f.autocorrelation(rule.node(j)) - 1.0 for j in range(n)) / n


def rel_err(got: float, expected: float) -> float:
    return abs(got - expected) / abs(expected)
