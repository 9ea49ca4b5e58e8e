"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import math

import pytest

from latshift import (
    DyadicPoint,
    EmbeddedPair,
    ProductBernoulliFn,
    Rank1Rule,
    korobov_vector,
    moments_grid_shift,
    moments_scalar_shift,
)
from latshift import moments as moments_module
from latshift import shifts as shifts_module

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


def product_bernoulli_point(xs) -> float:
    """Scalar reference for ProductBernoulliFn: prod_i (1 + B2(x_i)) in
    Python floats, with the same operations in the same order as the
    vectorized evaluator, so values agree bitwise."""
    out = 1.0
    for x in xs:
        u = x - 0.5
        out *= 1.0 + (u * u - 1.0 / 12.0)
    return out


def bernoulli4(x: float) -> float:
    """B4(x) = x^4 - 2x^3 + x^2 - 1/30 for x in [0, 1), about x = 1/2."""
    u2 = (x - 0.5) ** 2
    return u2 * u2 - 0.5 * u2 + 7.0 / 240.0


def autocorrelation(point: DyadicPoint) -> float:
    """Integral of f(x) f({x + point}) dx for the product Bernoulli
    integrand: prod_i (1 - B4({t_i}) / 6)."""
    out = 1.0
    for x in point.as_floats():
        out *= 1.0 - bernoulli4(x) / 6.0
    return out


def dyadic_rescaled(p: DyadicPoint, t: int) -> DyadicPoint:
    """The same point over the denominator 2^t (t >= p.t)."""
    if t < p.t:
        raise ValueError(f"cannot lower bit depth {p.t} to {t}")
    return DyadicPoint(tuple(n << (t - p.t) for n in p.nums), t)


def dyadic_add(a: DyadicPoint, b: DyadicPoint) -> DyadicPoint:
    """Coordinate-wise addition mod 1 at the deeper of the two depths."""
    assert a.s == b.s
    t = max(a.t, b.t)
    a, b = dyadic_rescaled(a, t), dyadic_rescaled(b, t)
    mask = (1 << t) - 1
    return DyadicPoint(tuple((x + y) & mask for x, y in zip(a.nums, b.nums)), t)


def extended_node(pair: EmbeddedPair, k: int) -> DyadicPoint:
    """Node k of the 2^(m+sr)-point extension of the pair."""
    return Rank1Rule(pair.ext, pair.z).node(k)


def coset_node(pair: EmbeddedPair, j: int, w: int) -> DyadicPoint:
    """Base index j advanced into coset w: extension node j * 2^sr + w."""
    if not (0 <= j < 1 << pair.m and 0 <= w < 1 << pair.sr):
        raise ValueError(f"base index {j} or coset {w} out of range")
    return extended_node(pair, (j << pair.sr) | w)


def variance_closed_form(rule: Rank1Rule, f: ProductBernoulliFn) -> float:
    """Autocorrelation route to Var(Q_u f): node mean of the correlation
    kernel minus 1.  Independent of the Fourier-series route it checks."""
    assert f.s == rule.s
    n = rule.n_points
    return math.fsum(autocorrelation(rule.node(j)) - 1.0 for j in range(n)) / n


def rel_err(got: float, expected: float) -> float:
    return abs(got - expected) / abs(expected)


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap module.name so that every call appends its positional arguments
    to the list returned; monkeypatch puts the original back.  The length
    of the list is the number of calls."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def set_block_nodes(monkeypatch, block: int) -> None:
    """Run the block layer at blocks of about `block` nodes: `shifts` sizes
    every node block by BLOCK_NODES, and `moments` slices its moment sums
    and the generic rectangle rule by the same constant."""
    monkeypatch.setattr(shifts_module, "BLOCK_NODES", block)
    monkeypatch.setattr(moments_module, "BLOCK_NODES", block)


def index_block_count(t: int) -> int:
    """The number of node blocks `index_blocks` yields for 2^t nodes."""
    return sum(1 for _ in shifts_module.index_blocks([1], t, ProductBernoulliFn(1)))
