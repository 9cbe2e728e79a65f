"""Binomial kernel against scipy and exact-fraction oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom as scipy_binom

from twostage.binomial import (
    binom_cdf,
    binom_pmf,
    binom_pmf_row,
    binom_upper_tail,
    normal_quantile,
    solve_monotone_root,
)

GRID = [
    (s, m, p)
    for m in (1, 5, 10, 29, 60)
    for s in (0, 1, m // 2, m - 1, m)
    for p in (0.0, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0)
]


@pytest.mark.parametrize("s,m,p", GRID)
def test_pmf_matches_scipy(s, m, p):
    assert binom_pmf(s, m, p) == pytest.approx(scipy_binom.pmf(s, m, p), abs=1e-13)


@pytest.mark.parametrize("s,m,p", GRID)
def test_cdf_matches_scipy(s, m, p):
    assert binom_cdf(s, m, p) == pytest.approx(scipy_binom.cdf(s, m, p), abs=1e-12)


@pytest.mark.parametrize("s,m,p", GRID)
def test_upper_tail_matches_scipy(s, m, p):
    assert binom_upper_tail(s, m, p) == pytest.approx(
        scipy_binom.sf(s - 1, m, p), abs=1e-12
    )


@pytest.mark.parametrize("m", [0, 1, 5, 29, 60])
@pytest.mark.parametrize("p", [0.0, 1e-9, 0.1, 0.5, 0.9, 1 - 1e-9, 1.0])
def test_pmf_row_equals_scalar_pmf(m, p):
    # the uncached row feeds terminal_pmf and the tails, the cached scalar
    # feeds the design search: both must give the same numbers, bit for bit
    assert binom_pmf_row(m, p) == [binom_pmf(s, m, p) for s in range(m + 1)]
    start, stop = m // 3, m - m // 4
    assert binom_pmf_row(m, p, start, stop) == [binom_pmf(s, m, p) for s in range(start, stop)]
    assert binom_pmf_row(m, p, start) == [binom_pmf(s, m, p) for s in range(start, m + 1)]


def test_pmf_exact_fraction_oracle():
    # small cases where the pmf is an exact rational number
    for m in range(1, 9):
        for s in range(m + 1):
            exact = Fraction(math.comb(m, s)) * Fraction(1, 2) ** m
            assert binom_pmf(s, m, 0.5) == pytest.approx(float(exact), abs=1e-15)


def test_boundary_conventions():
    assert binom_cdf(-1, 10, 0.3) == 0.0
    assert binom_cdf(10, 10, 0.3) == 1.0
    assert binom_upper_tail(0, 10, 0.3) == 1.0
    assert binom_upper_tail(-3, 10, 0.3) == 1.0
    assert binom_upper_tail(11, 10, 0.3) == 0.0
    assert binom_pmf(-1, 10, 0.3) == 0.0
    with pytest.raises(ValueError):
        binom_pmf(11, 10, 0.3)
    with pytest.raises(ValueError):
        binom_cdf(11, 10, 0.3)
    with pytest.raises(ValueError):
        binom_pmf(1, 10, 1.5)
    with pytest.raises(ValueError):
        binom_pmf(1, -1, 0.5)


@given(
    m=st.integers(min_value=1, max_value=80),
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_pmf_sums_to_one(m, p):
    total = math.fsum(binom_pmf(s, m, p) for s in range(m + 1))
    assert total == pytest.approx(1.0, abs=1e-12)


@given(
    m=st.integers(min_value=1, max_value=60),
    s=st.integers(min_value=0, max_value=60),
    p=st.floats(min_value=0.001, max_value=0.999, allow_nan=False),
)
@settings(max_examples=120, deadline=None)
def test_tail_complement_identity(m, s, p):
    s = min(s, m)
    assert binom_upper_tail(s, m, p) == pytest.approx(
        1.0 - binom_cdf(s - 1, m, p), abs=1e-12
    )


@given(
    m=st.integers(min_value=1, max_value=40),
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_cdf_monotone_in_s(m, p):
    values = [binom_cdf(s, m, p) for s in range(-1, m + 1)]
    assert all(lo <= hi + 1e-15 for lo, hi in zip(values, values[1:]))


def test_root_solver_recovers_known_roots():
    # upper tail of Bin(10, p) at s=3 is increasing in p
    root = solve_monotone_root(lambda p: binom_upper_tail(3, 10, p), 0.5)
    assert not root.out_of_bracket
    assert binom_upper_tail(3, 10, root.value) == pytest.approx(0.5, abs=1e-8)
    # decreasing function
    root = solve_monotone_root(lambda p: binom_cdf(3, 10, p), 0.2)
    assert binom_cdf(3, 10, root.value) == pytest.approx(0.2, abs=1e-8)


def test_root_solver_out_of_bracket():
    root = solve_monotone_root(lambda p: p * 0.5, 0.9)
    assert root.out_of_bracket and root.value == 1.0
    root = solve_monotone_root(lambda p: p * 0.5, -0.1)
    assert root.out_of_bracket and root.value == 0.0


def test_normal_quantile():
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)
