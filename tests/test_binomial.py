"""Binomial kernel against scipy and exact-fraction oracles."""

import math
import statistics
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom as scipy_binom

from oracles import (
    binom_tail_rows_mp,
    binom_tails_mp,
    exact_stagewise_tails,
    pmf_row_lgamma_oracle,
    stagewise_tails_mp,
)
from twostage.binomial import (
    MAX_SAMPLE_SIZE,
    binom_cdf,
    binom_pmf,
    binom_pmf_row,
    binom_upper_tail,
    normal_quantile,
    solve_monotone_root,
)
from twostage.design import TwoStageDesign
from twostage.inference import ROOT_TOL, q_lower_value, q_value

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


@pytest.mark.parametrize("m", [0, 1, 40, 1000, MAX_SAMPLE_SIZE])
@pytest.mark.parametrize("p", [1e-300, 1e-4, 0.3137, 0.5, 1 - 1e-12])
def test_pmf_row_is_bit_identical_to_lgamma_terms(m, p):
    # the log-factorial table holds the same lgamma values the terms used to
    # compute, and each term adds them in the same order
    assert binom_pmf_row(m, p) == pmf_row_lgamma_oracle(m, p)
    start, stop = m // 3, m - m // 4
    assert binom_pmf_row(m, p, start, stop) == pmf_row_lgamma_oracle(m, p, start, stop)


def test_kernel_rejects_a_sample_size_above_the_cap():
    m = MAX_SAMPLE_SIZE + 1
    for call in (
        lambda: binom_pmf_row(m, 0.3),
        lambda: binom_pmf_row(m, 0.0),
        lambda: binom_pmf(1, m, 0.3),
        lambda: binom_cdf(1, m, 0.3),
        lambda: binom_upper_tail(1, m, 0.3),
    ):
        with pytest.raises(ValueError, match="cap"):
            call()
    assert len(binom_pmf_row(MAX_SAMPLE_SIZE, 0.3)) == MAX_SAMPLE_SIZE + 1


def test_pmf_row_rejects_terms_outside_the_row():
    for start, stop in ((-1, 5), (0, 12), (11, 12)):
        with pytest.raises(ValueError, match="outside 0..10"):
            binom_pmf_row(10, 0.3, start, stop)
    assert binom_pmf_row(10, 0.3, 4, 4) == []


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


# Relative accuracy against mpmath, where the exact tail is at least 1e-300
# (smaller tails lose digits to subnormal rounding). The bounds are about
# 2.5x the worst error measured: 1.83e-12 for the kernel tails over every s
# with m in {200, 500, 1000} and the seven p below (at m = 1000, p = 1e-3,
# s = 80), and 2.2e-13 for the q-functions over every outcome of the
# designs below (5/60, 40/200 at p = 0.01). The error grows with m: about
# one rounding per term of the sum and of the log-factorial table.
MP_PS = (1e-4, 1e-3, 0.01, 0.1, 0.3137, 0.5, 0.9)
MP_FLOOR = mpmath.mpf("1e-300")


def relative_errors(pairs):
    return [abs(got - ref) / ref for got, ref in pairs if ref >= MP_FLOOR]


@pytest.mark.parametrize("m", [200, 500, 1000])
@pytest.mark.parametrize("p", MP_PS)
def test_kernel_tails_match_mpmath_up_to_m_1000(m, p):
    upper, lower = binom_tail_rows_mp(m, p)
    # every s at m = 200, every 2nd and 5th at 500 and 1000: all of them
    # would take seconds
    totals = range(0, m + 1, m // 200)
    errors = relative_errors(
        [(binom_upper_tail(s, m, p), upper[s]) for s in totals]
        + [(binom_cdf(s, m, p), lower[s]) for s in totals]
    )
    assert max(errors) <= 5e-12


@pytest.mark.parametrize(
    "text", ["1/10, 5/29", "3/13, 12/43", "7/16, 23/46", "30/60, 40/100", "5/60, 40/200"]
)
@pytest.mark.parametrize("p", MP_PS)
def test_q_functions_match_mpmath(text, p):
    d = TwoStageDesign.from_compact(text)
    upper, lower = stagewise_tails_mp(d.a1, d.n1, d.n, p)
    errors = relative_errors(
        [(q_value(s, d.size_at(s), p, d), upper[s]) for s in range(d.n + 1)]
        + [(q_lower_value(s, d.size_at(s), p, d), lower[s]) for s in range(d.n + 1)]
    )
    assert max(errors) <= 5e-13


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


def _solve_counted(f, target, tol=ROOT_TOL):
    """The root of f = target and the number of evaluations of f it took."""
    calls = []

    def counted(p):
        calls.append(p)
        return f(p)

    return solve_monotone_root(counted, target, tol=tol), len(calls)


def _max_evals(tol):
    # bisection needs ceil(log2(1 / tol)) steps; ITP allows one more, plus
    # the two endpoint evaluations
    return math.ceil(math.log2(1.0 / tol)) + 3


CP_CASES = [(s, m) for m in (5, 40, 200, 1000) for s in sorted({1, m // 4, m // 2, m - 1})]
ROOT_LEVELS = (0.9, 0.95, 0.999)
JT_DESIGNS = ("1/10,5/29", "3/13,12/43", "13/40,40/110")


@pytest.fixture(scope="module")
def cp_solves():
    """(s, m, side, target, root, evaluations) of every interior CP limit."""
    out = []
    for s, m in CP_CASES:
        for level in ROOT_LEVELS:
            target = (1.0 - level) / 2.0
            for side, f in (("upper", lambda p: binom_upper_tail(s, m, p)),
                            ("lower", lambda p: binom_cdf(s, m, p))):
                root, evals = _solve_counted(f, target)
                assert not root.out_of_bracket
                out.append((s, m, side, target, root.value, evals))
    return out


@pytest.fixture(scope="module")
def jt_solves():
    """(design, s, m, side, target, root, evaluations) of every JT limit
    that is a root inside (0, 1)."""
    out = []
    for text in JT_DESIGNS:
        d = TwoStageDesign.from_compact(text)
        for s in range(d.n + 1):
            m = d.size_at(s)
            for level in ROOT_LEVELS[1:]:
                target = (1.0 - level) / 2.0
                for side, q in (("upper", q_value), ("lower", q_lower_value)):
                    root, evals = _solve_counted(lambda p: q(s, m, p, d), target)
                    if not root.out_of_bracket and 0.0 < root.value < 1.0:
                        out.append((d, s, m, side, target, root.value, evals))
    return out


def test_cp_roots_straddle_the_exact_tail(cp_solves):
    # the root lies within tol / 2 of the exact root of the exact tail
    half = mpmath.mpf(ROOT_TOL) / 2
    for s, m, side, target, value, _ in cp_solves:
        k = 0 if side == "upper" else 1
        below = binom_tails_mp(s, m, mpmath.mpf(value) - half)[k]
        above = binom_tails_mp(s, m, mpmath.mpf(value) + half)[k]
        if side == "upper":  # increasing in p
            assert below <= target <= above, (s, m, side, target)
        else:
            assert below >= target >= above, (s, m, side, target)


def test_jt_roots_straddle_the_exact_tails(jt_solves):
    half = Fraction(ROOT_TOL) / 2
    for d, s, m, side, target, value, _ in jt_solves:
        k = 0 if side == "upper" else 1
        below = exact_stagewise_tails(s, m, d.a1, d.n1, d.n, Fraction(value) - half)[k]
        above = exact_stagewise_tails(s, m, d.a1, d.n1, d.n, Fraction(value) + half)[k]
        if side == "upper":  # q increases in p, q_lower decreases
            assert below <= target <= above, (d.compact(), s, m, side, target)
        else:
            assert below >= target >= above, (d.compact(), s, m, side, target)


def test_root_solves_stay_within_the_worst_case(cp_solves, jt_solves):
    evals = [r[-1] for r in cp_solves + jt_solves]
    assert len(evals) > 300
    assert max(evals) <= _max_evals(ROOT_TOL) == 37


def test_root_solves_average_well_under_bisection(cp_solves, jt_solves):
    # bisection takes 36 evaluations on every one of these solves
    assert statistics.fmean(r[-1] for r in cp_solves) <= 30
    assert statistics.fmean(r[-1] for r in jt_solves) <= 30


def _kinked(p):
    # slope 1e-3 up to 0.9, then 1e3: while 1 is an endpoint of the bracket,
    # the interpolation point lands next to the other endpoint
    return p * 1e-3 if p <= 0.9 else 9e-4 + (p - 0.9) * 1e3


ADVERSARIAL = {
    "staircase": (lambda p: math.floor(10.0 * p) / 10.0, (0.05, 0.35, 0.95)),
    "p**50": (lambda p: p**50, (1e-300, 1e-12, 0.3, 0.999)),
    "kinked": (_kinked, (1e-9, 5e-4, 8.9e-4, 0.5)),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("increasing", [True, False])
def test_adversarial_monotone_targets(name, tol, increasing):
    f, targets = ADVERSARIAL[name]
    sign = 1.0 if increasing else -1.0
    for target in targets:
        root, evals = _solve_counted(lambda p: sign * f(p), sign * target, tol)
        assert evals <= _max_evals(tol), (target, evals)
        assert not root.out_of_bracket
        below, above = f(root.value - tol / 2), f(root.value + tol / 2)
        assert below <= target <= above, (target, root.value)


def test_root_solver_exact_hit_returns_that_point():
    root = solve_monotone_root(lambda p: p, 0.5)
    assert root.value == 0.5 and not root.out_of_bracket

    def staircase(p):
        return math.floor(10.0 * p) / 10.0

    root = solve_monotone_root(staircase, 0.3)
    assert staircase(root.value) == 0.3


def test_root_solver_at_zero_tolerance_bisects_to_float_resolution():
    root = solve_monotone_root(lambda p: p * p, 0.3, tol=0.0)
    assert root.value * root.value == pytest.approx(0.3, abs=1e-15)


def test_normal_quantile():
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)
