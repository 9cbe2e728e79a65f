"""Point estimation, p-values, confidence intervals, and exact coverage."""

import dataclasses
import math
import operator
import random
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom as scipy_binom
from scipy.stats import f as f_dist

from oracles import (
    conditional_mle_mp,
    conditional_mle_scan_oracle,
    coverage_by_intervals_oracle,
    midp_covered_full_row,
    midp_limits_oracle,
    midp_tail_full_row,
    pmf_row_lgamma_oracle,
    stage_paths,
    stagewise_tails_mp,
    terminal_pmf_two_builders,
    terminal_probs,
    umvcue_fraction_sum,
    umvue_fraction_sum,
)
from twostage import inference
from twostage.binomial import (
    _COUNT_ROWS,
    binom_cdf,
    binom_pmf_row,
    binom_upper_tail,
    solve_monotone_root,
)
from twostage.design import (
    DesignTargets,
    TwoStageDesign,
    operating_characteristics,
    terminal_pmf,
)
from twostage.deviation import interpretation_probabilities
from twostage.inference import (
    AnalysisState,
    ci_clopper_pearson,
    ci_jennison_turnbull,
    ci_midp,
    ci_wald,
    ci_wilson,
    coverage,
    estimate_all,
    estimate_bias_adjusted,
    estimate_bias_subtracted,
    estimate_conditional,
    estimate_median_unbiased,
    estimate_naive,
    estimate_umvcue,
    estimate_umvue,
    estimator_bias,
    interval_for_outcome,
    p_value,
    q_lower_value,
    q_value,
    umvcue_fraction,
    umvue_fraction,
)

TARGETS = DesignTargets(p0=0.1, p1=0.3, alpha=0.05, beta=0.2)
DESIGN = TwoStageDesign(a1=1, a=5, n1=10, n=29, targets=TARGETS)

DESIGNS = [
    DESIGN,
    TwoStageDesign(a1=1, a=5, n1=15, n=25, targets=TARGETS),
    TwoStageDesign(
        a1=3, a=12, n1=13, n=43, targets=DesignTargets(0.2, 0.4, 0.05, 0.2)
    ),
    TwoStageDesign(
        a1=5, a=18, n1=15, n=46, targets=DesignTargets(0.3, 0.5, 0.05, 0.2)
    ),
    TwoStageDesign(
        a1=7, a=23, n1=16, n=46, targets=DesignTargets(0.4, 0.6, 0.05, 0.2)
    ),
]


def state(s, m, design=DESIGN):
    return AnalysisState(design=design, s=s, m=m)


def q_oracle(s, m, p, design):
    """Stagewise-ordering tail probability by direct summation (scipy)."""
    d = design
    if m == d.n1:
        return float(scipy_binom.sf(s - 1, d.n1, p))
    return float(
        sum(
            scipy_binom.pmf(i, d.n1, p) * scipy_binom.sf(s - i - 1, m - d.n1, p)
            for i in range(d.a1 + 1, d.n1 + 1)
        )
    )


# ---------------------------------------------------------------------------
# point estimation


def test_naive():
    assert estimate_naive(6, 29) == pytest.approx(6 / 29)
    assert estimate_naive(0, 10) == 0.0


def test_umvue_known_values():
    assert umvue_fraction(6, 29, DESIGN) == Fraction(7221, 27634)
    assert estimate_umvue(state(6, 29)) == pytest.approx(0.2613085329666353, abs=1e-14)
    # stage-1 stop reduces to the sample proportion
    assert umvue_fraction(1, 10, DESIGN) == Fraction(1, 10)
    # smallest continuation total: all mass on the single path s1 = 2
    assert umvue_fraction(2, 29, DESIGN) == Fraction(1, 5)


def test_umvcue_known_values():
    assert umvcue_fraction(2, 29, DESIGN) == Fraction(0, 1)
    assert estimate_umvcue(state(6, 29)) == pytest.approx(0.17825866685966563, abs=1e-14)


@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.compact())
def test_umvue_unbiased_by_path_enumeration(design):
    """E[UMVUE] = p, with the expectation computed by independent path sums."""
    for k in range(1, 20):
        p = k / 20
        expectation = math.fsum(
            float(umvue_fraction(s, m, design)) * pr
            for _, s, m, pr in stage_paths(design.a1, design.n1, design.n, p)
        )
        assert expectation == pytest.approx(p, abs=1e-10)


@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.compact())
def test_umvcue_conditionally_unbiased(design):
    """E[UMVCUE | second stage reached] = p by independent path sums."""
    for k in range(1, 20):
        p = k / 20
        num = 0.0
        den = 0.0
        for _, s, m, pr in stage_paths(design.a1, design.n1, design.n, p):
            if m == design.n:
                num += float(umvcue_fraction(s, m, design)) * pr
                den += pr
        assert num / den == pytest.approx(p, abs=1e-8)


def random_designs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n1 = rng.randint(1, 40)
        a1 = rng.randrange(n1)
        yield TwoStageDesign(a1=a1, a=a1, n1=n1, n=n1 + rng.randint(1, 60))


def test_exact_estimates_equal_their_defining_sums():
    # the count row and its one pass give the very fractions of the
    # defining binomial sums, at every terminal outcome of 200 designs
    for design in random_designs(200, seed=9):
        for s in range(design.n + 1):
            m = design.size_at(s)
            assert umvue_fraction(s, m, design) == umvue_fraction_sum(s, m, design), (design, s)
            assert umvcue_fraction(s, m, design) == umvcue_fraction_sum(s, m, design), (design, s)


@pytest.mark.parametrize(
    "design",
    [
        TwoStageDesign(a1=0, a=3, n1=6, n=20),  # a1 = 0
        TwoStageDesign(a1=5, a=7, n1=6, n=20),  # a1 = n1 - 1
        TwoStageDesign(a1=1, a=3, n1=10, n=11),  # n2 = 1
        TwoStageDesign(a1=0, a=0, n1=1, n=2),  # the smallest design
        DESIGN.with_final_n(26),  # realised sizes below and above the plan
        DESIGN.with_final_n(40),
    ],
    ids=lambda d: d.compact(),
)
def test_exact_estimates_at_the_edges(design):
    a1, n1, n = design.a1, design.n1, design.n
    for s in range(n + 1):
        m = design.size_at(s)
        assert umvue_fraction(s, m, design) == umvue_fraction_sum(s, m, design), s
        assert umvcue_fraction(s, m, design) == umvcue_fraction_sum(s, m, design), s
    # at the smallest continuing total the last patient cannot have
    # responded, and at s = n every patient did
    assert umvcue_fraction(a1 + 1, n, design) == 0
    assert umvue_fraction(n, n, design) == umvcue_fraction(n, n, design) == 1
    if a1 == n1 - 1:
        # every continuing path has s1 = n1
        assert {umvue_fraction(s, n, design) for s in range(a1 + 1, n + 1)} == {1}


def test_exact_estimates_reject_an_outcome_the_design_cannot_end_in():
    for s, m in [(2, 10), (1, 29), (30, 29), (6, 20)]:
        with pytest.raises(ValueError):
            umvue_fraction(s, m, DESIGN)
        with pytest.raises(ValueError):
            umvcue_fraction(s, m, DESIGN)


def test_rao_blackwell_identity_is_exact():
    # given the outcome, n1 UMVUE = E(S1) and n2 UMVCUE = E(S2), and
    # S1 + S2 = s
    for design in [*DESIGNS, *random_designs(50, seed=10)]:
        for s in range(design.a1 + 1, design.n + 1):
            total = design.n1 * umvue_fraction(s, design.n, design)
            total += design.n2 * umvcue_fraction(s, design.n, design)
            assert total == s, (design, s)


@given(
    n1=st.integers(min_value=1, max_value=40),
    a1_share=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    n2=st.integers(min_value=1, max_value=80),
)
@settings(max_examples=200, deadline=None)
def test_stage2_umvues_do_not_fall_as_s_grows(n1, a1_share, n2):
    # ties occur (every stage-2 UMVUE is 1 at a1 = n1 - 1); nothing in the
    # package relies on this order yet
    a1 = int(a1_share * n1)
    design = TwoStageDesign(a1=a1, a=a1, n1=n1, n=n1 + n2)
    umvues = [umvue_fraction(s, design.n, design) for s in range(a1 + 1, design.n + 1)]
    assert umvues == sorted(umvues)


def test_estimator_bias_against_path_enumeration():
    for p in (0.1, 0.3):
        expected, bias = estimator_bias("naive", p, DESIGN)
        oracle = math.fsum(
            (s / m) * pr for _, s, m, pr in stage_paths(1, 10, 29, p)
        )
        assert expected == pytest.approx(oracle, abs=1e-12)
        assert bias == pytest.approx(oracle - p, abs=1e-12)


def test_bias_subtracted():
    est = estimate_bias_subtracted(state(6, 29))
    assert est.value == pytest.approx(0.2382346876932252, abs=1e-10)
    assert not est.clamped
    # naive minus its estimated bias, evaluated at the naive estimate
    naive = 6 / 29
    _, bias = estimator_bias("naive", naive, DESIGN)
    assert est.value == pytest.approx(naive - bias, abs=1e-12)


def test_bias_adjusted_fixed_point():
    est = estimate_bias_adjusted(state(6, 29))
    assert est.value == pytest.approx(0.2360194393841084, abs=1e-8)
    expected, _ = estimator_bias("naive", est.value, DESIGN)
    assert expected == pytest.approx(6 / 29, abs=1e-8)


@pytest.mark.parametrize(
    "design, m",
    [(DESIGN, 29), (DESIGNS[2], 43), (DESIGNS[3], 46), (DESIGN, 26)],
    ids=["1/10,5/29", "3/13,12/43", "5/15,18/46", "1/10,5/29@26"],
)
def test_bias_adjusted_target_is_the_naive_expectation_bit_for_bit(monkeypatch, design, m):
    # the root's target reads the outcome values once and the kernel at each
    # p; it must be estimator_bias's sum exactly, not merely close to it
    targets = []

    def capture(f, target, tol):
        targets.append(f)
        return solve_monotone_root(f, target, tol=tol)

    monkeypatch.setattr(inference, "solve_monotone_root", capture)
    st_ = AnalysisState(design=design, s=design.a1 + 3, m=m)
    estimate_bias_adjusted(st_)
    (f,) = targets
    for p in [k / 49 for k in range(50)]:
        assert f(p) == estimator_bias("naive", p, st_.analysis_design)[0]


def test_bias_adjusted_exact_at_boundaries():
    # E(naive | p) equals the naive estimate at p = 0 and p = 1 exactly
    assert estimate_bias_adjusted(state(0, 10)).value == 0.0
    assert estimate_bias_adjusted(state(29, 29)).value == 1.0


def test_conditional_estimate_maximises_conditional_likelihood():
    def cond_loglik(p, s, design):
        cont = float(
            sum(
                scipy_binom.pmf(i, design.n1, p)
                for i in range(design.a1 + 1, design.n1 + 1)
            )
        )
        return s * math.log(p) + (design.n - s) * math.log1p(-p) - math.log(cont)

    value = estimate_conditional(state(6, 29))
    assert value == pytest.approx(0.1761776466297289, abs=1e-7)
    grid = [k / 4000 for k in range(1, 4000)]
    best = max(grid, key=lambda p: cond_loglik(p, 6, DESIGN))
    assert value == pytest.approx(best, abs=5e-4)


def test_conditional_estimate_boundary():
    assert estimate_conditional(state(29, 29)) == 1.0


@pytest.mark.parametrize("text", ["1/10, 5/29", "0/5, 3/20", "4/19, 14/54", "13/40, 40/110"])
def test_conditional_estimate_exact_at_smallest_stage2_outcome(text):
    # the conditional likelihood decreases on all of (0, 1) at s = a1 + 1
    design = TwoStageDesign.from_compact(text)
    assert estimate_conditional(state(design.a1 + 1, design.n, design)) == 0.0


@pytest.mark.parametrize(
    "design, m",
    [(d, d.n) for d in DESIGNS] + [(DESIGN, 26), (DESIGNS[2], 50)],
    ids=lambda v: v.compact() if isinstance(v, TwoStageDesign) else str(v),
)
def test_conditional_estimate_is_bit_identical_to_the_full_scan(design, m):
    # the scan reads log x, log1p(-x) and the continuation row from tables
    # built once; every stage-2 outcome must give the float a fresh scan gives
    for s in range(design.a1 + 1, m + 1):
        assert estimate_conditional(state(s, m, design)) == conditional_mle_scan_oracle(
            s, m, design.a1, design.n1
        ), (s, m)


@pytest.mark.parametrize(
    "p, a1, n1",
    [(1e-12, 26, 30), (1e-12, 27, 30), (1e-12, 29, 30), (3e-10, 58, 60), (1e-12, 29, 100)],
)
def test_log_continuation_prob_where_the_tail_underflows(p, a1, n1):
    # P(X1 > a1) is subnormal (26/30, about 4e-321) or below the smallest
    # subnormal, so its log comes from the log-space terms
    assert binom_upper_tail(a1 + 1, n1, p) < sys.float_info.min
    with mpmath.workdps(40):
        q = mpmath.mpf(p)
        tail = mpmath.fsum(
            mpmath.binomial(n1, k) * q**k * (1 - q) ** (n1 - k) for k in range(a1 + 1, n1 + 1)
        )
        exact = float(mpmath.log(tail))
    assert inference._log_continuation_prob(p, a1, n1) == pytest.approx(exact, rel=1e-14)


def test_log_continuation_prob_is_the_log_of_the_tail_otherwise():
    for p, a1, n1 in [(1e-12, 0, 5), (0.3, 5, 15), (1.0, 29, 30)]:
        tail = binom_upper_tail(a1 + 1, n1, p)
        assert tail >= sys.float_info.min
        assert inference._log_continuation_prob(p, a1, n1) == math.log(tail)


def test_log_continuation_row_leaves_the_tail_cache_alone():
    # the 401 scan tails are binom_upper_tail's sum, uncached: the row
    # holds the values the cached path gives, and the scalar cache gains
    # none of them, also where the tail underflows (27/30)
    for a1, n1 in [(5, 15), (0, 5), (27, 30), (13, 40)]:
        inference._log_continuation_row.cache_clear()
        before = binom_upper_tail.cache_info().currsize
        row = inference._log_continuation_row(a1, n1)
        assert binom_upper_tail.cache_info().currsize == before
        grid = inference._mle_grid()[0]
        assert list(row) == [inference._log_continuation_prob(x, a1, n1) for x in grid]


@pytest.mark.parametrize(
    "text, totals",
    [("30/60, 40/100", [32, 50, 75, 99]), ("28/30, 35/40", range(30, 40))],
)
def test_conditional_estimate_where_the_continuation_tail_underflows(text, totals):
    # a1 this close to n1 made the scan take log(0.0) at its first points;
    # the golden-section search is within 1.5e-8 of the maximiser on these
    # designs (measured over every interior outcome)
    design = TwoStageDesign.from_compact(text)
    for s in totals:
        value = estimate_conditional(state(s, design.n, design))
        assert value == pytest.approx(
            conditional_mle_mp(s, design.n, design.a1, design.n1), abs=3e-8
        ), s


@pytest.mark.parametrize("text", ["30/60, 40/100", "29/100, 60/120", "1/10, 5/29"])
def test_conditional_estimate_is_within_2e_8_of_its_score_root(text):
    # the audit rules out a conditional MLE at a rounding window on its
    # score equation E_p[S | continue] = s; that is exact only while the
    # golden-section value stays within 2e-8 of the equation's root (1.5e-8
    # measured on 30/60, 40/100) and the score rises with p
    design = TwoStageDesign.from_compact(text)
    for s in range(design.a1 + 2, design.n):
        outcome = state(s, design.n, design)
        root = conditional_mle_mp(s, design.n, design.a1, design.n1)
        assert abs(estimate_conditional(outcome) - root) <= 2e-8, s
        score, target = inference.estimate_equation("conditional", outcome)
        assert target == s
        assert score(root - 1e-7) < s < score(root + 1e-7), s
    grid = [score(k / 400) for k in range(1, 400)]
    assert all(low < high for low, high in zip(grid, grid[1:]))


def test_conditional_score_equation_only_at_interior_stage2_outcomes():
    for s, m in [(0, 10), (1, 10), (2, 29), (29, 29)]:
        assert inference.estimate_equation("conditional", state(s, m)) is None
    score, _ = inference.estimate_equation("conditional", state(6, 29))
    # the continuation terms of 30/60, 40/100 underflow near p = 0, where
    # the score decides nothing
    deep = TwoStageDesign.from_compact("30/60, 40/100")
    deep_score, _ = inference.estimate_equation("conditional", state(50, 100, deep))
    assert math.isnan(deep_score(1e-12))
    assert 2.0 < score(0.1) < 29.0


def test_equations_are_the_ones_the_solvers_solve():
    for s in range(DESIGN.n1 + 1, DESIGN.n + 1):
        outcome = state(s, DESIGN.n)
        for name in ("bias_adjusted", "median_unbiased"):
            f, target = inference.estimate_equation(name, outcome)
            root = solve_monotone_root(f, target, tol=inference.ROOT_TOL)
            assert getattr(estimate_all(outcome), name) == root.value, (name, s)
        for method in ("JT", "midp", "CP"):
            ci = interval_for_outcome(method, s, DESIGN, 0.9)
            equations = inference.interval_equations(method, s, DESIGN.n, 0.9, DESIGN)
            if equations is None:
                assert method == "CP" and s == DESIGN.n
                continue
            roots = [solve_monotone_root(f, t, tol=inference.ROOT_TOL) for f, t in equations]
            low = 0.0 if roots[0].out_of_bracket and method != "CP" else roots[0].value
            upp = 1.0 if roots[1].out_of_bracket and method != "CP" else roots[1].value
            assert (ci.low, ci.upp) == (low, upp), (method, s)
    for name in ("naive", "bias_subtracted", "umvue", "umvcue"):
        assert inference.estimate_equation(name, state(6, 29)) is None
    for method in ("Wald", "Wilson"):
        assert inference.interval_equations(method, 6, 29, 0.95) is None


@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.compact())
def test_umvue_bias_is_float_rounding(design):
    # the UMVUE is unbiased at every p, so its computed bias is rounding
    # alone: at most 1.7e-15 measured on these designs at p = 0.01..0.99
    for k in range(1, 100):
        p = k / 100
        expected, bias = estimator_bias("umvue", p, design)
        assert bias == expected - p
        assert abs(bias) <= 1e-14, p


def test_median_unbiased():
    est = estimate_median_unbiased(state(6, 29))
    assert est.value == pytest.approx(0.2146808837132994, abs=1e-8)
    assert q_value(6, 29, est.value, DESIGN) == pytest.approx(0.5, abs=1e-8)
    zero = estimate_median_unbiased(state(0, 10))
    assert zero.value == 0.0
    assert zero.note


def test_estimate_all_consistent_with_parts():
    estimates = estimate_all(state(6, 29))
    assert estimates.naive == pytest.approx(6 / 29)
    assert estimates.umvue == pytest.approx(0.2613085329666353)
    assert estimates.umvcue == pytest.approx(0.17825866685966563)


def test_estimates_at_deviated_final_n():
    # the analysed sample size replaces the planned n throughout
    st26 = AnalysisState(design=DESIGN, s=5, m=26)
    assert estimate_umvue(st26) == pytest.approx(0.2506248264371008, abs=1e-12)
    shifted = DESIGN.with_final_n(26)
    assert estimate_umvue(st26) == pytest.approx(
        float(umvue_fraction(5, 26, shifted)), abs=1e-14
    )


def test_estimate_all_builds_the_analysis_design_once(monkeypatch):
    builds = []
    with_final_n = TwoStageDesign.with_final_n

    def counting(self, n_final):
        builds.append(n_final)
        return with_final_n(self, n_final)

    monkeypatch.setattr(TwoStageDesign, "with_final_n", counting)
    estimate_all(AnalysisState(design=DESIGN, s=5, m=26))
    assert builds == [26]


@pytest.mark.parametrize(
    "design, m",
    [(DESIGN, 26), (DESIGN, 33), (TwoStageDesign(a1=1, a=12, n1=10, n=29), 12)],
    ids=lambda v: v.compact() if isinstance(v, TwoStageDesign) else str(v),
)
def test_analysis_design_is_the_design_with_the_realised_final_n(design, m):
    # the last case has a = 12 >= m, which the realised size cannot exceed
    analysed = AnalysisState(design=design, s=design.a1 + 1, m=m).analysis_design
    assert analysed == design.with_final_n(m)
    assert AnalysisState(design=design, s=0, m=design.n1).analysis_design == design
    assert AnalysisState(design=design, s=design.n, m=design.n).analysis_design == design


def test_analysis_state_validation():
    with pytest.raises(ValueError):
        AnalysisState(design=DESIGN, s=5, m=10)  # continued, not stopped
    with pytest.raises(ValueError):
        AnalysisState(design=DESIGN, s=1, m=29)  # total below continuation
    with pytest.raises(ValueError):
        AnalysisState(design=DESIGN, s=30, m=29)
    with pytest.raises(ValueError, match="analysis sample size 9 is below n1=10"):
        AnalysisState(design=DESIGN, s=3, m=9)
    with pytest.raises(ValueError, match="cap"):
        AnalysisState(design=DESIGN, s=6, m=10**6)


def per_stage_rule(design, s, m, stage):
    """The per-stage rule AnalysisState applied to an explicit stage before
    the stage was derived from m."""
    if stage == 1:
        return m == design.n1 and 0 <= s <= design.a1
    return m > design.n1 and design.a1 < s <= m


@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.compact())
def test_analysis_state_accepts_exactly_the_terminal_outcomes(design):
    n1, n = design.n1, design.n
    for m in (n1 - 1, n1, n1 + 1, n, n + 7):
        stage = 1 if m == n1 else 2
        for s in range(-1, m + 2):
            if per_stage_rule(design, s, m, stage):
                assert AnalysisState(design, s, m).stage == stage
            else:
                with pytest.raises(ValueError):
                    AnalysisState(design, s, m)


def test_analysis_state_takes_s1_by_keyword_only():
    # a stage passed in the old fourth position must not be read as s1
    with pytest.raises(TypeError):
        AnalysisState(DESIGN, 6, 29, 2)
    assert AnalysisState(DESIGN, 6, 29, s1=2).s1 == 2


def test_estimator_bias_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown estimator 'mle'"):
        estimator_bias("mle", 0.3, DESIGN)


@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.compact())
def test_exact_estimator_bias_reads_the_defining_sums(design):
    for estimator, oracle in (("umvue", umvue_fraction_sum), ("umvcue", umvcue_fraction_sum)):
        values = [float(oracle(s, design.size_at(s), design)) for s in range(design.n + 1)]
        for p in (0.05, 0.3, 0.77):
            expected = math.fsum(map(operator.mul, values, terminal_pmf(design, p)))
            assert estimator_bias(estimator, p, design) == (expected, expected - p)


# ---------------------------------------------------------------------------
# p-values


def test_q_value_matches_oracle():
    for design in DESIGNS[:3]:
        for p in (0.1, 0.2, 0.4):
            for s, m in [(design.a1, design.n1), (design.a + 1, design.n)]:
                assert q_value(s, m, p, design) == pytest.approx(
                    q_oracle(s, m, p, design), abs=1e-12
                )


@pytest.mark.parametrize(
    "s, m, message",
    [
        (2, 10, "not a stage-1 terminal outcome"),
        (-1, 10, "not a stage-1 terminal outcome"),
        (1, 29, "not a stage-2 terminal outcome"),
        (30, 29, "not a stage-2 terminal outcome"),
        (5, 20, "neither n1=10 nor the final size 29"),
        (3, 9, "analysis sample size 9 is below n1=10"),
    ],
)
def test_q_functions_reject_the_same_non_terminal_outcomes(s, m, message):
    for q in (q_value, q_lower_value):
        with pytest.raises(ValueError, match=message):
            q(s, m, 0.3, DESIGN)


def test_p_value_known():
    assert p_value(state(6, 29)) == pytest.approx(0.047086306643891324, abs=1e-12)


def test_p_value_explicit_null_overrides_targets():
    assert p_value(state(6, 29), p0=0.2) == pytest.approx(
        q_oracle(6, 29, 0.2, DESIGN), abs=1e-12
    )


def q_lower_exact(s, p, design):
    """Outcome-inclusive lower tail of the stage-2 outcome (s, n), exactly."""
    d, p = design, Fraction(p)
    n2 = d.n - d.n1

    def pmf(k, m):
        return math.comb(m, k) * p**k * (1 - p) ** (m - k)

    stops = sum(pmf(s1, d.n1) for s1 in range(d.a1 + 1))
    paths = sum(
        pmf(s1, d.n1) * pmf(s2, n2)
        for s1 in range(d.a1 + 1, d.n1 + 1)
        for s2 in range(n2 + 1)
        if s1 + s2 <= s
    )
    return stops + paths


@pytest.mark.parametrize("s, p", [(2, 0.9), (2, 0.99), (6, 0.95), (10, 0.9)])
def test_q_lower_value_small_tails_match_exact_enumeration(s, p):
    exact = q_lower_exact(s, p, DESIGN)
    assert q_lower_value(s, 29, p, DESIGN) == pytest.approx(float(exact), rel=1e-12, abs=0)


@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.compact())
def test_q_functions_are_a_suffix_and_a_prefix_of_one_row(design):
    # a stage-1 lower tail is the Bin(n1) cdf bit for bit, and at every
    # outcome the two tails overlap in exactly the outcome's own term
    for k in range(101):
        p = k / 100
        row = terminal_pmf(design, p)
        for s in range(design.n + 1):
            m = design.size_at(s)
            upper = q_value(s, m, p, design)
            lower = q_lower_value(s, m, p, design)
            if m == design.n1:
                assert lower == binom_cdf(s, design.n1, p)
            assert upper + lower - row[s] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.compact())
def test_p_value_decision_consistency(design):
    """p <= attained alpha exactly when the design rejects."""
    from twostage.design import reject_prob

    alpha_attained = reject_prob(design.targets.p0, design)
    for s in range(design.n + 1):
        st_o = AnalysisState(design=design, s=s, m=design.size_at(s))
        rejects = s > design.a
        assert (p_value(st_o) <= alpha_attained) == rejects


@given(
    s=st.integers(min_value=2, max_value=29),
    p=st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_q_monotone_in_s(s, p):
    # more successes make the upper tail smaller
    if s < 29:
        assert q_value(s + 1, 29, p, DESIGN) <= q_value(s, 29, p, DESIGN) + 1e-12


# ---------------------------------------------------------------------------
# confidence intervals


def test_clopper_pearson_boundaries_closed_form():
    low, upp = ci_clopper_pearson(0, 10).low, ci_clopper_pearson(0, 10).upp
    assert low == 0.0
    assert upp == pytest.approx(1.0 - 0.025 ** (1 / 10), abs=1e-12)
    assert upp == pytest.approx(0.30849710781876083, abs=1e-12)
    ci = ci_clopper_pearson(29, 29)
    assert ci.upp == 1.0
    assert ci.low == pytest.approx(0.025 ** (1 / 29), abs=1e-12)


def test_clopper_pearson_interior_matches_f_quantile():
    for s, m in [(6, 29), (3, 10), (12, 43), (20, 46)]:
        ci = ci_clopper_pearson(s, m)
        low_f = f_dist.ppf(0.025, 2 * s, 2 * (m - s + 1))
        low = s * low_f / (m - s + 1 + s * low_f)
        upp_f = f_dist.ppf(0.975, 2 * (s + 1), 2 * (m - s))
        upp = (s + 1) * upp_f / (m - s + (s + 1) * upp_f)
        assert ci.low == pytest.approx(low, abs=1e-8)
        assert ci.upp == pytest.approx(upp, abs=1e-8)


def test_wald_and_wilson_closed_forms():
    z = 1.959963984540054
    phat = 6 / 29
    half = z * math.sqrt(phat * (1 - phat) / 29)
    ci = ci_wald(6, 29)
    assert ci.low == pytest.approx(phat - half, abs=1e-9)
    assert ci.upp == pytest.approx(phat + half, abs=1e-9)
    # wald clamps to [0, 1]
    assert ci_wald(0, 10).low == 0.0
    wilson = ci_wilson(6, 29)
    centre = (phat + z * z / 58) / (1 + z * z / 29)
    assert wilson.low < centre < wilson.upp
    assert 0.0 <= wilson.low < wilson.upp <= 1.0


@pytest.mark.parametrize(
    "procedure", [estimate_naive, ci_clopper_pearson, ci_wald, ci_wilson],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize(
    "s, m, message",
    [
        (12, 10, "successes must satisfy 0 <= s <= m, got s=12, m=10"),
        (-1, 10, "successes must satisfy 0 <= s <= m, got s=-1, m=10"),
        (0, 0, "sample size must be positive, got 0"),
        (1, -3, "sample size must be positive, got -3"),
    ],
    ids=["s_above_m", "s_negative", "m_zero", "m_negative"],
)
def test_plain_binomial_procedures_share_one_count_check(procedure, s, m, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        procedure(s, m)


def test_jt_interval_known_values():
    ci = ci_jennison_turnbull(state(6, 29))
    assert ci.low == pytest.approx(0.08593418376403861, abs=1e-9)
    assert ci.upp == pytest.approx(0.45479234456433915, abs=1e-9)
    # the lower limit solves q = alpha/2
    assert q_value(6, 29, ci.low, DESIGN) == pytest.approx(0.025, abs=1e-7)


def test_jt_boundary_outcomes_match_single_stage_closed_forms():
    # the earliest and latest outcomes behave like plain binomial tails
    assert ci_jennison_turnbull(state(0, 10)).upp == pytest.approx(
        1.0 - 0.025 ** (1 / 10), abs=1e-8
    )
    assert ci_jennison_turnbull(state(29, 29)).low == pytest.approx(
        0.025 ** (1 / 29), abs=1e-8
    )
    assert ci_jennison_turnbull(state(0, 10)).low == 0.0
    assert ci_jennison_turnbull(state(29, 29)).upp == 1.0


def test_midp_known_values_and_nesting():
    mp = ci_midp(state(6, 29))
    assert mp.low == pytest.approx(0.09422553368494846, abs=1e-9)
    assert mp.upp == pytest.approx(0.45152421898092143, abs=1e-9)
    jt = ci_jennison_turnbull(state(6, 29))
    assert jt.low <= mp.low and mp.upp <= jt.upp


def test_midp_nested_in_jt_across_outcomes():
    for s in range(DESIGN.n + 1):
        st_o = AnalysisState(design=DESIGN, s=s, m=DESIGN.size_at(s))
        jt = ci_jennison_turnbull(st_o)
        mp = ci_midp(st_o)
        assert jt.low <= mp.low + 1e-9
        assert mp.upp <= jt.upp + 1e-9


# a1 = n1 - 1: every continuing path has s1 = n1, so every stage-2 outcome
# has UMVUE 1 and they all share one rank
TIED = TwoStageDesign(a1=2, a=4, n1=3, n=8)


def test_umvue_ranks_are_dense_and_share_ties():
    assert list(inference._umvue_ranks(TIED.a1, TIED.n1, TIED.n)) == [0, 1, 2] + [3] * 6
    ranks = inference._umvue_ranks(DESIGN.a1, DESIGN.n1, DESIGN.n)
    fractions = [umvue_fraction(s, DESIGN.size_at(s), DESIGN) for s in range(DESIGN.n + 1)]
    assert sorted(set(ranks)) == list(range(len(set(fractions))))
    for i, j in zip(range(DESIGN.n + 1), range(1, DESIGN.n + 1)):
        assert (ranks[i] < ranks[j]) == (fractions[i] < fractions[j])
        assert (ranks[i] == ranks[j]) == (fractions[i] == fractions[j])


@pytest.mark.parametrize(
    "design, m",
    [(DESIGN, 29), (DESIGN, 26), (DESIGNS[2], 43), (TIED, 8), (TIED, 6)],
    ids=lambda v: v.compact() if isinstance(v, TwoStageDesign) else str(v),
)
def test_midp_is_bit_identical_to_fractions_compared_per_call(design, m):
    analysed = design if m == design.n else design.with_final_n(m)
    for s in range(m + 1):
        st_o = state(s, analysed.size_at(s), design)
        ci = ci_midp(st_o, 0.9)
        assert (ci.low, ci.upp) == midp_limits_oracle(s, st_o.analysis_design, 0.9), s


@pytest.mark.parametrize(
    "design",
    [DESIGN, DESIGN.with_final_n(26), DESIGNS[2], TIED, TwoStageDesign.from_compact("8/9,10/14")],
    ids=lambda d: d.compact(),
)
def test_midp_tail_of_the_nonzero_runs_is_the_full_weighted_row(design):
    # the limits solved from the full weighted row, zero weights included,
    # are the limits ci_midp solves from the terms of nonzero weight alone
    for s in range(design.n + 1):
        for level in (0.9, 0.95):
            half = (1.0 - level) / 2.0
            roots = [
                solve_monotone_root(lambda p: midp_tail_full_row(s, p, design), target, tol=1e-10)
                for target in (half, 1.0 - half)
            ]
            ci = ci_midp(state(s, design.size_at(s), design), level)
            assert (ci.low, ci.upp) == (
                0.0 if roots[0].out_of_bracket else roots[0].value,
                1.0 if roots[1].out_of_bracket else roots[1].value,
            ), (s, level)


def test_exact_estimates_after_terminal_pmf_build_no_second_row():
    # the UMVUE and UMVCUE read the counts of terminal_pmf's prepared row
    design = TwoStageDesign.from_compact("4/19,15/54")
    _COUNT_ROWS.clear()
    terminal_pmf(design, 0.3)
    for s in (5, 20, 54):
        estimate_umvue(state(s, 54, design))
        estimate_umvcue(state(s, 54, design))
    # the exact row and the terminal row of the bias read it once each
    estimator_bias("umvue", 0.3, design)
    assert (_COUNT_ROWS.misses, _COUNT_ROWS.hits) == (1, 8)


ROW_SUM_PS = [0.0, 5e-324, 1e-300, 0.3137, 1.0 - 2.0**-53, 1.0]


def sum_of_built_runs(f, build, p):
    """f's sum at p with each run's terms from build(p, start, stop), an
    oracle row that reads no prepared row."""
    products = (
        build(p, a, b) if w is None else map(operator.mul, w, build(p, a, b)) for a, b, w in f.runs
    )
    total = math.fsum(x for terms in products for x in terms)
    return min(1.0, total) if f.capped else total


@pytest.mark.parametrize(
    "design", DESIGNS + [DESIGN.with_final_n(26), TIED], ids=lambda d: d.compact()
)
def test_every_row_sum_on_a_built_row_is_the_sum_at_p(design):
    # each equation's sum, evaluated on the whole row at p, is the float it
    # gives when called at p and builds only the terms of its runs. A sum
    # names its row by key, and it is the float the same runs give on the
    # oracle rows, which are the terms of a row function bit for bit
    sums = [inference._estimator_mean(name, design) for name in ("naive", "umvue", "umvcue")]
    binomial_sums = []
    for s in range(design.n + 1):
        m = design.size_at(s)
        outcome = AnalysisState(design=design, s=s, m=m)
        for name in ("bias_adjusted", "median_unbiased"):
            equation = inference.estimate_equation(name, outcome)
            assert equation is not None or (name, s) == ("median_unbiased", 0)
            sums += [] if equation is None else [equation[0]]
        for method in ("JT", "midp"):
            sums += [f for f, _ in inference.interval_equations(method, s, m, 0.95, design)]
        cp = inference.interval_equations("CP", s, m, 0.95)
        binomial_sums += [] if cp is None else [(m, f) for f, _ in cp]
    assert len(sums) == 3 + 2 * design.n + 1 + 4 * (design.n + 1)
    assert {f.row for f in sums} == {design.row_key}
    assert all(f.row == (m, m, m) for m, f in binomial_sums)
    for p in ROW_SUM_PS:
        row = terminal_pmf(design, p)
        built = lambda p, a, b: terminal_pmf_two_builders(design, p, a, b)
        for f in sums:
            assert f.on(row) == f(p) == sum_of_built_runs(f, built, p), (p, f.runs)
        for m, f in binomial_sums:
            assert f.on(binom_pmf_row(m, p)) == f(p), (p, m, f.runs)
            lgamma_row = lambda p, a, b: pmf_row_lgamma_oracle(m, p, a, b)
            assert f._replace(cached=None)(p) == sum_of_built_runs(f, lgamma_row, p) == f(p)
        for name in ("naive", "umvue", "umvcue"):
            expected = inference._estimator_mean(name, design).on(row)
            assert estimator_bias(name, p, design)[0] == expected, (p, name)


def test_cp_sums_read_the_kernel_tail_caches():
    # the audit rules CP intervals out at rounding-window ends that recur
    # across records, so the CP sums read the kernel's cached tails
    (upper, _), (lower, _) = inference.interval_equations("CP", 6, 29, 0.95)
    for f, kernel in ((upper, binom_upper_tail), (lower, binom_cdf)):
        expected = kernel(6, 29, 0.2719)
        hits = kernel.cache_info().hits
        assert f(0.2719) == expected
        assert kernel.cache_info().hits == hits + 1


def test_interval_properties_all_methods():
    for method in ("JT", "midp", "CP", "Wald", "Wilson"):
        for s, m in [(0, 10), (1, 10), (2, 29), (6, 29), (29, 29)]:
            assert DESIGN.size_at(s) == m
            ci = interval_for_outcome(method, s, DESIGN)
            assert 0.0 <= ci.low <= ci.upp <= 1.0
            assert ci.level == 0.95


def test_interval_level_flows_through():
    wide = ci_clopper_pearson(6, 29, level=0.99)
    narrow = ci_clopper_pearson(6, 29, level=0.9)
    assert wide.low < narrow.low and narrow.upp < wide.upp
    with pytest.raises(ValueError):
        ci_clopper_pearson(6, 29, level=1.0)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        interval_for_outcome("bayes", 6, DESIGN)


# ---------------------------------------------------------------------------
# coverage


def coverage_oracle(method, p, design, level=0.95):
    probs = terminal_probs(design.a1, design.n1, design.n, p)
    total = 0.0
    for (s, m), pr in probs.items():
        assert m == design.size_at(s)
        ci = interval_for_outcome(method, s, design, level)
        if ci.low <= p <= ci.upp:
            total += pr
    return total


def test_coverage_matches_path_enumeration():
    for method in ("JT", "CP", "Wald"):
        for p in (0.1, 0.3, 0.6):
            assert coverage(method, p, DESIGN) == pytest.approx(
                coverage_oracle(method, p, DESIGN), abs=1e-10
            )


def test_cp_coverage_conservative():
    for p in (0.05, 0.1, 0.3, 0.5, 0.9):
        assert coverage("CP", p, DESIGN) >= 0.95 - 1e-12


COVERAGE_DESIGNS = [
    TwoStageDesign.from_compact(text)
    for text in (
        "1/10,5/29",
        "3/13,12/43",
        "30/60,40/100",  # large a1: stage 1 ends every total up to 30
        "20/60,80/200",
        "0/6,3/16",  # a1 = 0: only s = 0 ends at stage 1
        "8/9,10/14",  # a1 = n1 - 1: only s = n1 continues
    )
]


@pytest.mark.parametrize("design", COVERAGE_DESIGNS, ids=lambda d: d.compact())
@pytest.mark.parametrize("method", ["JT", "CP", "midp"])
def test_coverage_by_inversion_is_the_interval_path(design, method):
    """Test inversion gives the interval path's coverage bit for bit on a
    0.001 grid, at p = 0 and p = 1, and midway between the sample
    proportions (s + 0.5) / n, at both levels."""
    grid = [k / 1000 for k in range(1001)] + [(s + 0.5) / design.n for s in range(design.n)]
    for level in (0.90, 0.95):
        differ = [
            p
            for p in grid
            if coverage(method, p, design, level)
            != coverage_by_intervals_oracle(method, p, design, level)
        ]
        assert differ == [], f"level {level}"


@pytest.mark.parametrize("design", COVERAGE_DESIGNS + [TIED], ids=lambda d: d.compact())
def test_midp_coverage_by_rank_groups_is_the_full_row_search(design):
    # coverage searches the outcomes in UMVUE rank order with the mid-p
    # tail's own sum on the row; the oracle rebuilds every weight and sums
    # the whole row at each probe of its search over ranks
    grid = [0.0, 5e-324, 1.0] + [k / 200 for k in range(1, 200)]
    for level in (0.9, 0.95):
        half = (1.0 - level) / 2.0
        for p in grid:
            row = terminal_pmf(design, p)
            covered = midp_covered_full_row(row, design, half)
            assert sorted(inference._midp_covered(row, design, half)) == covered, (level, p)
            assert coverage("midp", p, design, level) == min(
                1.0, math.fsum(row[s] for s in covered)
            ), (level, p)


def test_coverage_solves_no_root_and_reads_no_interval(monkeypatch):
    def no_root(*args, **kwargs):
        raise AssertionError("coverage solved a root")

    monkeypatch.setattr(inference, "solve_monotone_root", no_root)
    before = interval_for_outcome.cache_info()
    design = TwoStageDesign.from_compact("2/17,9/41")
    for method in ("JT", "CP", "midp", "jennison-turnbull", "clopper-pearson", "mid-p"):
        for level in (0.9, 0.95):
            for p in [k / 50 for k in range(51)]:
                coverage(method, p, design, level)
    after = interval_for_outcome.cache_info()
    assert (after.hits, after.misses, after.currsize) == (
        before.hits,
        before.misses,
        before.currsize,
    )


@pytest.mark.parametrize("s", [1, 6])
def test_coverage_near_a_solved_jt_limit_is_the_exact_decision(s):
    """At and next to a solved JT lower limit, which lies within ROOT_TOL
    of the root but not on it, coverage counts the outcomes whose
    q-functions, summed in mpmath at p, clear alpha / 2. The interval path
    counts p = low as inside, so it overstates coverage there exactly when
    the solved limit lies below the root (s = 6), and agrees when it lies
    above (s = 1)."""
    half = (1.0 - 0.95) / 2.0
    low = interval_for_outcome("JT", s, DESIGN).low
    for p in (math.nextafter(low, 0.0), low, math.nextafter(low, 1.0)):
        q, q_lower = stagewise_tails_mp(DESIGN.a1, DESIGN.n1, DESIGN.n, p)
        # far beyond the float error of the tails, so the decision is sound
        assert abs(q[s] - half) > 1e-12
        row = terminal_pmf(DESIGN, p)
        exact = min(
            1.0,
            math.fsum(
                row[k] for k in range(DESIGN.n + 1) if q[k] >= half and q_lower[k] >= half
            ),
        )
        assert coverage("JT", p, DESIGN) == exact
    below_root = stagewise_tails_mp(DESIGN.a1, DESIGN.n1, DESIGN.n, low)[0][s] < half
    assert below_root == (s == 6)
    overstated = coverage("JT", low, DESIGN) < coverage_by_intervals_oracle("JT", low, DESIGN)
    assert overstated == below_root


def test_clopper_pearson_interval_is_solved_once():
    ci_clopper_pearson(7, 31, 0.9)
    before = ci_clopper_pearson.cache_info()
    assert ci_clopper_pearson(7, 31, 0.9) is ci_clopper_pearson(7, 31, 0.9)
    after = ci_clopper_pearson.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)


def test_result_records_serialise_as_asdict_in_field_order():
    # to_json_dict builds a shallow dict; it must stay the dict asdict gives
    state = AnalysisState(design=DESIGN, s=6, m=29)
    records = [
        estimate_all(state),
        interval_for_outcome("JT", 6, DESIGN, 0.9),
        operating_characteristics(DESIGN, TARGETS),
        interpretation_probabilities(DESIGN),
    ]
    for record in records:
        as_json, expected = record.to_json_dict(), dataclasses.asdict(record)
        assert as_json == expected
        assert list(as_json) == list(expected)
        as_json.clear()  # a copy: clearing it leaves the record as it was
        assert record.to_json_dict() == expected
