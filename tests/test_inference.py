"""Point estimation, p-values, confidence intervals, and exact coverage."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom as scipy_binom
from scipy.stats import f as f_dist

from oracles import stage_paths, terminal_probs
from twostage import inference
from twostage.binomial import binom_cdf, solve_monotone_root
from twostage.design import (
    DesignTargets,
    TerminalOutcome,
    TwoStageDesign,
    terminal_outcomes,
    terminal_pmf,
)
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


def test_analysis_state_validation():
    with pytest.raises(ValueError):
        AnalysisState(design=DESIGN, s=5, m=10)  # continued, not stopped
    with pytest.raises(ValueError):
        AnalysisState(design=DESIGN, s=1, m=29)  # total below continuation
    with pytest.raises(ValueError):
        AnalysisState(design=DESIGN, s=30, m=29)
    with pytest.raises(ValueError):
        AnalysisState(design=DESIGN, s=3, m=9)  # m below n1
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
        for o in terminal_outcomes(design):
            upper = q_value(o.s, o.m, p, design)
            lower = q_lower_value(o.s, o.m, p, design)
            if o.stage == 1:
                assert lower == binom_cdf(o.s, design.n1, p)
            assert upper + lower - row[o.s] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.compact())
def test_p_value_decision_consistency(design):
    """p <= attained alpha exactly when the design rejects."""
    from twostage.design import reject_prob, terminal_outcomes

    alpha_attained = reject_prob(design.targets.p0, design)
    for o in terminal_outcomes(design):
        st_o = AnalysisState(design=design, s=o.s, m=o.m)
        rejects = o.stage == 2 and o.s > design.a
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
    from twostage.design import terminal_outcomes

    for o in terminal_outcomes(DESIGN):
        st_o = AnalysisState(design=DESIGN, s=o.s, m=o.m)
        jt = ci_jennison_turnbull(st_o)
        mp = ci_midp(st_o)
        assert jt.low <= mp.low + 1e-9
        assert mp.upp <= jt.upp + 1e-9


def test_interval_properties_all_methods():
    for method in ("JT", "midp", "CP", "Wald", "Wilson"):
        for s, m in [(0, 10), (1, 10), (2, 29), (6, 29), (29, 29)]:
            ci = interval_for_outcome(
                method, TerminalOutcome(s=s, stage=1 if m == 10 else 2, m=m), DESIGN
            )
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
        interval_for_outcome("bayes", TerminalOutcome(s=6, stage=2, m=29), DESIGN)


# ---------------------------------------------------------------------------
# coverage


def coverage_oracle(method, p, design, level=0.95):
    probs = terminal_probs(design.a1, design.n1, design.n, p)
    total = 0.0
    for (s, m), pr in probs.items():
        stage = 1 if m == design.n1 else 2
        ci = interval_for_outcome(method, TerminalOutcome(s=s, stage=stage, m=m), design, level)
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
