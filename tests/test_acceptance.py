"""Acceptance gate: one test (or test group) per release criterion.

Each criterion prints a PASS/FAIL line in the terminal summary (see
conftest.py). Tolerances are part of the criteria and are not loosened
here.
"""

import math
import os
import time

import pytest
from scipy.stats import f as f_dist

from oracles import brute_force_both, stage_paths
from twostage.audit import audit_summary, export_figure_data, parse_records, report_to_json
from twostage.design import (
    DesignTargets,
    TwoStageDesign,
    reject_prob,
    search_designs,
    terminal_outcomes,
)
from twostage.deviation import (
    DeviatedAnalysis,
    ek_reject,
    interpretation_probabilities,
    reject_prob_ek,
)
from twostage.inference import (
    AnalysisState,
    ci_clopper_pearson,
    coverage,
    p_value,
    umvcue_fraction,
    umvue_fraction,
)

TEST_DESIGNS = [
    TwoStageDesign(a1=1, a=5, n1=10, n=29, targets=DesignTargets(0.1, 0.3, 0.05, 0.2)),
    TwoStageDesign(a1=1, a=5, n1=15, n=25, targets=DesignTargets(0.1, 0.3, 0.05, 0.2)),
    TwoStageDesign(a1=3, a=12, n1=13, n=43, targets=DesignTargets(0.2, 0.4, 0.05, 0.2)),
    TwoStageDesign(a1=5, a=18, n1=15, n=46, targets=DesignTargets(0.3, 0.5, 0.05, 0.2)),
    TwoStageDesign(a1=7, a=23, n1=16, n=46, targets=DesignTargets(0.4, 0.6, 0.05, 0.2)),
]
DESIGN_IDS = [d.compact() for d in TEST_DESIGNS]

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "audit_golden.csv")

TARGET_SETS = [
    (p0, p0 + 0.2, alpha, beta)
    for p0 in (0.05, 0.1, 0.2, 0.3)
    for alpha, beta in ((0.05, 0.2), (0.05, 0.1), (0.1, 0.1))
]


def test_criterion_1_search_matches_brute_force():
    """Both search criteria agree with exhaustive enumeration, n <= 60,
    across 12 target sets, within a 60 s budget."""
    start = time.time()
    for p0, p1, alpha, beta in TARGET_SETS:
        targets = DesignTargets(p0=p0, p1=p1, alpha=alpha, beta=beta)
        expected = brute_force_both(p0, p1, alpha, beta, n_max=60)
        for criterion in ("null-optimal", "minimax"):
            found = search_designs(targets, criterion, n_max=60)
            assert (found.a1, found.a, found.n1, found.n) == expected[criterion], (
                f"criterion {criterion}, targets {targets}"
            )
    assert time.time() - start < 60.0


@pytest.mark.parametrize("design", TEST_DESIGNS, ids=DESIGN_IDS)
def test_criterion_2_umvue_unbiased(design):
    """UMVUE bias < 1e-10 and UMVCUE conditional bias < 1e-8 at the
    19-point p grid, with expectations from independent path sums."""
    for k in range(1, 20):
        p = k / 20
        unconditional = 0.0
        cond_num = 0.0
        cond_den = 0.0
        for _, s, m, pr in stage_paths(design.a1, design.n1, design.n, p):
            unconditional += float(umvue_fraction(s, m, design)) * pr
            if m == design.n:
                cond_num += float(umvcue_fraction(s, m, design)) * pr
                cond_den += pr
        assert abs(unconditional - p) < 1e-10
        assert abs(cond_num / cond_den - p) < 1e-8


@pytest.mark.parametrize("design", TEST_DESIGNS, ids=DESIGN_IDS)
def test_criterion_3_jt_coverage(design):
    """JT exact coverage >= 0.95 at every p in {0.01, ..., 0.99}."""
    for k in range(1, 100):
        p = k / 100
        assert coverage("JT", p, design) >= 0.95, f"coverage below level at p={p}"


def test_criterion_3_wald_undercovers():
    """The Wald interval falls below nominal coverage somewhere."""
    design = TEST_DESIGNS[0]
    low_points = [k / 100 for k in range(1, 100) if coverage("Wald", k / 100, design) < 0.95]
    assert low_points, "Wald coverage never fell below 0.95"


@pytest.mark.parametrize("design", TEST_DESIGNS, ids=DESIGN_IDS)
def test_criterion_4_decision_consistency(design):
    """p-value <= attained alpha if and only if the trial rejects, with no
    exception over the full terminal outcome space."""
    alpha_attained = reject_prob(design.targets.p0, design)
    exceptions = []
    for o in terminal_outcomes(design):
        state = AnalysisState(design=design, s=o.s, m=o.m)
        rejects = o.stage == 2 and o.s > design.a
        if (p_value(state) <= alpha_attained) != rejects:
            exceptions.append((o.s, o.m))
    assert exceptions == []


@pytest.mark.parametrize("design", TEST_DESIGNS, ids=DESIGN_IDS)
def test_criterion_5_ek_reduction(design):
    """At the planned n the conditional-error decision equals s > a."""
    n2 = design.n - design.n1
    for s1 in range(design.a1 + 1, design.n1 + 1):
        for s2 in range(n2 + 1):
            analysis = DeviatedAnalysis(
                design=design, n_an=design.n, s1=s1, s_an=s1 + s2
            )
            assert ek_reject(analysis) == (s1 + s2 > design.a)


@pytest.mark.parametrize("design", TEST_DESIGNS, ids=DESIGN_IDS)
def test_criterion_5_ek_guarantee(design):
    """Type-I error of the conditional-error test stays within alpha for
    n_an in [n - 5, n + 5] (within 1e-12)."""
    alpha = design.targets.alpha
    p0 = design.targets.p0
    for n_an in range(design.n - 5, design.n + 6):
        if n_an <= design.n1:
            continue
        assert reject_prob_ek(p0, design, n_an) <= alpha + 1e-12, f"n_an={n_an}"


def test_criterion_6_naive_below_umvue():
    """For (1/10, 5/29) the sample proportion never exceeds the UMVUE over
    stage-2 outcomes; exceptions are reported, not hidden."""
    design = TEST_DESIGNS[0]
    exceptions = [
        (o.s, float(o.s / o.m), float(umvue_fraction(o.s, o.m, design)))
        for o in terminal_outcomes(design)
        if o.stage == 2 and o.s / o.m > float(umvue_fraction(o.s, o.m, design)) + 1e-12
    ]
    assert exceptions == [], f"naive exceeded UMVUE at: {exceptions}"


def test_criterion_7_clopper_pearson_forms():
    """Boundary cases match the closed forms within 1e-10; interior limits
    match the F-quantile formulation within 1e-8."""
    for m in (10, 25, 29, 43, 46):
        ci0 = ci_clopper_pearson(0, m)
        assert ci0.low == 0.0
        assert abs(ci0.upp - (1.0 - 0.025 ** (1.0 / m))) < 1e-10
        cim = ci_clopper_pearson(m, m)
        assert cim.upp == 1.0
        assert abs(cim.low - 0.025 ** (1.0 / m)) < 1e-10
    for s, m in [(2, 10), (6, 29), (12, 43), (18, 46), (30, 46)]:
        ci = ci_clopper_pearson(s, m)
        low_f = f_dist.ppf(0.025, 2 * s, 2 * (m - s + 1))
        low = s * low_f / (m - s + 1 + s * low_f)
        upp_f = f_dist.ppf(0.975, 2 * (s + 1), 2 * (m - s))
        upp = (s + 1) * upp_f / (m - s + (s + 1) * upp_f)
        assert abs(ci.low - low) < 1e-8
        assert abs(ci.upp - upp) < 1e-8


def test_criterion_8_audit_golden():
    """The synthetic 12-record file reproduces every expected count, the
    four figure datasets, and byte-identical JSON across runs."""
    with open(GOLDEN, newline="") as handle:
        parsed = parse_records(handle)
    assert len(parsed.records) == 12 and parsed.errors == []

    summary = audit_summary(parsed.records)
    assert summary["stage_counts"]["2"]["count"] == 10
    assert summary["stage_counts"]["unclear"]["count"] == 2
    consistency = summary["consistency"]
    assert consistency["estimate_reanalysable"]["count"] == 8
    assert consistency["estimate_matches_unadjusted"]["count"] == 6
    assert consistency["estimate_matches_any_adjusted"]["count"] == 2
    assert consistency["ci_matches_any_unadjusted"]["count"] == 6
    assert consistency["ci_matches_any_adjusted"]["count"] == 2
    assert consistency["ci_not_evaluable_reasons"] == {
        "not evaluable (method out of scope)": 1,
        "successes or sample size absent": 1,
    }

    datasets = export_figure_data(parsed.records)
    assert set(datasets) == {
        "estimates_naive_vs_umvue",
        "ci_length_and_coverage",
        "planned_vs_analysed_n",
        "deviation_error_rates",
    }
    assert len(datasets["estimates_naive_vs_umvue"]["rows"]) == 9
    assert len(datasets["ci_length_and_coverage"]["rows"]) == 8
    assert len(datasets["planned_vs_analysed_n"]["rows"]) == 12
    assert len(datasets["deviation_error_rates"]["rows"]) == 10

    with open(GOLDEN, newline="") as handle:
        rerun = parse_records(handle)
    assert report_to_json(audit_summary(parsed.records)).encode() == report_to_json(
        audit_summary(rerun.records)
    ).encode()


def test_criterion_9_interpretation_probabilities():
    """The four estimate-versus-target probabilities are exact (path-sum
    oracle) and P(naive > p0 | p0) differs from the attained alpha."""
    design = TEST_DESIGNS[0]
    probs = interpretation_probabilities(design)
    for p, above_attr, at_least_attr in [
        (0.1, "naive_above_p0_at_p0", "naive_at_least_p1_at_p0"),
        (0.3, "naive_above_p0_at_p1", "naive_at_least_p1_at_p1"),
    ]:
        above = 0.0
        at_least = 0.0
        for _, s, m, pr in stage_paths(design.a1, design.n1, design.n, p):
            if s / m > 0.1:
                above += pr
            if s / m >= 0.3:
                at_least += pr
        assert abs(getattr(probs, above_attr) - above) < 1e-12
        assert abs(getattr(probs, at_least_attr) - at_least) < 1e-12
    alpha_attained = reject_prob(0.1, design)
    assert not math.isclose(
        probs.naive_above_p0_at_p0, alpha_attained, abs_tol=1e-3
    ), "interpretation probability coincides with the attained alpha"
