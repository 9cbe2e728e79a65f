"""Conditional-error testing and error rates under sample-size deviation."""

import dataclasses
import math
import random

import pytest
from scipy.stats import binom as scipy_binom

from oracles import q_value_full_row, reject_prob_ek_scan_oracle, stage_paths
from twostage import deviation
from twostage.design import DesignTargets, TwoStageDesign, terminal_pmf
from twostage.deviation import (
    DeviatedAnalysis,
    InterpretationProbabilities,
    conditional_error,
    ek_reject,
    interpretation_probabilities,
    reject_prob_ek,
    reject_prob_retained,
    stage2_pvalue,
)

TARGETS = DesignTargets(p0=0.1, p1=0.3, alpha=0.05, beta=0.2)
DESIGN = TwoStageDesign(a1=1, a=5, n1=10, n=29, targets=TARGETS)
ALPHA_ATTAINED = 0.04708630664389129


def test_conditional_error_regions():
    # futility region spends nothing, early-win region everything
    assert conditional_error(0, DESIGN) == 0.0
    assert conditional_error(1, DESIGN) == 0.0
    assert conditional_error(6, DESIGN) == 1.0
    assert conditional_error(10, DESIGN) == 1.0


def test_conditional_error_continuation_values():
    # D(s) = P(Bin(n - n1, p0) > a - s)
    for s in range(2, 6):
        oracle = float(scipy_binom.sf(5 - s, 19, 0.1))
        assert conditional_error(s, DESIGN) == pytest.approx(oracle, abs=1e-12)
    assert conditional_error(3, DESIGN) == pytest.approx(0.29455521410410423, abs=1e-10)


def test_conditional_error_requires_targets():
    bare = TwoStageDesign(a1=1, a=5, n1=10, n=29)
    with pytest.raises(ValueError):
        conditional_error(3, bare)
    with pytest.raises(ValueError):
        conditional_error(11, DESIGN)


def test_stage2_pvalue_matches_scipy():
    assert stage2_pvalue(4, 19, 0.1) == pytest.approx(
        float(scipy_binom.sf(3, 19, 0.1)), abs=1e-12
    )
    with pytest.raises(ValueError):
        stage2_pvalue(5, 0, 0.1)
    with pytest.raises(ValueError):
        stage2_pvalue(20, 19, 0.1)


def test_ek_reduces_to_planned_test_at_planned_n():
    for s1 in range(2, 11):
        for s2 in range(20):
            analysis = DeviatedAnalysis(design=DESIGN, n_an=29, s1=s1, s_an=s1 + s2)
            assert ek_reject(analysis) == (s1 + s2 > 5)


def test_ek_type_one_error_never_exceeds_alpha():
    for n_an in range(24, 35):
        assert reject_prob_ek(0.1, DESIGN, n_an) <= 0.05 + 1e-12
    # no deviation recovers the planned attained level exactly
    assert reject_prob_ek(0.1, DESIGN, 29) == pytest.approx(ALPHA_ATTAINED, abs=1e-12)


def test_retained_bound_error_rates():
    # analysing fewer patients with the planned bound deflates the level;
    # analysing more inflates it
    assert reject_prob_retained(0.1, DESIGN, 26) == pytest.approx(
        0.03212210879239134, abs=1e-10
    )
    assert reject_prob_retained(0.1, DESIGN, 29) == pytest.approx(
        ALPHA_ATTAINED, abs=1e-12
    )
    assert reject_prob_retained(0.1, DESIGN, 35) > ALPHA_ATTAINED


def test_retained_matches_path_enumeration():
    for n_an in (26, 29, 32):
        oracle = sum(
            pr
            for _, s, m, pr in stage_paths(1, 10, n_an, 0.1)
            if m == n_an and s > 5
        )
        assert reject_prob_retained(0.1, DESIGN, n_an) == pytest.approx(
            oracle, abs=1e-12
        )


def test_ek_matches_path_enumeration():
    p = 0.1
    for n_an in (26, 29, 32):
        n2 = n_an - 10
        oracle = 0.0
        for s1 in range(2, 11):
            err = conditional_error(s1, DESIGN)
            for s2 in range(n2 + 1):
                if float(scipy_binom.sf(s2 - 1, n2, 0.1)) <= err:
                    oracle += float(
                        scipy_binom.pmf(s1, 10, p) * scipy_binom.pmf(s2, n2, p)
                    )
        assert reject_prob_ek(p, DESIGN, n_an) == pytest.approx(oracle, abs=1e-11)


def random_ek_cases(count, seed):
    """(design, n_an) pairs: designs with targets drawn at random, each
    analysed at a size in n1 + 1..n, at n and above n."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n1 = rng.randint(1, 30)
        n = rng.randint(n1 + 1, n1 + 50)
        a1 = rng.randint(0, n1 - 1)
        a = rng.randint(a1, n - 1)
        p0 = round(rng.uniform(0.02, 0.7), 3)
        targets = DesignTargets(p0=p0, p1=min(0.99, p0 + 0.2), alpha=0.05, beta=0.2)
        design = TwoStageDesign(a1=a1, a=a, n1=n1, n=n, targets=targets)
        below = rng.randint(n1 + 1, n)
        cases += [(design, below), (design, n), (design, n + rng.randint(1, 20))]
    return cases


@pytest.mark.parametrize("seed", range(4))
def test_ek_equals_the_per_s1_scan_bit_for_bit(seed):
    for design, n_an in random_ek_cases(100, seed):
        targets = design.targets
        for p in (0.0, targets.p0, targets.p1, 1.0):
            assert reject_prob_ek(p, design, n_an) == reject_prob_ek_scan_oracle(
                p, design, n_an
            ), (design.compact(), n_an, p)


def test_ek_takes_at_most_one_pvalue_per_s1_and_s2(monkeypatch):
    calls = []

    def counted(s2, n2, p0):
        calls.append(s2)
        return stage2_pvalue(s2, n2, p0)

    monkeypatch.setattr(deviation, "stage2_pvalue", counted)
    for design, n_an in random_ek_cases(50, 7) + [(DESIGN, n) for n in (11, 26, 29, 40)]:
        for p in (0.0, design.targets.p0, 1.0):
            calls.clear()
            reject_prob_ek(p, design, n_an)
            assert len(calls) <= design.n1 + (n_an - design.n1) + 2


def test_deviated_analysis_validation():
    # no stage-2 data
    with pytest.raises(ValueError, match="final sample size 10 must exceed n1=10"):
        DeviatedAnalysis(design=DESIGN, n_an=10, s1=3, s_an=3)
    with pytest.raises(ValueError):
        DeviatedAnalysis(design=DESIGN, n_an=29, s1=1, s_an=4)  # stopped at stage 1
    with pytest.raises(ValueError):
        DeviatedAnalysis(design=DESIGN, n_an=29, s1=3, s_an=2)  # s_an < s1


@pytest.mark.parametrize(
    "design",
    [DESIGN, TwoStageDesign(a1=1, a=6, n1=4, n=9)],
    ids=lambda d: d.compact(),
)
def test_deviated_analysis_accepts_exactly_the_continued_outcomes(design):
    # the second design's a = 6 is at or above n_an = 5 and 6, which an
    # analysis at those sizes must accept like any other n_an
    a1, n1 = design.a1, design.n1
    sizes = [*range(n1 - 1, n1 + 4), design.a, design.a + 1, design.n, design.n + 3]
    for n_an in sizes:
        for s1 in range(-1, n1 + 2):
            for s_an in range(-1, n_an + 2):
                accepted = n1 < n_an and a1 < s1 <= n1 and s1 <= s_an <= n_an
                if accepted:
                    DeviatedAnalysis(design=design, n_an=n_an, s1=s1, s_an=s_an)
                else:
                    with pytest.raises(ValueError):
                        DeviatedAnalysis(design=design, n_an=n_an, s1=s1, s_an=s_an)


def test_interpretation_probabilities_known_values():
    probs = interpretation_probabilities(DESIGN)
    assert probs.naive_above_p0_at_p0 == pytest.approx(0.2377336892486321, abs=1e-10)
    assert probs.naive_above_p0_at_p1 == pytest.approx(0.8504255190324285, abs=1e-10)
    assert probs.naive_at_least_p1_at_p0 == pytest.approx(
        0.0014316940827120096, abs=1e-12
    )
    assert probs.naive_at_least_p1_at_p1 == pytest.approx(0.4968950866258019, abs=1e-10)


def test_interpretation_probabilities_match_path_enumeration():
    probs = interpretation_probabilities(DESIGN)
    above = 0.0
    at_least = 0.0
    for _, s, m, pr in stage_paths(1, 10, 29, 0.1):
        if s / m > 0.1:
            above += pr
        if s / m >= 0.3:
            at_least += pr
    assert probs.naive_above_p0_at_p0 == pytest.approx(above, abs=1e-12)
    assert probs.naive_at_least_p1_at_p0 == pytest.approx(at_least, abs=1e-12)


def test_interpretation_probabilities_build_each_kernel_once(monkeypatch):
    calls = []

    def counted(design, p):
        calls.append(p)
        return terminal_pmf(design, p)

    monkeypatch.setattr(deviation, "terminal_pmf", counted)
    probs = interpretation_probabilities(DESIGN, n_an=31)
    assert sorted(calls) == [0.1, 0.3]
    # the same sums as taking each probability from its own kernel
    for name, indicator, p in (
        ("naive_above_p0_at_p0", lambda est: est > 0.1, 0.1),
        ("naive_above_p0_at_p1", lambda est: est > 0.1, 0.3),
        ("naive_at_least_p1_at_p0", lambda est: est >= 0.3, 0.1),
        ("naive_at_least_p1_at_p1", lambda est: est >= 0.3, 0.3),
    ):
        row = terminal_pmf(DESIGN.with_final_n(31), p)
        terms = [row[s] for s in range(2) if indicator(s / 10)]
        terms += [row[s] for s in range(2, 32) if indicator(s / 31)]
        assert getattr(probs, name) == min(1.0, math.fsum(terms))


# a planned design, and one whose a = 6 the realised sizes 5 and 6 cannot
# exceed
REPLACED_CASES = [(DESIGN, n_an) for n_an in (11, 26, 29, 33, 40)] + [
    (TwoStageDesign(a1=1, a=6, n1=4, n=9, targets=TARGETS), n_an) for n_an in (5, 6, 7, 9, 12)
]


@pytest.mark.parametrize("design, n_an", REPLACED_CASES)
def test_realised_size_analyses_equal_an_explicitly_replaced_design(design, n_an):
    # neither analysis reads the analysed design's a, so a design with n
    # replaced by n_an and a by a1 gives the same floats, bit for bit
    replaced = dataclasses.replace(design, a=design.a1, n=n_an)
    for p in (0.0, 0.1, 0.3, 0.77, 1.0):
        old = q_value_full_row(design.a + 1, p, replaced)
        assert reject_prob_retained(p, design, n_an) == old
    naive = [s / replaced.size_at(s) for s in range(n_an + 1)]
    at_p0, at_p1 = terminal_pmf(replaced, 0.1), terminal_pmf(replaced, 0.3)

    def prob(indicator, row):
        return min(1.0, math.fsum(pr for est, pr in zip(naive, row) if indicator(est)))

    assert interpretation_probabilities(design, n_an=n_an) == InterpretationProbabilities(
        naive_above_p0_at_p0=prob(lambda est: est > 0.1, at_p0),
        naive_above_p0_at_p1=prob(lambda est: est > 0.1, at_p1),
        naive_at_least_p1_at_p0=prob(lambda est: est >= 0.3, at_p0),
        naive_at_least_p1_at_p1=prob(lambda est: est >= 0.3, at_p1),
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: DeviatedAnalysis(design=DESIGN, n_an=10**6, s1=3, s_an=4),
        lambda: reject_prob_retained(0.1, DESIGN, 10**6),
        lambda: reject_prob_ek(0.1, DESIGN, 10**6),
        lambda: interpretation_probabilities(DESIGN, n_an=10**6),
    ],
    ids=["analysis", "retained", "ek", "interpretation"],
)
def test_final_size_above_the_cap_is_rejected(call):
    with pytest.raises(ValueError, match="cap"):
        call()


def test_interpretation_probabilities_differ_from_error_rates():
    probs = interpretation_probabilities(DESIGN)
    assert not math.isclose(probs.naive_above_p0_at_p0, ALPHA_ATTAINED, abs_tol=0.01)


def test_interpretation_probabilities_need_p0_p1():
    bare = TwoStageDesign(a1=1, a=5, n1=10, n=29)
    with pytest.raises(ValueError):
        interpretation_probabilities(bare)
    probs = interpretation_probabilities(bare, p0=0.1, p1=0.3)
    assert probs == interpretation_probabilities(DESIGN)
