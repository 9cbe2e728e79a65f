"""Analyses whose realised final sample size differs from the plan.

Covers the discrete conditional-error test (second-stage p-value compared
against the error the planned rule would have spent given the interim
result), the error rates of naively retaining the final rejection bound,
and the probabilities behind informal estimate-versus-target
interpretations of trial results.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

from .binomial import RowSum, binom_pmf, binom_upper_tail
from .design import TwoStageDesign, terminal_pmf
from .inference import AnalysisState, _naive_row


@dataclass(frozen=True)
class DeviatedAnalysis:
    """A planned design together with the realised stage data."""

    design: TwoStageDesign
    n_an: int
    s1: int
    s_an: int

    def __post_init__(self) -> None:
        # n_an must exceed n1 and stay within the cap, whatever s1 and s_an are
        self.design.with_final_n(self.n_an)
        # the stage-2 outcome at n_an, with s1 continuing the trial
        AnalysisState(self.design, self.s_an, self.n_an, s1=self.s1)


def _p0_of(design: TwoStageDesign) -> float:
    if design.targets is None:
        raise ValueError("design targets (p0) are required for deviation analysis")
    return design.targets.p0


def conditional_error(s: int, design: TwoStageDesign) -> float:
    """Null rejection probability the planned rule grants a second stage
    that starts from s stage-1 successes."""
    p0 = _p0_of(design)
    if not 0 <= s <= design.n1:
        raise ValueError(f"stage-1 successes must satisfy 0 <= s <= n1={design.n1}, got {s}")
    if s <= design.a1:
        return 0.0
    if s > design.a:
        return 1.0
    # 1 - B(a - s | n - n1, p0)
    return binom_upper_tail(design.a - s + 1, design.n - design.n1, p0)


def stage2_pvalue(s2: int, n2: int, p0: float) -> float:
    """Exact p-value from the second-stage data alone."""
    if n2 < 1:
        raise ValueError(f"second-stage sample size must be at least 1, got {n2}")
    if s2 > n2:
        raise ValueError(f"successes {s2} exceed sample size {n2}")
    return binom_upper_tail(s2, n2, p0)


def ek_reject(analysis: DeviatedAnalysis) -> bool:
    """Conditional-error decision at the realised final sample size."""
    d = analysis.design
    p0 = _p0_of(d)
    p2 = stage2_pvalue(analysis.s_an - analysis.s1, analysis.n_an - d.n1, p0)
    return p2 <= conditional_error(analysis.s1, d)


def reject_prob_retained(p: float, design: TwoStageDesign, n_an: int) -> float:
    """Rejection probability when the planned bound a is kept at n_an."""
    row = design.with_final_n(n_an).row_key
    return RowSum(row, ((design.a + 1, n_an + 1, None),), True)(p)


def reject_prob_ek(p: float, design: TwoStageDesign, n_an: int) -> float:
    """Rejection probability of the conditional-error test at n_an.

    Given s1, the test rejects from the first s2 whose stage-2 p-value is
    at most the conditional error. That error is an upper tail summed from
    the same pmf terms at every s1, so it falls, as floats too, as s1
    falls; an s2 whose p-value exceeded it at s1 exceeds it below s1. One
    pointer c therefore walks s2 once while s1 walks down from n1, and a
    call takes at most n1 + n2 + 2 p-values. Once the error is 0 or c
    passes n2, no lower s1 adds a nonzero term.
    """
    p0 = _p0_of(design)
    n1 = design.n1
    n2 = design.with_final_n(n_an).n2
    terms = []
    c = 0
    for s1 in range(n1, -1, -1):
        err = conditional_error(s1, design)
        if err == 0.0:
            break
        while c <= n2 and stage2_pvalue(c, n2, p0) > err:
            c += 1
        if c > n2:
            break
        terms.append(binom_pmf(s1, n1, p) * binom_upper_tail(c, n2, p))
    return min(1.0, math.fsum(terms))


@dataclass(frozen=True)
class InterpretationProbabilities:
    """Chances of the informal estimate-versus-target comparisons trials use."""

    naive_above_p0_at_p0: float
    naive_above_p0_at_p1: float
    naive_at_least_p1_at_p0: float
    naive_at_least_p1_at_p1: float

    def to_json_dict(self) -> dict:
        # the fields in order; every one is a scalar, so no deep copy
        return dict(vars(self))


def interpretation_probabilities(
    design: TwoStageDesign,
    n_an: Optional[int] = None,
    p0: Optional[float] = None,
    p1: Optional[float] = None,
) -> InterpretationProbabilities:
    """P(naive estimate beats p0 / reaches p1) under p0 and under p1."""
    analysed = design.with_final_n(design.n if n_an is None else n_an)
    if p0 is None or p1 is None:
        if design.targets is None:
            raise ValueError("p0 and p1 are required (no design targets present)")
        p0 = design.targets.p0 if p0 is None else p0
        p1 = design.targets.p1 if p1 is None else p1

    # the naive estimate rises with s within each stage, so the outcomes
    # whose estimate lies above a bound are a suffix of each stage's totals
    naive = _naive_row(analysed)
    stages = ((0, analysed.a1 + 1), (analysed.a1 + 1, analysed.n + 1))
    row = analysed.row_key
    above_p0, at_least_p1 = (
        RowSum(row, [(first(naive, bound, lo, hi), hi, None) for lo, hi in stages], True)
        for first, bound in ((bisect_right, p0), (bisect_left, p1))
    )
    at_p0, at_p1 = terminal_pmf(analysed, p0), terminal_pmf(analysed, p1)
    return InterpretationProbabilities(
        naive_above_p0_at_p0=above_p0.on(at_p0),
        naive_above_p0_at_p1=above_p0.on(at_p1),
        naive_at_least_p1_at_p0=at_least_p1.on(at_p0),
        naive_at_least_p1_at_p1=at_least_p1.on(at_p1),
    )
