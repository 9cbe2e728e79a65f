"""Analyses whose realised final sample size differs from the plan.

Covers the discrete conditional-error test (second-stage p-value compared
against the error the planned rule would have spent given the interim
result), the error rates of naively retaining the final rejection bound,
and the probabilities behind informal estimate-versus-target
interpretations of trial results.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

from .binomial import MAX_SAMPLE_SIZE, binom_pmf, binom_upper_tail
from .design import TwoStageDesign, continuation_tail, terminal_pmf
from .inference import AnalysisState


@dataclass(frozen=True)
class DeviatedAnalysis:
    """A planned design together with the realised stage data."""

    design: TwoStageDesign
    n_an: int
    s1: int
    s_an: int
    n1_realized: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n1_realized is not None and self.n1_realized != self.design.n1:
            raise ValueError(
                "deviation in the interim timing is not supported: the interim "
                f"analysis must use the planned n1={self.design.n1}, got {self.n1_realized}"
            )
        _check_n_an(self.design, self.n_an)
        # the stage-2 outcome at n_an, with s1 continuing the trial
        AnalysisState(self.design, self.s_an, self.n_an, s1=self.s1)


def _check_n_an(design: TwoStageDesign, n_an: int) -> None:
    """Reject a final sample size with no second stage or above the cap."""
    if n_an <= design.n1:
        raise ValueError(
            f"final analysis at n_an={n_an} <= n1={design.n1} leaves no "
            "second-stage data; report a stage-1 analysis instead"
        )
    if n_an > MAX_SAMPLE_SIZE:
        raise ValueError(f"final sample size n_an={n_an} exceeds the cap of {MAX_SAMPLE_SIZE}")


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
    _check_n_an(design, n_an)
    return continuation_tail(terminal_pmf(design, p, n_an), design.a + 1)


def reject_prob_ek(p: float, design: TwoStageDesign, n_an: int) -> float:
    """Rejection probability of the conditional-error test at n_an."""
    p0 = _p0_of(design)
    _check_n_an(design, n_an)
    n2 = n_an - design.n1
    terms = []
    for s1 in range(design.n1 + 1):
        err = conditional_error(s1, design)
        if err == 0.0:
            continue
        # the stage-2 p-value does not increase in s2, so the rejection
        # region is the upper tail from the first s2 whose p-value is <= err
        c = next((s2 for s2 in range(n2 + 1) if stage2_pvalue(s2, n2, p0) <= err), n2 + 1)
        terms.append(binom_pmf(s1, design.n1, p) * binom_upper_tail(c, n2, p))
    return min(1.0, math.fsum(terms))


@dataclass(frozen=True)
class InterpretationProbabilities:
    """Chances of the informal estimate-versus-target comparisons trials use."""

    naive_above_p0_at_p0: float
    naive_above_p0_at_p1: float
    naive_at_least_p1_at_p0: float
    naive_at_least_p1_at_p1: float

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def interpretation_probabilities(
    design: TwoStageDesign,
    n_an: Optional[int] = None,
    p0: Optional[float] = None,
    p1: Optional[float] = None,
) -> InterpretationProbabilities:
    """P(naive estimate beats p0 / reaches p1) under p0 and under p1."""
    if n_an is None:
        n_an = design.n
    _check_n_an(design, n_an)
    if p0 is None or p1 is None:
        if design.targets is None:
            raise ValueError("p0 and p1 are required (no design targets present)")
        p0 = design.targets.p0 if p0 is None else p0
        p1 = design.targets.p1 if p1 is None else p1

    # the naive estimate of the outcome with total s
    naive = [s / (design.n1 if s <= design.a1 else n_an) for s in range(n_an + 1)]

    def prob(indicator, row: list[float]) -> float:
        return min(1.0, math.fsum(pr for est, pr in zip(naive, row) if indicator(est)))

    above_p0 = lambda est: est > p0
    at_least_p1 = lambda est: est >= p1
    at_p0, at_p1 = terminal_pmf(design, p0, n_an), terminal_pmf(design, p1, n_an)
    return InterpretationProbabilities(
        naive_above_p0_at_p0=prob(above_p0, at_p0),
        naive_above_p0_at_p1=prob(above_p0, at_p1),
        naive_at_least_p1_at_p0=prob(at_least_p1, at_p0),
        naive_at_least_p1_at_p1=prob(at_least_p1, at_p1),
    )
