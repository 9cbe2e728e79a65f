"""Post-trial inference for two-stage designs.

Point estimation (naive plus six adjusted procedures), stagewise p-values,
adjusted and unadjusted confidence intervals, and exact coverage.

When a trial is analysed at a realised final sample size different from the
planned n, all procedures that depend on the full design use the realised
size in place of n.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Callable, Iterable, Optional

from .binomial import (
    MAX_SAMPLE_SIZE,
    binom_cdf,
    binom_upper_tail,
    normal_quantile,
    solve_monotone_root,
)
from .design import (
    TerminalOutcome,
    TwoStageDesign,
    continuation_tail,
    terminal_outcomes,
    terminal_pmf,
)

ROOT_TOL = 1e-10


@dataclass(frozen=True)
class AnalysisState:
    """The data available at the final analysis of a two-stage trial.

    Construction raises ValueError unless (s, m) is a terminal outcome of
    the analysis design and s1, if given, continues the trial with
    s1 <= s, so every instance is valid.
    """

    design: TwoStageDesign
    s: int
    m: int
    _: dataclasses.KW_ONLY
    s1: Optional[int] = None

    def __post_init__(self) -> None:
        a1, n1 = self.design.a1, self.design.n1
        if self.m > MAX_SAMPLE_SIZE:
            # checked here because the CP, Wald and Wilson intervals and the
            # UMVUE never reach the kernel's own cap
            raise ValueError(
                f"analysed sample size {self.m} exceeds the cap of {MAX_SAMPLE_SIZE}"
            )
        _check_outcome(self.s, self.m, self.analysis_design)
        if self.s1 is not None:
            if not a1 < self.s1 <= n1:
                raise ValueError(f"stage-1 successes must satisfy a1 < s1 <= n1, got {self.s1}")
            if self.s1 > self.s:
                raise ValueError(f"s1={self.s1} cannot exceed total successes s={self.s}")

    @property
    def stage(self) -> int:
        return 1 if self.m == self.design.n1 else 2

    @cached_property
    def analysis_design(self) -> TwoStageDesign:
        """The design with n replaced by the realised final sample size
        m > n1, built once per state. No analysis of a realised outcome
        reads the final bound a, so an a that the realised size cannot
        exceed is replaced by a1."""
        design = self.design
        if self.m > design.n1 and self.m != design.n:
            if design.a >= self.m:
                design = dataclasses.replace(design, a=design.a1)
            return design.with_final_n(self.m)
        return design


@dataclass(frozen=True)
class Estimate:
    value: float
    clamped: bool = False
    note: Optional[str] = None

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class EstimateSet:
    naive: float
    bias_subtracted: float
    bias_adjusted: float
    umvue: float
    umvcue: float
    conditional: float
    median_unbiased: float

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ConfidenceInterval:
    low: float
    upp: float
    level: float
    method: str

    def __post_init__(self) -> None:
        if self.low > self.upp:
            raise ValueError(f"interval limits out of order: ({self.low}, {self.upp})")

    @property
    def length(self) -> float:
        return self.upp - self.low

    def contains(self, p: float) -> bool:
        return self.low <= p <= self.upp

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def _check_level(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    return 1.0 - level


def _check_counts(s: int, m: int) -> None:
    """Reject a count that is not 0 <= s <= m with m >= 1."""
    if m <= 0:
        raise ValueError(f"sample size must be positive, got {m}")
    if not 0 <= s <= m:
        raise ValueError(f"successes must satisfy 0 <= s <= m, got s={s}, m={m}")


# ---------------------------------------------------------------------------
# point estimation


def estimate_naive(s: int, m: int) -> float:
    _check_counts(s, m)
    return s / m


def _expectation(values: Iterable[float], design: TwoStageDesign, p: float) -> float:
    """Sum of values[k] * P(outcome k) over the terminal outcomes under p.

    ``values`` follows the order of terminal_outcomes and depends only on
    the outcome, so a root solve builds it once and each evaluation costs
    one terminal_pmf call. The outcome probabilities are taken before the
    values are read, so a design above the sample-size cap raises before
    a lazy ``values`` computes anything. fsum rounds the exact sum of the
    products once, so the result does not depend on their order.
    """
    return math.fsum(map(mul, values, terminal_pmf(design, p)))


def _naive_procedure(s: int, m: int, design: TwoStageDesign) -> float:
    return s / m


def estimator_bias(estimator: str, p: float, design: TwoStageDesign) -> tuple[float, float]:
    """Expected value and bias of the named point-estimation procedure
    ("naive", "umvue" or "umvcue")."""
    fn = _PROCEDURES.get(estimator)
    if fn is None:
        raise ValueError(
            f"unknown estimator {estimator!r}; choose from {', '.join(_PROCEDURES)}"
        )
    values = (fn(o.s, o.m, design) for o in terminal_outcomes(design))
    expected = _expectation(values, design, p)
    return expected, expected - p


def estimate_bias_subtracted(state: AnalysisState) -> Estimate:
    """Naive estimate minus the naive procedure's bias evaluated at it."""
    d = state.analysis_design
    naive = estimate_naive(state.s, state.m)
    _, bias = estimator_bias("naive", naive, d)
    value = naive - bias
    clamped = not 0.0 <= value <= 1.0
    return Estimate(value=min(1.0, max(0.0, value)), clamped=clamped)


def estimate_bias_adjusted(state: AnalysisState) -> Estimate:
    """The p solving p = naive - Bias(naive | p), i.e. E(naive | p) = naive."""
    d = state.analysis_design
    naive = estimate_naive(state.s, state.m)
    values = [_naive_procedure(o.s, o.m, d) for o in terminal_outcomes(d)]
    root = solve_monotone_root(lambda p: _expectation(values, d, p), naive, tol=ROOT_TOL)
    note = "no root in [0, 1]; clamped to boundary" if root.out_of_bracket else None
    return Estimate(value=root.value, clamped=root.out_of_bracket, note=note)


def umvue_fraction(s: int, m: int, design: TwoStageDesign) -> Fraction:
    """Uniform minimum variance unbiased estimate, in exact arithmetic."""
    if m == design.n1:
        return Fraction(s, design.n1)
    n2 = m - design.n1
    lo = max(design.a1 + 1, s - n2)
    hi = min(s, design.n1)
    num = sum(math.comb(design.n1 - 1, i - 1) * math.comb(n2, s - i) for i in range(lo, hi + 1))
    den = sum(math.comb(design.n1, i) * math.comb(n2, s - i) for i in range(lo, hi + 1))
    return Fraction(num, den)


def estimate_umvue(state: AnalysisState) -> float:
    return float(umvue_fraction(state.s, state.m, state.analysis_design))


def umvcue_fraction(s: int, m: int, design: TwoStageDesign) -> Fraction:
    """Conditionally (on reaching stage 2) unbiased estimate, exact."""
    if m == design.n1:
        return Fraction(s, design.n1)
    n2 = m - design.n1
    lo = max(design.a1 + 1, s - n2)
    hi = min(s, design.n1)
    num = sum(
        math.comb(design.n1, i) * math.comb(n2 - 1, s - i - 1)
        for i in range(lo, hi + 1)
        if 0 <= s - i - 1 <= n2 - 1
    )
    den = sum(math.comb(design.n1, i) * math.comb(n2, s - i) for i in range(lo, hi + 1))
    return Fraction(num, den)


def estimate_umvcue(state: AnalysisState) -> float:
    return float(umvcue_fraction(state.s, state.m, state.analysis_design))


def _log_continuation_prob(p: float, design: TwoStageDesign) -> float:
    return math.log(binom_upper_tail(design.a1 + 1, design.n1, p))


def estimate_conditional(state: AnalysisState) -> float:
    """Maximiser of the log-likelihood conditional on continuation."""
    if state.stage == 1:
        return estimate_naive(state.s, state.m)
    d = state.analysis_design
    s, n = state.s, state.m
    if s == n:
        # likelihood is increasing up to the boundary
        return 1.0
    if s == d.a1 + 1:
        # dividing p^s (1-p)^(n-s) by P(X1 > a1) gives
        # L(p) = (1-p)^(n-n1) / sum_j C(n1, a1+1+j) (p/(1-p))^j, a falling
        # numerator over a non-decreasing denominator: strictly decreasing
        # on (0, 1), so the maximum is at p = 0
        return 0.0

    def loglik(p: float) -> float:
        return s * math.log(p) + (n - s) * math.log1p(-p) - _log_continuation_prob(p, d)

    return _golden_max(loglik, 1e-12, 1.0 - 1e-12, tol=ROOT_TOL)


def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Golden-section maximiser, with a coarse scan to bracket the mode."""
    grid = [lo + (hi - lo) * k / 400 for k in range(401)]
    vals = [f(x) for x in grid]
    k = max(range(len(grid)), key=vals.__getitem__)
    a = grid[max(0, k - 1)]
    b = grid[min(len(grid) - 1, k + 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    e = a + inv_phi * (b - a)
    fc, fe = f(c), f(e)
    while b - a > tol:
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + inv_phi * (b - a)
            fe = f(e)
    x = 0.5 * (a + b)
    return min(1.0, max(0.0, x))


def _check_outcome(s: int, m: int, d: TwoStageDesign) -> None:
    """ValueError unless (s, m) is a terminal outcome of d."""
    if m == d.n1:
        if not 0 <= s <= d.a1:
            raise ValueError(
                f"(s={s}, m={m}) is not a stage-1 terminal outcome (need s <= a1={d.a1})"
            )
    elif m == d.n:
        if not d.a1 < s <= d.n:
            raise ValueError(
                f"(s={s}, m={m}) is not a stage-2 terminal outcome of the design"
            )
    else:
        raise ValueError(
            f"analysis sample size {m} is neither n1={d.n1} nor the final size {d.n}"
        )


def q_value(s: int, m: int, p: float, design: TwoStageDesign) -> float:
    """Stagewise-ordering tail probability of the terminal outcome (s, m):
    the suffix of terminal_pmf's row from s.

    At m = n1 this is P(at least s stage-1 successes); at the final sample
    size it sums over continuation paths whose total reaches at least s.
    """
    _check_outcome(s, m, design)
    return continuation_tail(terminal_pmf(design, p), s)


def q_lower_value(s: int, m: int, p: float, design: TwoStageDesign) -> float:
    """Probability of an outcome at or below (s, m) in the stagewise order:
    the prefix of terminal_pmf's row up to s.

    Complements q_value but includes the observed outcome, so the two sum
    to 1 plus the outcome's own probability.
    """
    _check_outcome(s, m, design)
    return min(1.0, math.fsum(terminal_pmf(design, p)[: s + 1]))


def estimate_median_unbiased(state: AnalysisState) -> Estimate:
    """The p at which the observed outcome's tail probability equals 0.5."""
    if state.s == 0:
        return Estimate(value=0.0, note="q is identically 1; no median root")
    d = state.analysis_design
    root = solve_monotone_root(
        lambda p: q_value(state.s, state.m, p, d), 0.5, tol=ROOT_TOL
    )
    note = "target not bracketed; clamped to boundary" if root.out_of_bracket else None
    return Estimate(value=root.value, clamped=root.out_of_bracket, note=note)


def estimate_all(state: AnalysisState) -> EstimateSet:
    """All seven point estimates for one analysis state."""
    return EstimateSet(
        naive=estimate_naive(state.s, state.m),
        bias_subtracted=estimate_bias_subtracted(state).value,
        bias_adjusted=estimate_bias_adjusted(state).value,
        umvue=estimate_umvue(state),
        umvcue=estimate_umvcue(state),
        conditional=estimate_conditional(state),
        median_unbiased=estimate_median_unbiased(state).value,
    )


def _umvue_procedure(s: int, m: int, design: TwoStageDesign) -> float:
    return float(umvue_fraction(s, m, design))


def _umvcue_procedure(s: int, m: int, design: TwoStageDesign) -> float:
    return float(umvcue_fraction(s, m, design))


_PROCEDURES: dict[str, Callable[[int, int, TwoStageDesign], float]] = {
    "naive": _naive_procedure,
    "umvue": _umvue_procedure,
    "umvcue": _umvcue_procedure,
}


# ---------------------------------------------------------------------------
# p-values


def p_value(state: AnalysisState, p0: Optional[float] = None) -> float:
    """Stagewise-ordering p-value for H0: p <= p0."""
    if p0 is None:
        if state.design.targets is None:
            raise ValueError("p0 is required (no design targets present)")
        p0 = state.design.targets.p0
    d = state.analysis_design
    return q_value(state.s, state.m, p0, d)


# ---------------------------------------------------------------------------
# confidence intervals


def ci_jennison_turnbull(state: AnalysisState, level: float = 0.95) -> ConfidenceInterval:
    """Stagewise-ordering (adjusted) exact interval.

    The lower limit equates the outcome's upper-tail probability (the q
    function) to half the error budget, the upper limit its
    outcome-inclusive lower-tail probability. Outcomes whose tail never
    reaches the target map to the corresponding boundary. This tail pairing
    is what keeps exact coverage at or above the nominal level; pairing both
    limits with roots of q alone does not.
    """
    alpha_ci = _check_level(level)
    d = state.analysis_design

    low = solve_monotone_root(
        lambda p: q_value(state.s, state.m, p, d), alpha_ci / 2.0, tol=ROOT_TOL
    )
    upp = solve_monotone_root(
        lambda p: q_lower_value(state.s, state.m, p, d), alpha_ci / 2.0, tol=ROOT_TOL
    )
    low_val = 0.0 if low.out_of_bracket else low.value
    upp_val = 1.0 if upp.out_of_bracket else upp.value
    return ConfidenceInterval(low=low_val, upp=upp_val, level=level, method="JT")


def ci_midp(state: AnalysisState, level: float = 0.95) -> ConfidenceInterval:
    """Mid-p interval under the UMVUE ordering of terminal outcomes."""
    alpha_ci = _check_level(level)
    d = state.analysis_design
    observed = umvue_fraction(state.s, state.m, d)
    ranks = [umvue_fraction(o.s, o.m, d) for o in terminal_outcomes(d)]
    weights = [0.0 if r < observed else 0.5 if r == observed else 1.0 for r in ranks]

    def tail(p: float) -> float:
        return _expectation(weights, d, p)

    low = solve_monotone_root(tail, alpha_ci / 2.0, tol=ROOT_TOL)
    upp = solve_monotone_root(tail, 1.0 - alpha_ci / 2.0, tol=ROOT_TOL)
    low_val = 0.0 if low.out_of_bracket else low.value
    upp_val = 1.0 if upp.out_of_bracket else upp.value
    return ConfidenceInterval(low=low_val, upp=upp_val, level=level, method="midp")


def ci_clopper_pearson(s: int, m: int, level: float = 0.95) -> ConfidenceInterval:
    """Exact tail-inversion interval for a plain binomial proportion."""
    alpha_ci = _check_level(level)
    _check_counts(s, m)
    half = alpha_ci / 2.0
    if s == 0:
        return ConfidenceInterval(0.0, 1.0 - half ** (1.0 / m), level, "CP")
    if s == m:
        return ConfidenceInterval(half ** (1.0 / m), 1.0, level, "CP")
    low = solve_monotone_root(lambda p: binom_upper_tail(s, m, p), half, tol=ROOT_TOL)
    upp = solve_monotone_root(lambda p: binom_cdf(s, m, p), half, tol=ROOT_TOL)
    return ConfidenceInterval(low.value, upp.value, level, "CP")


def ci_wald(s: int, m: int, level: float = 0.95) -> ConfidenceInterval:
    alpha_ci = _check_level(level)
    _check_counts(s, m)
    phat = s / m
    z = normal_quantile(1.0 - alpha_ci / 2.0)
    half_width = z * math.sqrt(phat * (1.0 - phat) / m)
    return ConfidenceInterval(
        max(0.0, phat - half_width), min(1.0, phat + half_width), level, "Wald"
    )


def ci_wilson(s: int, m: int, level: float = 0.95) -> ConfidenceInterval:
    alpha_ci = _check_level(level)
    _check_counts(s, m)
    phat = s / m
    z = normal_quantile(1.0 - alpha_ci / 2.0)
    z2 = z * z
    centre = phat + z2 / (2 * m)
    spread = z * math.sqrt(phat * (1.0 - phat) / m + z2 / (4 * m * m))
    denom = 1.0 + z2 / m
    return ConfidenceInterval(
        max(0.0, (centre - spread) / denom), min(1.0, (centre + spread) / denom), level, "Wilson"
    )


CI_METHODS = ("JT", "midp", "CP", "Wald", "Wilson")


@lru_cache(maxsize=1 << 16)
def interval_for_outcome(
    method: str,
    outcome: TerminalOutcome,
    design: TwoStageDesign,
    level: float = 0.95,
) -> ConfidenceInterval:
    """The interval a method reports for one terminal outcome."""
    key = method.lower()
    if key in ("cp", "clopper-pearson"):
        return ci_clopper_pearson(outcome.s, outcome.m, level)
    if key == "wald":
        return ci_wald(outcome.s, outcome.m, level)
    if key == "wilson":
        return ci_wilson(outcome.s, outcome.m, level)
    state = AnalysisState(design=design, s=outcome.s, m=outcome.m)
    if key in ("jt", "jennison-turnbull"):
        return ci_jennison_turnbull(state, level)
    if key in ("midp", "mid-p"):
        return ci_midp(state, level)
    raise ValueError(f"unknown CI method {method!r}")


def coverage(method: str, p: float, design: TwoStageDesign, level: float = 0.95) -> float:
    """Exact probability that the named method's interval contains p.
    Interval membership uses closed endpoints."""
    return min(
        1.0,
        math.fsum(
            prob
            for o, prob in zip(terminal_outcomes(design), terminal_pmf(design, p))
            if interval_for_outcome(method, o, design, level).contains(p)
        ),
    )
