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
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

from .binomial import (
    _log_factorials,
    binom_cdf,
    binom_pmf_row,
    binom_upper_tail,
    normal_quantile,
    solve_monotone_root,
)
from .design import TwoStageDesign, continuation_tail, terminal_pmf

ROOT_TOL = 1e-10


@dataclass(frozen=True)
class AnalysisState:
    """The data available at the final analysis of a two-stage trial.

    Construction raises ValueError unless (s, m) is a terminal outcome of
    the analysis design and s1, if given, continues the trial with
    s1 <= s, so every instance is valid. A realised m above the cap fails
    when the analysis design is built.
    """

    design: TwoStageDesign
    s: int
    m: int
    _: dataclasses.KW_ONLY
    s1: Optional[int] = None

    def __post_init__(self) -> None:
        a1, n1 = self.design.a1, self.design.n1
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
        """design.with_final_n(m) for a realised final sample size
        m > n1 other than n, otherwise the design; built once per state."""
        if self.m > self.design.n1 and self.m != self.design.n:
            return self.design.with_final_n(self.m)
        return self.design


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
    """Sum of values[s] * P(the trial ends with total s) over s = 0..n
    under p.

    ``values`` is indexed by the total s and depends only on the outcome,
    so a root solve builds it once and each evaluation costs one
    terminal_pmf call. The outcome probabilities are taken before the
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
    values = (fn(s, design.size_at(s), design) for s in range(design.n + 1))
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
    values = [_naive_procedure(s, d.size_at(s), d) for s in range(d.n + 1)]
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


def _log_continuation_prob(p: float, a1: int, n1: int) -> float:
    """log P(X1 > a1) for X1 ~ Bin(n1, p), 0 < p <= 1. Where the tail
    underflows to 0.0 (a1 near n1 and p near 0), its log is summed from
    the log-space pmf terms instead, so the log-likelihood stays finite."""
    tail = binom_upper_tail(a1 + 1, n1, p)
    if tail > 0.0:
        return math.log(tail)
    lf, log_p, log_q = _log_factorials(), math.log(p), math.log1p(-p)
    terms = [
        lf[n1] - lf[k] - lf[n1 - k] + k * log_p + (n1 - k) * log_q
        for k in range(a1 + 1, n1 + 1)
    ]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(term - top) for term in terms))


@lru_cache(maxsize=1)
def _mle_grid() -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """The conditional MLE's 401 scan points x on [1e-12, 1 - 1e-12], with
    log x and log1p(-x) at each: 3 tuples of 401 floats, about 40 KB, built
    on first use."""
    lo, hi = 1e-12, 1.0 - 1e-12
    grid = tuple(lo + (hi - lo) * k / 400 for k in range(401))
    return grid, tuple(map(math.log, grid)), tuple(math.log1p(-x) for x in grid)


@lru_cache(maxsize=512)
def _log_continuation_row(a1: int, n1: int) -> Sequence[float]:
    """log P(X1 > a1) for X1 ~ Bin(n1, x) at each scan point x of _mle_grid,
    so each stage-1 pair (a1, n1) takes its 401 tails once. At most 512
    rows of 401 doubles are kept, 3.3 KB each: 1.7 MB in all."""
    # imported here, not at module level: array is a shared library, and
    # importing the CLI should not load it
    from array import array

    return array("d", [_log_continuation_prob(x, a1, n1) for x in _mle_grid()[0]])


def estimate_conditional(state: AnalysisState) -> float:
    """Maximiser of the log-likelihood conditional on continuation.

    The scan that brackets the mode reads the p-independent parts of the
    log-likelihood at its 401 fixed points from _mle_grid and
    _log_continuation_row, so each scan value is the same float the
    log-likelihood gives there. ROADMAP item 2 (the conditional MLE as a
    root of one kernel sum) deletes the grid and its row cache.
    """
    if state.stage == 1:
        return estimate_naive(state.s, state.m)
    d = state.analysis_design
    s, n, a1, n1 = state.s, state.m, d.a1, d.n1
    if s == n:
        # likelihood is increasing up to the boundary
        return 1.0
    if s == a1 + 1:
        # dividing p^s (1-p)^(n-s) by P(X1 > a1) gives
        # L(p) = (1-p)^(n-n1) / sum_j C(n1, a1+1+j) (p/(1-p))^j, a falling
        # numerator over a non-decreasing denominator: strictly decreasing
        # on (0, 1), so the maximum is at p = 0
        return 0.0

    def loglik(p: float) -> float:
        return s * math.log(p) + (n - s) * math.log1p(-p) - _log_continuation_prob(p, a1, n1)

    grid, log_x, log1m_x = _mle_grid()
    scanned = [
        s * lx + (n - s) * l1x - lc
        for lx, l1x, lc in zip(log_x, log1m_x, _log_continuation_row(a1, n1))
    ]
    return _golden_max(loglik, grid, scanned, tol=ROOT_TOL)


def _golden_max(
    f: Callable[[float], float], grid: Sequence[float], scanned: list[float], tol: float
) -> float:
    """Golden-section maximiser of f, bracketed by the largest of the
    values ``scanned`` of f on the increasing ``grid``."""
    k = max(range(len(grid)), key=scanned.__getitem__)
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
    """ValueError unless (s, m) is a terminal outcome of d: 0 <= s <= n
    and m == d.size_at(s)."""
    if m < d.n1:
        raise ValueError(f"analysis sample size {m} is below n1={d.n1}")
    if m not in (d.n1, d.n):
        raise ValueError(
            f"analysis sample size {m} is neither n1={d.n1} nor the final size {d.n}"
        )
    if not 0 <= s <= d.n or d.size_at(s) != m:
        if m == d.n1:
            raise ValueError(
                f"(s={s}, m={m}) is not a stage-1 terminal outcome (need s <= a1={d.a1})"
            )
        raise ValueError(f"(s={s}, m={m}) is not a stage-2 terminal outcome of the design")


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


@lru_cache(maxsize=1024)
def _umvue_ranks(a1: int, n1: int, n: int) -> Sequence[int]:
    """Dense rank of the UMVUE of each terminal outcome of the design with
    stage-1 bound a1/n1 and final size n, indexed by the outcome's total s.
    Equal estimates share a rank and a larger estimate has a larger rank,
    so comparing ranks orders outcomes as comparing the exact fractions
    does. The UMVUE does not read the final bound a, so the design is keyed
    without it. At most 1024 rows of at most MAX_SAMPLE_SIZE + 1 2-byte
    ints are kept: 10 KB each at the cap, 10 MB in all, and under 200 bytes
    each for phase II sizes."""
    from array import array  # see _log_continuation_row

    design = TwoStageDesign(a1=a1, a=a1, n1=n1, n=n)
    estimates = [umvue_fraction(s, design.size_at(s), design) for s in range(n + 1)]
    rank = {value: r for r, value in enumerate(sorted(set(estimates)))}
    return array("H", [rank[value] for value in estimates])


def _midp_weights(ranks: Sequence[int], observed: int) -> list[float]:
    """Weight of each outcome in the mid-p tail of the outcome with UMVUE
    rank ``observed``: 1 above it, 1/2 at it and 0 below it."""
    return [0.0 if r < observed else 0.5 if r == observed else 1.0 for r in ranks]


def ci_midp(state: AnalysisState, level: float = 0.95) -> ConfidenceInterval:
    """Mid-p interval under the UMVUE ordering of terminal outcomes."""
    alpha_ci = _check_level(level)
    d = state.analysis_design
    ranks = _umvue_ranks(d.a1, d.n1, d.n)
    weights = _midp_weights(ranks, ranks[state.s])

    def tail(p: float) -> float:
        return _expectation(weights, d, p)

    low = solve_monotone_root(tail, alpha_ci / 2.0, tol=ROOT_TOL)
    upp = solve_monotone_root(tail, 1.0 - alpha_ci / 2.0, tol=ROOT_TOL)
    low_val = 0.0 if low.out_of_bracket else low.value
    upp_val = 1.0 if upp.out_of_bracket else upp.value
    return ConfidenceInterval(low=low_val, upp=upp_val, level=level, method="midp")


@lru_cache(maxsize=1 << 14)
def ci_clopper_pearson(s: int, m: int, level: float = 0.95) -> ConfidenceInterval:
    """Exact tail-inversion interval for a plain binomial proportion.

    Each (s, m, level) is solved once: the audit checks a record's interval
    in its summary and again in its figure data. At most 2^14 intervals are
    kept, about 300 bytes each with their cache entry: 5 MB in all."""
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

# each method's names, matched without regard to case
_CI_NAMES = {
    "jt": "JT",
    "jennison-turnbull": "JT",
    "midp": "midp",
    "mid-p": "midp",
    "cp": "CP",
    "clopper-pearson": "CP",
    "wald": "Wald",
    "wilson": "Wilson",
}


def _ci_method(method: str) -> str:
    """The CI_METHODS entry that ``method`` names."""
    name = _CI_NAMES.get(method.lower())
    if name is None:
        raise ValueError(f"unknown CI method {method!r}")
    return name


@lru_cache(maxsize=1 << 16)
def interval_for_outcome(
    method: str, s: int, design: TwoStageDesign, level: float = 0.95
) -> ConfidenceInterval:
    """The interval a method reports for the terminal outcome with total s,
    which ends the trial at design.size_at(s). A trial analysed at a
    realised final size passes its AnalysisState.analysis_design."""
    name = _ci_method(method)
    m = design.size_at(s)
    if name == "CP":
        return ci_clopper_pearson(s, m, level)
    if name == "Wald":
        return ci_wald(s, m, level)
    if name == "Wilson":
        return ci_wilson(s, m, level)
    state = AnalysisState(design=design, s=s, m=m)
    if name == "JT":
        return ci_jennison_turnbull(state, level)
    return ci_midp(state, level)


def coverage(method: str, p: float, design: TwoStageDesign, level: float = 0.95) -> float:
    """Exact probability that the named method's interval contains p.
    Interval membership uses closed endpoints.

    JT, mid-p and CP coverage is found by test inversion, with no root
    solve: an interval contains p exactly when the tails at p clear the
    thresholds its limits were solved for. These are alpha/2 for each JT
    tail (q_value and q_lower_value, a suffix and a prefix of the terminal
    row at p), alpha/2 and 1 - alpha/2 for the mid-p tail, and alpha/2 for
    each Bin(m, p) tail of CP at 0 < s < m. The outcomes that pass form a
    window in s (in UMVUE rank for mid-p, and one window per stage for CP),
    whose ends a binary search finds with O(log n) fsums. This agrees with
    the limits of interval_for_outcome except where p lies within ROOT_TOL
    of a solved limit, and there it is the exact answer. CP at s = 0 and
    s = n reads its closed-form limits from ci_clopper_pearson. Wald and
    Wilson, both closed forms, check the interval of every outcome.
    """
    name = _ci_method(method)
    row = terminal_pmf(design, p)
    if name == "JT":
        covered: Iterable[int] = _tail_window(row, 0, len(row), _check_level(level) / 2.0)
    elif name == "midp":
        covered = _midp_covered(row, design, _check_level(level) / 2.0)
    elif name == "CP":
        covered = _cp_covered(p, design, level)
    else:
        covered = (
            s
            for s in range(design.n + 1)
            if interval_for_outcome(method, s, design, level).contains(p)
        )
    return min(1.0, math.fsum(row[s] for s in covered))


def _window(
    lo: int, hi: int, reached: Callable[[int], bool], passed: Callable[[int], bool]
) -> range:
    """The k in range(lo, hi) with reached(k) and not passed(k), where each
    predicate is False and then True as k grows: two binary searches."""
    start = bisect_left(range(hi), True, lo, hi, key=reached)
    return range(start, bisect_left(range(hi), True, start, hi, key=passed))


def _tail_window(row: list[float], lo: int, hi: int, half: float) -> range:
    """The k in range(lo, hi) whose prefix row[:k + 1] and suffix row[k:]
    each sum to at least half. The prefix sum rises with k and the suffix
    sum falls. As half < 1, these are the comparisons of q_lower_value and
    q_value with half for a terminal row, and of binom_cdf and
    binom_upper_tail for a Bin(m, p) row and 0 < k < m."""
    return _window(
        lo,
        hi,
        lambda k: math.fsum(row[: k + 1]) >= half,
        lambda k: math.fsum(row[k:]) < half,
    )


def _midp_covered(row: list[float], design: TwoStageDesign, half: float) -> list[int]:
    """Totals whose mid-p interval contains p, for the terminal row at p.
    The tail that ci_midp solves falls as the observed UMVUE rank rises, so
    the ranks with alpha/2 <= tail <= 1 - alpha/2 form a window."""
    ranks = _umvue_ranks(design.a1, design.n1, design.n)

    def tail(r: int) -> float:
        return math.fsum(map(mul, _midp_weights(ranks, r), row))

    window = _window(0, max(ranks) + 1, lambda r: tail(r) <= 1.0 - half, lambda r: tail(r) < half)
    return [s for s, r in enumerate(ranks) if r in window]


def _cp_covered(p: float, design: TwoStageDesign, level: float) -> list[int]:
    """Totals whose CP interval contains p: a window of each stage's
    totals 0 < s < m on its Bin(m, p) row, and s = 0 and s = n by their
    closed-form limits."""
    half = _check_level(level) / 2.0
    a1, n1, n = design.a1, design.n1, design.n
    covered = [
        s for s, m in ((0, n1), (n, n)) if ci_clopper_pearson(s, m, level).contains(p)
    ]
    covered += _tail_window(binom_pmf_row(n1, p), 1, a1 + 1, half)
    covered += _tail_window(binom_pmf_row(n, p), a1 + 1, n, half)
    return covered
