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
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate, islice
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .binomial import (
    RowSum,
    _log_factorials,
    binom_cdf,
    binom_pmf_row,
    binom_upper_tail,
    normal_quantile,
    path_counts,
    solve_monotone_root,
)
from .design import TwoStageDesign, terminal_pmf

ROOT_TOL = 1e-10

# f(p) = target for a sum f monotone in p, a RowSum but for the conditional
# score: the equation whose root is an estimate or an interval limit
Equation = tuple[Callable[[float], float], float]


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
        # the fields in order; every one is a scalar, so no deep copy
        return dict(vars(self))


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
        # the fields in order; every one is a scalar, so no deep copy
        return dict(vars(self))


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


def _naive_row(design: TwoStageDesign) -> list[float]:
    """The sample proportion of every terminal outcome, indexed by total s."""
    return [s / design.size_at(s) for s in range(design.n + 1)]


def _estimator_mean(estimator: str, design: TwoStageDesign) -> RowSum:
    """E_p of the named point-estimation procedure ("naive", "umvue" or
    "umvcue") as a function of p. The estimates depend only on the outcome,
    so a root solve builds them once."""
    if estimator == "naive":
        values = _naive_row(design)
    elif estimator in _EXACT:
        values = list(map(float, _exact_row(estimator, design)))
    else:
        raise ValueError(f"unknown estimator {estimator!r}; choose from naive, umvue, umvcue")
    return RowSum(design.row_key, ((0, design.n + 1, values),))


def estimator_bias(estimator: str, p: float, design: TwoStageDesign) -> tuple[float, float]:
    """Expected value and bias of the named point-estimation procedure
    ("naive", "umvue" or "umvcue")."""
    expected = _estimator_mean(estimator, design)(p)
    return expected, expected - p


def estimate_bias_subtracted(state: AnalysisState) -> Estimate:
    """Naive estimate minus the naive procedure's bias evaluated at it."""
    d = state.analysis_design
    naive = estimate_naive(state.s, state.m)
    _, bias = estimator_bias("naive", naive, d)
    value = naive - bias
    clamped = not 0.0 <= value <= 1.0
    return Estimate(value=min(1.0, max(0.0, value)), clamped=clamped)


def _bias_adjusted_equation(state: AnalysisState) -> Equation:
    """E_p[naive] = naive: the expected naive estimate rises with p."""
    return _estimator_mean("naive", state.analysis_design), estimate_naive(state.s, state.m)


def estimate_bias_adjusted(state: AnalysisState) -> Estimate:
    """The p solving p = naive - Bias(naive | p), i.e. E(naive | p) = naive."""
    root = solve_monotone_root(*_bias_adjusted_equation(state), tol=ROOT_TOL)
    note = "no root in [0, 1]; clamped to boundary" if root.out_of_bracket else None
    return Estimate(value=root.value, clamped=root.out_of_bracket, note=note)


def _stage2_counts(design: TwoStageDesign) -> Iterator[tuple[int, int, int]]:
    """(s, M_{s-1}, c_s) for each stage-2 total s = a1 + 1..n, in one pass.

    c_s = path_counts(a1, n1, n)[s - a1 - 1] counts the continuing paths
    that end with s successes, and M_{s-1} those whose last patient
    responds. Dropping that patient leaves a continuing path of n - 1
    patients with s - 1 or s successes, so c_s = M_s + M_{s-1}, with
    M_{a1} = 0 (Pascal's rule for the last patient).
    """
    counts = path_counts(*design.row_key)
    last = accumulate(counts, lambda m, c: c - m, initial=0)
    return zip(range(design.a1 + 1, design.n + 1), last, counts)


# each exact estimator from _stage2_counts: the UMVCUE is the chance that the
# last patient responds, given the outcome; given the outcome, E(S1) is
# n1 UMVUE, E(S2) is n2 UMVCUE and S1 + S2 = s (the Rao-Blackwell identity)
_EXACT: dict[str, Callable[[int, int, int, TwoStageDesign], Fraction]] = {
    "umvue": lambda s, last, count, d: Fraction(s * count - d.n2 * last, d.n1 * count),
    "umvcue": lambda s, last, count, d: Fraction(last, count),
}


def _exact_row(name: str, design: TwoStageDesign) -> list[Fraction]:
    """The named exact estimate of every terminal outcome, indexed by s."""
    stage1 = [Fraction(s, design.n1) for s in range(design.a1 + 1)]
    return stage1 + [_EXACT[name](*counts, design) for counts in _stage2_counts(design)]


def _exact_estimate(name: str, s: int, m: int, design: TwoStageDesign) -> Fraction:
    """_exact_row's entry at the terminal outcome (s, m), by a pass to s."""
    _check_outcome(s, m, design)
    if m == design.n1:
        return Fraction(s, m)
    return _EXACT[name](*next(islice(_stage2_counts(design), s - design.a1 - 1, None)), design)


def umvue_fraction(s: int, m: int, design: TwoStageDesign) -> Fraction:
    """Uniform minimum variance unbiased estimate of the outcome (s, m), exact."""
    return _exact_estimate("umvue", s, m, design)


def estimate_umvue(state: AnalysisState) -> float:
    return float(umvue_fraction(state.s, state.m, state.analysis_design))


def umvcue_fraction(s: int, m: int, design: TwoStageDesign) -> Fraction:
    """Conditionally (on reaching stage 2) unbiased estimate of (s, m), exact."""
    return _exact_estimate("umvcue", s, m, design)


def estimate_umvcue(state: AnalysisState) -> float:
    return float(umvcue_fraction(state.s, state.m, state.analysis_design))


def _log_continuation_prob(
    p: float, a1: int, n1: int, upper_tail: Callable[[int, int, float], float] = binom_upper_tail
) -> float:
    """log P(X1 > a1) for X1 ~ Bin(n1, p), 0 < p <= 1, from upper_tail,
    binom_upper_tail or its uncached sum. Where the tail is subnormal or 0.0
    (a1 near n1 and p near 0), its log is summed from the log-space pmf
    terms instead, so the log-likelihood stays finite and accurate."""
    tail = upper_tail(a1 + 1, n1, p)
    if tail >= sys.float_info.min:
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
    rows of 401 doubles are kept, 3.3 KB each: 1.7 MB in all.

    The tails are binom_upper_tail's sum, uncached: this row keeps them,
    and no other caller reads a tail at a scan point, so entering them in
    the scalar cache would only fill it."""
    # imported here, not at module level: array is a shared library, and
    # importing the CLI should not load it
    from array import array

    uncached = binom_upper_tail.__wrapped__
    return array("d", [_log_continuation_prob(x, a1, n1, uncached) for x in _mle_grid()[0]])


def _conditional_score_equation(state: AnalysisState) -> Optional[Equation]:
    """E_p[S | continue] = s, the score equation of the conditional MLE, at
    a stage-2 outcome a1 + 1 < s < n; None at the outcomes where
    estimate_conditional is a closed form.

    Given continuation, P(S = k) is proportional to c_k p^k (1 - p)^(n - k)
    for k > a1: an exponential family in logit p, so the conditional
    likelihood of s is largest where the conditional mean of S is s, and
    that mean rises strictly with p. It is the ratio of two sums over the
    stage-2 suffix of terminal_pmf's row. Where the suffix sums below the
    smallest normal float, its terms have lost their relative precision, and
    the mean is NaN, which compares as neither side of s.
    """
    d = state.analysis_design
    if state.stage == 1 or state.s in (d.a1 + 1, d.n):
        return None
    totals = range(d.a1 + 1, d.n + 1)

    def mean(p: float) -> float:
        terms = terminal_pmf(d, p, d.a1 + 1)
        total = math.fsum(terms)
        if not total >= sys.float_info.min:
            return math.nan
        return math.fsum(map(mul, totals, terms)) / total

    return mean, state.s


def estimate_conditional(state: AnalysisState) -> float:
    """Maximiser of the log-likelihood conditional on continuation.

    Its interior stage-2 values are within 2e-8 of the root of
    _conditional_score_equation (measured against an mpmath root; see the
    tests), although they come from a search, not from that root.

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


def _q_sums(s: int, m: int, design: TwoStageDesign) -> tuple[RowSum, RowSum]:
    """q_value and q_lower_value of the terminal outcome (s, m) as functions
    of p: the suffix of terminal_pmf's row from s and its prefix up to s."""
    _check_outcome(s, m, design)
    row = design.row_key
    return RowSum(row, ((s, design.n + 1, None),), True), RowSum(row, ((0, s + 1, None),), True)


def q_value(s: int, m: int, p: float, design: TwoStageDesign) -> float:
    """Stagewise-ordering tail probability of the terminal outcome (s, m).

    At m = n1 this is P(at least s stage-1 successes); at the final sample
    size it sums over continuation paths whose total reaches at least s.
    """
    return _q_sums(s, m, design)[0](p)


def q_lower_value(s: int, m: int, p: float, design: TwoStageDesign) -> float:
    """Probability of an outcome at or below (s, m) in the stagewise order.

    Complements q_value but includes the observed outcome, so the two sum
    to 1 plus the outcome's own probability.
    """
    return _q_sums(s, m, design)[1](p)


def _median_unbiased_equation(state: AnalysisState) -> Optional[Equation]:
    """q_value = 0.5; None at s = 0, where q is identically 1."""
    if state.s == 0:
        return None
    return _q_sums(state.s, state.m, state.analysis_design)[0], 0.5


def estimate_median_unbiased(state: AnalysisState) -> Estimate:
    """The p at which the observed outcome's tail probability equals 0.5."""
    equation = _median_unbiased_equation(state)
    if equation is None:
        return Estimate(value=0.0, note="q is identically 1; no median root")
    root = solve_monotone_root(*equation, tol=ROOT_TOL)
    note = "target not bracketed; clamped to boundary" if root.out_of_bracket else None
    return Estimate(value=root.value, clamped=root.out_of_bracket, note=note)


# each field of EstimateSet from one analysis state; the functions are
# looked up when called, so one replaced on the module is the one called
_ESTIMATES: dict[str, Callable[[AnalysisState], float]] = {
    "naive": lambda state: estimate_naive(state.s, state.m),
    "bias_subtracted": lambda state: estimate_bias_subtracted(state).value,
    "bias_adjusted": lambda state: estimate_bias_adjusted(state).value,
    "umvue": lambda state: estimate_umvue(state),
    "umvcue": lambda state: estimate_umvcue(state),
    "conditional": lambda state: estimate_conditional(state),
    "median_unbiased": lambda state: estimate_median_unbiased(state).value,
}


def point_estimates(state: AnalysisState, names: Sequence[str]) -> dict[str, float]:
    """The named fields of EstimateSet for one analysis state, in the order
    named. Only these are computed; an unknown name raises ValueError first."""
    unknown = ", ".join(name for name in names if name not in _ESTIMATES)
    if unknown:
        raise ValueError(f"unknown estimator(s) {unknown}; choose from {', '.join(_ESTIMATES)}")
    return {name: _ESTIMATES[name](state) for name in names}


def estimate_all(state: AnalysisState) -> EstimateSet:
    """All seven point estimates for one analysis state."""
    return EstimateSet(**point_estimates(state, list(_ESTIMATES)))


_ESTIMATE_EQUATIONS: dict[str, Callable[[AnalysisState], Optional[Equation]]] = {
    "bias_adjusted": _bias_adjusted_equation,
    "median_unbiased": _median_unbiased_equation,
    "conditional": _conditional_score_equation,
}


def estimate_equation(name: str, state: AnalysisState) -> Optional[Equation]:
    """The equation (f, target) whose root in p is the named field of
    EstimateSet for the state, with f monotone; None for a closed-form or
    exact estimate. The bias-adjusted and median-unbiased estimates are
    solve_monotone_root(f, target, ROOT_TOL); the conditional MLE is its
    search's value, within 2e-8 of the root."""
    builder = _ESTIMATE_EQUATIONS.get(name)
    return None if builder is None else builder(state)


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


def _jt_equations(
    s: int, m: int, design: TwoStageDesign, half: float
) -> tuple[Equation, Equation]:
    """q_value = alpha/2 for the lower limit and q_lower_value = alpha/2 for
    the upper; q_value rises and q_lower_value falls with p."""
    upper, lower = _q_sums(s, m, design)
    return (upper, half), (lower, half)


def _solve_interval(
    equations: tuple[Equation, Equation], level: float, method: str
) -> ConfidenceInterval:
    """The interval whose limits solve the equations at ROOT_TOL; a limit
    whose target its sum never reaches is the boundary on its side."""
    low, upp = (solve_monotone_root(*equation, tol=ROOT_TOL) for equation in equations)
    low_val = 0.0 if low.out_of_bracket else low.value
    upp_val = 1.0 if upp.out_of_bracket else upp.value
    return ConfidenceInterval(low=low_val, upp=upp_val, level=level, method=method)


def ci_jennison_turnbull(state: AnalysisState, level: float = 0.95) -> ConfidenceInterval:
    """Stagewise-ordering (adjusted) exact interval.

    The lower limit equates the outcome's upper-tail probability (the q
    function) to half the error budget, the upper limit its
    outcome-inclusive lower-tail probability. Outcomes whose tail never
    reaches the target map to the corresponding boundary. This tail pairing
    is what keeps exact coverage at or above the nominal level; pairing both
    limits with roots of q alone does not.
    """
    half = _check_level(level) / 2.0
    return _solve_interval(_jt_equations(state.s, state.m, state.analysis_design, half), level, "JT")


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

    estimates = _exact_row("umvue", TwoStageDesign(a1=a1, a=a1, n1=n1, n=n))
    rank = {value: r for r, value in enumerate(sorted(set(estimates)))}
    return array("H", [rank[value] for value in estimates])


def _midp_equations(s: int, design: TwoStageDesign, half: float) -> tuple[Equation, Equation]:
    """The mid-p tail of the outcome with total s = alpha/2 for the lower
    limit and 1 - alpha/2 for the upper; the tail rises with p.

    Each outcome weighs 1 above the observed UMVUE rank, 1/2 at it and 0
    below it. The UMVUE rises with s within each stage, so the outcomes of
    nonzero weight are a suffix of each stage's totals."""
    ranks = _umvue_ranks(design.a1, design.n1, design.n)
    observed = ranks[s]
    runs = []
    for lo, hi in ((0, design.a1 + 1), (design.a1 + 1, design.n + 1)):
        start = bisect_left(ranks, observed, lo, hi)
        if start < hi:
            runs.append((start, hi, [0.5 if r == observed else 1.0 for r in ranks[start:hi]]))
    tail = RowSum(design.row_key, runs)
    return (tail, half), (tail, 1.0 - half)


def ci_midp(state: AnalysisState, level: float = 0.95) -> ConfidenceInterval:
    """Mid-p interval under the UMVUE ordering of terminal outcomes."""
    half = _check_level(level) / 2.0
    return _solve_interval(_midp_equations(state.s, state.analysis_design, half), level, "midp")


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
    # 0 < s < m: each tail runs from 0 to 1, so both targets are bracketed
    return _solve_interval(_cp_equations(s, m, half), level, "CP")


def _cp_equations(s: int, m: int, half: float) -> Optional[tuple[Equation, Equation]]:
    """P(X >= s) = alpha/2 for the lower limit and P(X <= s) = alpha/2 for
    the upper, X ~ Bin(m, p), at 0 < s < m; the first tail rises with p and
    the second falls. None at s = 0 and s = m, whose limits are closed
    forms."""
    if s in (0, m):
        return None
    row = (m, m, m)
    upper = RowSum(row, ((s, m + 1, None),), True, partial(binom_upper_tail, s, m))
    lower = RowSum(row, ((0, s + 1, None),), True, partial(binom_cdf, s, m))
    return (upper, half), (lower, half)


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


def interval_equations(
    method: str, s: int, m: int, level: float, design: Optional[TwoStageDesign] = None
) -> Optional[tuple[Equation, Equation]]:
    """The equations (f, target) whose roots in p are the lower and upper
    limits of the named method's interval for s successes in m, with each
    f monotone; None for a closed-form interval (Wald, Wilson, and CP at
    s = 0 and s = m). JT and mid-p read the analysis design, which ends
    the trial at m with total s; each limit is solve_monotone_root(f,
    target, ROOT_TOL), and a target the sum never reaches puts the limit at
    the boundary."""
    half = _check_level(level) / 2.0
    name = _ci_method(method)
    if name == "CP":
        return _cp_equations(s, m, half)
    if name == "JT":
        return _jt_equations(s, m, design, half)
    if name == "midp":
        return _midp_equations(s, design, half)
    return None


def coverage(method: str, p: float, design: TwoStageDesign, level: float = 0.95) -> float:
    """Exact probability that the named method's interval contains p.
    Interval membership uses closed endpoints.

    JT, mid-p and CP coverage is found by test inversion, with no root
    solve: an interval contains p exactly when the sums of its equations
    (interval_equations) on the row at p clear the targets its limits were
    solved for. The outcomes that pass form a window in s (in UMVUE rank for
    mid-p, and one per stage for CP), whose ends a binary search finds. This
    agrees with interval_for_outcome except where p lies within ROOT_TOL of
    a solved limit, and there it is the exact answer. CP at s = 0 and s = n,
    Wald and Wilson check their closed-form intervals.
    """
    name = _ci_method(method)
    row = terminal_pmf(design, p)
    half = _check_level(level) / 2.0
    if name == "JT":
        jt = lambda k: _jt_equations(k, design.size_at(k), design, half)
        covered: Iterable[int] = _tail_window(row, 0, len(row), jt)
    elif name == "midp":
        covered = _midp_covered(row, design, half)
    elif name == "CP":
        covered = _cp_covered(p, design, level, half)
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


def _midp_covered(row: list[float], design: TwoStageDesign, half: float) -> list[int]:
    """Totals whose mid-p interval contains p, for the terminal row at p. The
    tail falls as the observed UMVUE rank rises: in rank order, a window."""
    ranks = _umvue_ranks(design.a1, design.n1, design.n)
    order = sorted(range(len(row)), key=ranks.__getitem__)
    tail = lambda i: _midp_equations(order[i], design, half)[0][0].on(row)
    window = _window(0, len(order), lambda i: tail(i) <= 1.0 - half, lambda i: tail(i) < half)
    return order[window.start : window.stop]


def _tail_window(
    row: list[float], lo: int, hi: int, equations: Callable[[int], tuple[Equation, Equation]]
) -> range:
    """The k in range(lo, hi) whose interval contains p, for the row at p and
    the JT or CP equations of each k: a tail that rises with p for the lower
    limit and one that falls for the upper, each at or above its target at p.
    As k grows, the first tail falls and the second rises."""

    def cleared(k: int, limit: int) -> bool:
        f, target = equations(k)[limit]
        return f.on(row) >= target

    return _window(lo, hi, lambda k: cleared(k, 1), lambda k: not cleared(k, 0))


def _cp_covered(p: float, design: TwoStageDesign, level: float, half: float) -> list[int]:
    """Totals whose CP interval contains p: a window of each stage's
    totals 0 < s < m on its Bin(m, p) row, and s = 0 and s = n by their
    closed-form limits."""
    a1, n1, n = design.a1, design.n1, design.n
    covered = [s for s, m in ((0, n1), (n, n)) if ci_clopper_pearson(s, m, level).contains(p)]
    covered += _tail_window(binom_pmf_row(n1, p), 1, a1 + 1, lambda k: _cp_equations(k, n1, half))
    covered += _tail_window(binom_pmf_row(n, p), a1 + 1, n, lambda k: _cp_equations(k, n, half))
    return covered
