"""Two-stage single-arm designs: representation, exact operating
characteristics, and optimal design search.

A design is indexed by (a1, a, n1, n): stop for futility after n1 patients
if at most a1 successes are seen, otherwise continue to n patients and
reject the null hypothesis if the total success count exceeds a.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, repeat
from operator import add, mul
from typing import Iterator, NamedTuple, Optional

from .binomial import MAX_SAMPLE_SIZE, binom_cdf, binom_pmf_row


class InfeasibleDesignError(ValueError):
    """No design satisfies the error-rate constraints within n_max."""

    def __init__(self, message: str, binding_constraint: str):
        super().__init__(message)
        self.binding_constraint = binding_constraint


@dataclass(frozen=True)
class DesignTargets:
    """Hypothesis-test targets: H0: p <= p0, sized at p0, powered at p1."""

    p0: float
    p1: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p0 < self.p1 <= 1.0:
            raise ValueError(f"need 0 <= p0 < p1 <= 1, got p0={self.p0}, p1={self.p1}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")


@dataclass(frozen=True)
class TwoStageDesign:
    """Boundaries with 0 <= a1 < n1 < n and a1 <= a < n, and n at most
    MAX_SAMPLE_SIZE.

    Construction raises ValueError for any other boundaries or size, so
    every instance is valid, whether built directly, parsed, or derived
    with dataclasses.replace, with_targets or with_final_n.
    """

    a1: int
    a: int
    n1: int
    n: int
    targets: Optional[DesignTargets] = None

    @property
    def n2(self) -> int:
        return self.n - self.n1

    def __post_init__(self) -> None:
        problems = []
        if self.a1 < 0:
            problems.append("a1 must be >= 0")
        if not self.a1 < self.n1:
            problems.append("a1 must be < n1")
        if not self.n1 < self.n:
            problems.append("n1 must be < n")
        if not self.a1 <= self.a:
            problems.append("a must be >= a1")
        if not self.a < self.n:
            problems.append("a must be < n")
        if self.n > MAX_SAMPLE_SIZE:
            problems.append(f"n exceeds the cap of {MAX_SAMPLE_SIZE}")
        if problems:
            raise ValueError(f"invalid design {self.compact()}: " + "; ".join(problems))

    def compact(self) -> str:
        return f"{self.a1}/{self.n1}, {self.a}/{self.n}"

    @classmethod
    def from_compact(cls, text: str, targets: Optional[DesignTargets] = None) -> "TwoStageDesign":
        """Parse the compact form "a1/n1, a/n"."""
        match = re.fullmatch(
            r"\s*(\d+)\s*/\s*(\d+)\s*,\s*(\d+)\s*/\s*(\d+)\s*", text
        )
        if match is None:
            raise ValueError(f"cannot parse design {text!r}; expected 'a1/n1, a/n'")
        a1, n1, a, n = (int(g) for g in match.groups())
        return cls(a1=a1, a=a, n1=n1, n=n, targets=targets)

    def to_json_dict(self) -> dict:
        out = {"a1": self.a1, "a": self.a, "n1": self.n1, "n": self.n}
        if self.targets is not None:
            out.update(
                p0=self.targets.p0,
                p1=self.targets.p1,
                alpha=self.targets.alpha,
                beta=self.targets.beta,
            )
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "TwoStageDesign":
        targets = None
        if all(key in data for key in ("p0", "p1", "alpha", "beta")):
            targets = DesignTargets(
                p0=data["p0"], p1=data["p1"], alpha=data["alpha"], beta=data["beta"]
            )
        return cls(a1=data["a1"], a=data["a"], n1=data["n1"], n=data["n"], targets=targets)

    def size_at(self, s: int) -> int:
        """The sample size at which a trial with s total successes ends: n1
        if s <= a1 (it stops for futility), otherwise n. Each total s in
        0..n names one terminal outcome (s, size_at(s)), and the stagewise
        order of the outcomes is the order of s."""
        return self.n1 if s <= self.a1 else self.n

    def with_targets(self, targets: DesignTargets) -> "TwoStageDesign":
        return dataclasses.replace(self, targets=targets)

    def with_final_n(self, m: int) -> "TwoStageDesign":
        """The design as analysed at a realised final sample size m > n1:
        n becomes m, and an a that m cannot exceed becomes a1. No analysis
        at a realised size reads a, and construction caps m like any n."""
        if m <= self.n1:
            raise ValueError(f"final sample size {m} must exceed n1={self.n1}")
        return dataclasses.replace(self, a=self.a if self.a < m else self.a1, n=m)


@dataclass(frozen=True)
class OperatingCharacteristics:
    alpha_attained: float
    power_attained: float
    pet_p0: float
    pet_p1: float
    en_p0: float
    en_p1: float

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def terminal_pmf(design: TwoStageDesign, p: float) -> list[float]:
    """Exact distribution of the design's terminal outcomes under p.

    ``row[s]`` is P(the trial ends with s total successes) for s = 0..n,
    which it does at sample size TwoStageDesign.size_at(s). Rejection
    probabilities, q-values, interval tails, bias and coverage are all
    prefixes, suffixes or weighted sums of this one row. A trial analysed
    at a realised final size m passes design.with_final_n(m).

    Every path that continues and ends with s successes has probability
    p^s (1 - p)^(n - s), so row[s] = c_s p^s (1 - p)^(n - s) for s > a1,
    with the path count c_s of _log_counts, which does not depend on p.
    The design's own cap bounds the row.
    """
    n = design.n
    row = binom_pmf_row(design.n1, p, 0, design.a1 + 1)
    if 0.0 < p < 1.0:
        log_p, log_q, exp = math.log(p), math.log1p(-p), math.exp
        row += [
            exp(log_c + s * log_p + (n - s) * log_q)
            for s, log_c in enumerate(_log_counts(design.a1, design.n1, n), start=design.a1 + 1)
        ]
    else:
        row += [0.0] * (n - design.a1)
        if p == 1.0:
            row[n] = 1.0
    return row


@lru_cache(maxsize=256)
def _log_counts(a1: int, n1: int, n_final: int) -> tuple[float, ...]:
    """log c_s for s = a1 + 1..n_final, where c_s is the number of ways to
    continue past a1 and end with s total successes:
    c_s = sum over i > a1 of C(n1, i) C(n_final - n1, s - i), which is
    positive for exactly these s.

    The counts are exact integers, the coefficients of
    (sum over i > a1 of C(n1, i) x^i) (1 + x)^(n_final - n1), built by
    Pascal's rule; math.log takes an int of any size, so counts beyond the
    float range (C(2000, 1000) is about 1e600) never overflow. The row is
    keyed by design, not by p, so every p of a root solve reads one row.
    At most 256 rows of at most MAX_SAMPLE_SIZE floats are kept, about
    32 bytes each (tuple slot and float): under 3.5 MB for rows of a few
    hundred, 41 MB for rows at the cap.
    """
    row = [math.comb(n1, i) for i in range(a1 + 1, n1 + 1)]
    for _ in range(n_final - n1):
        row = list(map(add, row + [0], [0] + row))
    return tuple(map(math.log, row))


def continuation_tail(row: list[float], s: int) -> float:
    """P(the trial ends at or above total s in the stagewise order), a
    suffix of terminal_pmf's row; for s > a1, P(continue and end with at
    least s total successes)."""
    return min(1.0, math.fsum(row[s:]))


def terminal_distribution(s: int, stage: int, p: float, design: TwoStageDesign) -> float:
    """Probability of ending the given stage with exactly s total successes.

    This is ``row[s]`` of terminal_pmf when s ends the trial at that stage,
    and 0.0 where the trial cannot end that way: s < 0, a stage-1 s above
    a1 (the trial continues) or a stage-2 s at or below a1. A trial
    analysed at a realised final size m passes design.with_final_n(m).
    """
    if stage == 1:
        if s > design.n1:
            raise ValueError(f"stage-1 successes {s} exceed n1={design.n1}")
    elif stage == 2:
        if s > design.n:
            raise ValueError(f"successes {s} exceed final sample size {design.n}")
    else:
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    if s < 0 or (design.size_at(s) == design.n1) != (stage == 1):
        return 0.0
    return terminal_pmf(design, p)[s]


def pet(p: float, design: TwoStageDesign) -> float:
    """Probability of early termination for futility at stage 1."""
    return binom_cdf(design.a1, design.n1, p)


def expected_sample_size(p: float, design: TwoStageDesign) -> float:
    return design.n1 + (1.0 - pet(p, design)) * (design.n - design.n1)


def reject_prob(p: float, design: TwoStageDesign) -> float:
    """Probability that the trial continues and the total exceeds a.

    The same tail of the same kernel as the stage-2 p-value, so comparing
    a boundary p-value against the attained type-I error never splits on a
    rounding difference.
    """
    return continuation_tail(terminal_pmf(design, p), design.a + 1)


def operating_characteristics(
    design: TwoStageDesign, targets: Optional[DesignTargets] = None
) -> OperatingCharacteristics:
    if targets is None:
        targets = design.targets
    if targets is None:
        raise ValueError("design targets are required to compute operating characteristics")
    return OperatingCharacteristics(
        alpha_attained=reject_prob(targets.p0, design),
        power_attained=reject_prob(targets.p1, design),
        pet_p0=pet(targets.p0, design),
        pet_p1=pet(targets.p1, design),
        en_p0=expected_sample_size(targets.p0, design),
        en_p1=expected_sample_size(targets.p1, design),
    )


class _Tables(NamedTuple):
    """Tables of one Bin(m, p) pmf row, each summed sequentially."""

    pmf: list[float]
    # sf[k] = P(X >= k), accumulated from the top and clipped at 1.0;
    # sf[m + 1] = 0.0
    sf: list[float]
    # cdf[k] = P(X <= k), accumulated from the bottom; only EN(p0) reads
    # it, so it is None for the p1 row
    cdf: Optional[list[float]]


def _tables(m: int, p: float, cdf: bool) -> _Tables:
    pmf = binom_pmf_row(m, p)
    sf = [min(s, 1.0) for s in accumulate(reversed(pmf))]
    sf.reverse()
    sf.append(0.0)
    return _Tables(pmf, sf, list(accumulate(pmf)) if cdf else None)


def _head(pmf1: list[float], sf2: list[float]) -> list[float]:
    """Running sums of the tail terms that read sf2[0], in summation order:
    head[j] = pmf1[n1] * sf2[0] + ... + pmf1[n1 - j] * sf2[0]."""
    return list(accumulate(map(mul, pmf1[:0:-1], repeat(sf2[0]))))


def _tail(pmf1: list[float], sf2: list[float], head: list[float], a1: int, a: int) -> float:
    """R(a1, a) = P(continue past a1 and total successes > a) for a >= a1,
    from the stage-1 pmf row, the stage-2 sf table of one p and their head.

    The sum runs over i = n1 down to a1 + 1 of pmf1[i] * sf2[k], with
    k = a - i + 1 clipped to [0, n2 + 1], added one term at a time in that
    order. The terms with k <= 0 come first, so head holds their sum; the
    terms with k > n2 are exactly 0.0 and come last, so they are left out.
    reduce adds plainly; sum() compensates float sums from Python 3.12 on.
    """
    n1, n2 = len(pmf1) - 1, len(sf2) - 2
    lo = max(a1 + 1, a + 1 - n2)
    if a < n1:
        return reduce(add, map(mul, pmf1[a : lo - 1 : -1], sf2[1 : a - lo + 2]), head[n1 - a - 1])
    return reduce(add, map(mul, pmf1[n1 : lo - 1 : -1], sf2[a - n1 + 1 : a - lo + 2]), 0.0)


def _np_power(n: int, p0: float, p1: float, level: float) -> float:
    """Power at p1 of the randomised UMP level-`level` test of p0 against
    p1 on n Bernoulli observations: reject on the largest totals first,
    since their likelihood ratio is the largest, and randomise on the
    total that would overshoot the level."""
    pmf0, pmf1 = binom_pmf_row(n, p0), binom_pmf_row(n, p1)
    size = power = 0.0
    for k in range(n, -1, -1):
        if size + pmf0[k] > level:
            return power + (level - size) / pmf0[k] * pmf1[k]
        size += pmf0[k]
        power += pmf1[k]
    return power


def _np_lower_bound(targets: DesignTargets, n_max: int) -> int:
    """The smallest n that can hold a feasible design, or n_max + 1 if no
    n <= n_max can.

    A design with maximum size n is a test on at most n observations, so
    its power at p1 is at most that of the randomised UMP (Neyman-Pearson)
    test on n observations at the same level, and that power does not fall
    as n grows. The bound is the first n at which the UMP power at level
    alpha * (1 + 1e-9) reaches (1 - beta) - 1e-9.

    The margins make float rounding harmless. The pmf terms, and so the
    float sums that decide feasibility and the UMP power itself, are off by
    a few 1e-11 relative at n = 10^4 and about 1e-13 at Simon's sizes. A
    design the float sums accept at n therefore has a true size below the
    widened level and a true power within 1e-11 of 1 - beta, and the true
    UMP power at every n' >= n is at least that. So the computed UMP power
    clears the lowered target at every n' from the first float-feasible n
    on, however it wobbles in n elsewhere. The search below keeps an n that
    misses the target (or 0) at lo and one that reaches it at hi, so the n
    it returns is no larger than the first float-feasible one. Galloping
    then bisection take O(log n) pmf-row pairs whatever n_max is.
    """
    p0, p1 = targets.p0, targets.p1
    level, target = targets.alpha * (1.0 + 1e-9), (1.0 - targets.beta) - 1e-9

    def reaches(n: int) -> bool:
        return _np_power(n, p0, p1, level) >= target

    lo, hi = 0, 1  # reaches(lo) is false or lo == 0; reaches(hi) is true
    while not reaches(hi):
        if hi >= n_max:
            return n_max + 1
        lo, hi = hi, min(2 * hi, n_max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _frontier(
    targets: DesignTargets, n_max: int
) -> Iterator[tuple[float, int, TwoStageDesign]]:
    """(en_p0, n, design) for each n whose smallest-EN(p0) feasible design
    has an EN(p0) no larger than that of every smaller n, in increasing n;
    at each n ties go to the smaller n1, then the smaller a1.

    For each (n1, a1) only the smallest a controlling alpha is kept, as
    that choice maximises power for the pair. The first n yielded is the
    minimax n, the minimum over (en_p0, n) is the null-optimal design, and
    every n left out is strictly dominated by a smaller n with a smaller
    EN, so it lies off the admissible hull. Raises ValueError for an n_max
    below 2 or above MAX_SAMPLE_SIZE, before it builds any row, and
    InfeasibleDesignError, naming the binding constraint, if no n <= n_max
    has a feasible design.

    Every float that decides feasibility or EN is summed in the same order
    as an n1 x n matrix of cumulative sums would be, and each prune below
    skips only candidates that those floats rule out. That holds for the
    range of n too. The walk starts at the Neyman-Pearson bound
    _np_lower_bound, below which no n has a float-feasible design. Once a
    design is found, it stops after the first n at which every (n1, a1)
    the power prune admits fails the EN pre-check: EN = n1 + (1 - cdf0) n2
    does not fall as n grows, so no later n could be yielded either.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    if n_max > MAX_SAMPLE_SIZE:
        raise ValueError(f"n_max {n_max} exceeds the cap of {MAX_SAMPLE_SIZE}")
    p0, p1, alpha = targets.p0, targets.p1, targets.alpha
    power = 1.0 - targets.beta
    # rows[m] holds the Bin(m, p0) and Bin(m, p1) tables, built when first
    # read and dropped once no later n can read them
    rows: dict[int, tuple[_Tables, _Tables]] = {}

    def row(m: int) -> tuple[_Tables, _Tables]:
        if m not in rows:
            rows[m] = (_tables(m, p0, cdf=True), _tables(m, p1, cdf=False))
        return rows[m]

    bound = math.inf  # the smallest EN(p0) at any smaller n
    for n in range(_np_lower_bound(targets, n_max), n_max + 1):
        best = None  # (en_p0, a1, a, n1)
        # some candidate at this n passed the EN pre-check, or may pass it
        # at a larger n
        live = False
        for n1 in range(1, n):
            # EN >= n1 up to cdf rounding above 1.0, a few ulps times n2,
            # so no larger n1 can reach the smallest EN so far
            if n1 > min(bound, best[0] if best else bound) + 1:
                break
            n2 = n - n1
            first0, first1 = row(n1)
            a_hi = head0 = head1 = None
            for a1 in range(n1):
                # the power tail is at most the stage-1 suffix sf1[a1 + 1]
                # term by term (sf2 <= 1), and that suffix does not grow
                # with a1
                if first1.sf[a1 + 1] < power:
                    break
                en_p0 = n1 + (1.0 - first0.cdf[a1]) * n2
                if en_p0 > bound:
                    # EN does not fall as n grows unless cdf0 rounded above
                    # 1.0 (float rounding is monotone)
                    live = live or first0.cdf[a1] > 1.0
                    continue
                live = True
                # EN does not depend on a; a tie at this n goes to the
                # candidate found first
                if best is not None and en_p0 >= best[0]:
                    continue
                if a_hi is None:
                    second0, second1 = row(n2)
                    # R0(a1, n - 1) has the one nonzero term
                    # pmf1[n1] * sf2[n2], whatever a1 is
                    if first0.pmf[n1] * second0.sf[n2] > alpha:
                        break
                    head0 = _head(first0.pmf, second0.sf)
                    head1 = _head(first1.pmf, second1.sf)
                    lo, hi = a1, n - 1
                else:
                    # R0 does not grow with a1 either, so the a found for a
                    # smaller a1 still controls alpha, and it is nearly
                    # always the smallest such a here too: test the a just
                    # below it before bisecting
                    lo, hi = a1, max(a1, a_hi)
                    if lo < hi and _tail(first0.pmf, second0.sf, head0, a1, hi - 1) > alpha:
                        lo = hi
                # R0 does not grow with a: bisect for the smallest a with
                # R0 <= alpha
                while lo < hi:
                    mid = (lo + hi) // 2
                    if _tail(first0.pmf, second0.sf, head0, a1, mid) <= alpha:
                        hi = mid
                    else:
                        lo = mid + 1
                a_hi = lo
                if _tail(first1.pmf, second1.sf, head1, a1, lo) < power:
                    continue
                best = (en_p0, a1, lo, n1)
        if best is not None:
            en_p0, a1, a, n1 = best
            yield en_p0, n, TwoStageDesign(a1=a1, a=a, n1=n1, n=n, targets=targets)
            bound = en_p0
        elif not live and n > bound + 1:
            # every (n1, a1) the power prune admits failed the EN pre-check,
            # and a larger n adds no n1 <= bound + 1, so no later n can
            # yield
            break
        if bound < math.inf:
            # later n read stage-1 rows m <= k and stage-2 rows m > n - k
            k = int(bound) + 1
            for m in [m for m in rows if k < m <= n - k]:
                del rows[m]
    if bound == math.inf:
        # R0 is smallest at a1 = n1 - 1, a = n - 1, where it is the one
        # term pmf1[n1] * sf2[n2], and sf2[n2] is pmf2[n2] clipped at 1.0.
        # Multiplying by a non-negative float is monotone, so the smallest
        # clipped sf2 over n2 <= n_max - n1 decides each n1: O(n_max).
        last = [binom_pmf_row(m, p0, m)[0] for m in range(n_max)]
        prefix_min = list(accumulate((min(x, 1.0) for x in last), min))
        alpha_ok = any(
            last[n1] * prefix_min[n_max - n1] <= alpha for n1 in range(1, n_max)
        )
        constraint = "power" if alpha_ok else "type-I error"
        raise InfeasibleDesignError(
            f"no feasible design with n <= {n_max}; binding constraint: {constraint}",
            binding_constraint=constraint,
        )


def search_designs(
    targets: DesignTargets,
    criterion: str = "null-optimal",
    n_max: int = 150,
) -> TwoStageDesign:
    """Find the optimal design under the given criterion.

    criterion: "null-optimal" (alias "optimal") minimises the expected
    sample size at p0; "minimax" minimises the maximal sample size n.
    Ties are broken by the other quantity, then by smaller n1.
    """
    crit = criterion.lower().replace("_", "-")
    if crit == "optimal":
        crit = "null-optimal"
    if crit not in ("null-optimal", "minimax"):
        raise ValueError(f"unknown criterion {criterion!r}")
    frontier = _frontier(targets, n_max)
    if crit == "minimax":
        return next(frontier)[2]
    return min(frontier, key=lambda t: t[:2])[2]


@dataclass(frozen=True)
class AdmissibleEntry:
    """A design minimising w*n + (1-w)*EN(p0) for w in [w_low, w_high]."""

    w_low: float
    w_high: float
    design: TwoStageDesign


def admissible_set(targets: DesignTargets, n_max: int = 150) -> list[AdmissibleEntry]:
    """Designs on the lower convex hull of the feasible (n, EN(p0)) set.

    Endpoints are the null-optimal (w=0) and minimax (w=1) designs. Each
    design carries the weight interval on which it minimises the weighted
    objective w*n + (1-w)*EN(p0).
    """
    # each candidate is a line f(w) = w*n + (1-w)*EN; walk the lower
    # envelope from w = 0 (null-optimal) to w = 1 (minimax)
    candidates = list(_frontier(targets, n_max))
    entries: list[AdmissibleEntry] = []
    en_cur, n_cur, d_cur = min(candidates, key=lambda t: (t[0], t[1]))
    w_cur = 0.0
    while True:
        takeover = None  # (w_cross, n, en, design)
        for en, n, d in candidates:
            if n >= n_cur or en <= en_cur:
                continue
            w_cross = (en - en_cur) / ((en - en_cur) + (n_cur - n))
            if w_cross >= 1.0:
                continue
            if takeover is None or (w_cross, n) < (takeover[0], takeover[1]):
                takeover = (w_cross, n, en, d)
        if takeover is None:
            entries.append(AdmissibleEntry(w_low=w_cur, w_high=1.0, design=d_cur))
            break
        w_cross, n, en, d = takeover
        if w_cross > w_cur:
            entries.append(AdmissibleEntry(w_low=w_cur, w_high=w_cross, design=d_cur))
            w_cur = w_cross
        en_cur, n_cur, d_cur = en, n, d
    return entries
