"""Exact binomial kernel: pmf/cdf, monotone root finding, normal quantile.

All probabilities are computed in log-space with compensated summation so
that double precision suffices for every sample size the package analyses:
up to MAX_SAMPLE_SIZE, far above any phase II trial.

The bias-adjusted and median-unbiased estimates and the exact interval
limits are roots of such sums, found by solve_monotone_root with the ITP
method: within one step of bisection's worst case (at most 37 evaluations
of the target at the package's tolerance of 1e-10) and much faster on
smooth targets. Its bracket contract is bisection's: the result is the
midpoint of a final bracket no wider than the tolerance across which the
target is crossed.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import add, mul
from statistics import NormalDist
from typing import Callable, NamedTuple, Optional, Sequence

_STD_NORMAL = NormalDist()

# Largest sample size the binomial kernel, the terminal-outcome kernel, the
# design search's n_max, the deviation analyses and the audit accept. It
# bounds the work and memory of one analysis: a row of exact path counts at
# this size takes 2 to 2.6 s to build and 2.6 MB to keep as integers, and the
# one store of prepared rows (_CountRows) holds at most 2^16 entries, one per
# total. An entry above a1 takes at most 740 bytes with its count, an entry
# without a count 40: under 51 MB in all.
MAX_SAMPLE_SIZE = 5000

# Largest number of row entries _COUNT_ROWS keeps, summed over its rows.
COUNT_ROW_BUDGET = 1 << 16

# (a1, n1, n_final), the key of a design's terminal row; the Bin(m, p) row,
# of a trial that never continues, is (m, m, m)
RowKey = tuple[int, int, int]

# one prepared row: the path counts c_s for s = a1 + 1..n_final; the p-free
# exponent e_s for every s = 0..n_final; the shared table _totals, whose
# entry s is float(s); and float(size_at(s) - s) for every s
_CountRow = tuple[tuple[int, ...], list[float], list[float], list[float]]


@lru_cache(maxsize=1)
def _log_factorials() -> list[float]:
    """lgamma(k + 1) = log k! for k = 0..MAX_SAMPLE_SIZE, built on first use.

    One list of MAX_SAMPLE_SIZE + 1 floats, about 32 bytes each (list slot
    and float): 160 KB, kept for the life of the process.
    """
    return [math.lgamma(k + 1) for k in range(MAX_SAMPLE_SIZE + 1)]


@lru_cache(maxsize=1)
def _totals() -> list[float]:
    """float(k) for k = 0..MAX_SAMPLE_SIZE, built on first use: the
    multipliers of log p and log(1 - p) in every prepared row, which share
    these float objects. 5001 floats, about 32 bytes each: 160 KB."""
    return [float(k) for k in range(MAX_SAMPLE_SIZE + 1)]


def _prepared_row(a1: int, n1: int, n_final: int) -> _CountRow:
    """The prepared row of the key (a1, n1, n_final): e_s is
    lf[n1] - lf[s] - lf[n1 - s] = log C(n1, s) for s <= a1 and log c_s
    above, with the path count c_s built exactly by Pascal's rule; math.log
    takes an int of any size, so counts beyond the float range (C(2000,
    1000) is about 1e600) never overflow. The key (m, m, m) has no counts.
    The multiplier lists hold floats of _totals, not copies, and every list
    is built at its exact length."""
    row = [math.comb(n1, i) for i in range(a1 + 1, n1 + 1)]
    for _ in range(n_final - n1):
        row = list(map(add, row + [0], [0] + row))
    lf, totals = _log_factorials(), _totals()
    lf_n1 = lf[n1]
    exponents = [lf_n1 - lf[s] - lf[n1 - s] for s in range(a1 + 1)] + list(map(math.log, row))
    # size_at(s) - s: n1 - s for s = 0..a1, then n_final - s above a1
    rests = totals[n1 - a1 : n1 + 1][::-1] + totals[: n_final - a1][::-1]
    return tuple(row), exponents, totals, rests


class _CountRows:
    """The prepared rows in use, keyed by (a1, n1, n_final), not by p, in
    least recently used order.

    A row is built on its first lookup and holds n_final + 1 entries, one
    for each total s. Rows are evicted, least recently used first, only
    when the entries kept would exceed ``budget``. An entry above a1
    holds its count, at most an int no larger than C(MAX_SAMPLE_SIZE, 2500),
    692 bytes, with its 8-byte tuple slot, and every entry holds its
    exponent, a 24-byte float in an 8-byte list slot, and an 8-byte slot
    for its multiplier of log(1 - p); the multipliers themselves are shared
    (_totals). So an entry takes at most 740 bytes, one without a count 40,
    and the entries of COUNT_ROW_BUDGET at most 48.5 MB. A row adds under
    600 bytes of containers and key, and as n (n - 1) / 2 designs and one
    Bin row have n + 1 entries, the budget holds at most 3,100 rows: under
    51 MB in all. ``hits`` and ``misses`` count the lookups that found and
    built a row.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.rows: OrderedDict[RowKey, _CountRow] = OrderedDict()
        self.entries = self.hits = self.misses = 0

    def get(self, key: RowKey) -> _CountRow:
        rows = self.rows
        found = rows.get(key)
        if found is not None:
            self.hits += 1
            rows.move_to_end(key)
            return found
        self.misses += 1
        found = _prepared_row(*key)
        self.entries += len(found[1])
        while self.entries > self.budget and rows:
            self.entries -= len(rows.popitem(last=False)[1][1])
        rows[key] = found
        return found

    def clear(self) -> None:
        self.rows.clear()
        self.entries = self.hits = self.misses = 0


_COUNT_ROWS = _CountRows(COUNT_ROW_BUDGET)


def path_counts(a1: int, n1: int, n_final: int) -> tuple[int, ...]:
    """c_s for s = a1 + 1..n_final: the number of ways to continue past a1
    and end with s total successes, sum over i > a1 of
    C(n1, i) C(n_final - n1, s - i), positive for exactly these s. Built
    exactly by Pascal's rule and kept in _COUNT_ROWS with the rest of the
    design's prepared row. As c_s <= C(n_final, s), the counts take no
    more bytes than the binomial coefficients of n_final: 11 KB at
    n_final = 200, 2.6 MB (built in 2 to 2.6 s) at MAX_SAMPLE_SIZE."""
    return _COUNT_ROWS.get((a1, n1, n_final))[0]


def _row_terms(key: RowKey, p: float, start: int, stop: int) -> list[float]:
    """Terms start..stop - 1 of the row of key at p: the one term formula,
    exp(e_s + s log p + (size_at(s) - s) log(1 - p)), so a term is the same
    float wherever it is read. p = 0 puts all the mass on s = 0, and p = 1
    on s = n_final."""
    if not 0.0 < p < 1.0:
        _check_trial(key[2], p)
        mode = 0 if p == 0.0 else key[2]
        return [1.0 if s == mode else 0.0 for s in range(start, stop)]
    _, exponents, totals, rests = _COUNT_ROWS.get(key)
    log_p, log_q, exp = math.log(p), math.log1p(-p), math.exp
    return [
        exp(c + s * log_p + f * log_q)
        for c, s, f in zip(exponents[start:stop], totals[start:stop], rests[start:stop])
    ]


def binom_pmf_row(m: int, p: float, start: int = 0, stop: int | None = None) -> list[float]:
    """P(X = s) for X ~ Bin(m, p) and s in range(start, stop), with
    0 <= start <= stop <= m + 1; stop defaults to m + 1. Raises ValueError
    for m above MAX_SAMPLE_SIZE or terms outside 0..m.

    The terms of the prepared row (m, m, m). binom_pmf caches single terms
    of it; the terms are not cached by p, since the tails are mostly taken
    at root-solve points that never recur.
    """
    _check_trial(m, p)
    stop = m + 1 if stop is None else stop
    if start < 0 or stop > m + 1:
        raise ValueError(f"terms {start}..{stop - 1} are outside 0..{m}")
    return _row_terms((m, m, m), p, start, stop)


@lru_cache(maxsize=1 << 20)
def binom_pmf(s: int, m: int, p: float) -> float:
    """P(X = s) for X ~ Bin(m, p)."""
    _check_trial(m, p)
    if s > m:
        raise ValueError(f"number of successes {s} exceeds sample size {m}")
    if s < 0:
        return 0.0
    return binom_pmf_row(m, p, s, s + 1)[0]


class RowSum(NamedTuple):
    """The weighted sum of runs of one probability row, a function of p.

    ``row`` is the key of a prepared row: a design's row_key for its
    terminal row, or (m, m, m) for the Bin(m, p) row. A run (start, stop,
    weights) adds the row's terms start..stop - 1 at p, each times its
    weight, or as they are where weights is None. A capped sum, a tail, is
    clamped to 1.0; an expectation is not. Calling the sum at p builds only
    the terms of its runs, or returns ``cached(p)`` where given: the same
    sum from the kernel's cache (binom_cdf or binom_upper_tail bound to s
    and m). ``on(row)`` reads the terms from the whole row at p.

    Every tail, expectation and interval equation of the package is one
    RowSum, the kernel's binom_cdf and binom_upper_tail included. fsum
    rounds the exact sum of its terms once, and a weight of 1.0 leaves a
    term unchanged, so a sum gives the same float whatever the order of
    its terms, the zero terms left out or its split into runs.
    """

    row: RowKey
    runs: Sequence[tuple[int, int, Optional[Sequence[float]]]]
    capped: bool = False
    cached: Optional[Callable[[float], float]] = None

    def __call__(self, p: float) -> float:
        if self.cached is not None:
            return self.cached(p)
        row, runs = self.row, self.runs
        if len(runs) == 1:
            # one run, the common case: its terms go to fsum unchained
            ((start, stop, weights),) = runs
            terms = _row_terms(row, p, start, stop)
            products = terms if weights is None else map(mul, weights, terms)
        else:
            slices = [(_row_terms(row, p, start, stop), w) for start, stop, w in runs]
            products = chain.from_iterable(
                [terms if w is None else map(mul, w, terms) for terms, w in slices]
            )
        total = math.fsum(products)
        return min(1.0, total) if self.capped else total

    def on(self, row: Sequence[float]) -> float:
        # the same sum, its runs sliced from the built row, which fixes p
        runs = [row[a:b] if w is None else map(mul, w, row[a:b]) for a, b, w in self.runs]
        total = math.fsum(chain.from_iterable(runs))
        return min(1.0, total) if self.capped else total


@lru_cache(maxsize=1 << 20)
def binom_cdf(s: int, m: int, p: float) -> float:
    """P(X <= s) for X ~ Bin(m, p); s = -1 (or below) gives 0 exactly."""
    _check_trial(m, p)
    if s > m:
        raise ValueError(f"number of successes {s} exceeds sample size {m}")
    if s < 0:
        return 0.0
    if s == m:
        return 1.0
    return RowSum((m, m, m), ((0, s + 1, None),), True)(p)


@lru_cache(maxsize=1 << 20)
def binom_upper_tail(s: int, m: int, p: float) -> float:
    """P(X >= s) for X ~ Bin(m, p), summed directly for small-tail accuracy.

    s <= 0 gives 1 exactly and s > m gives 0 exactly, so callers can use
    unclamped indices. A caller that keeps its own tails calls the same
    sum uncached, as binom_upper_tail.__wrapped__, and leaves the cache to
    the tails that recur (inference._log_continuation_row).
    """
    _check_trial(m, p)
    if s <= 0:
        return 1.0
    if s > m:
        return 0.0
    return RowSum((m, m, m), ((s, m + 1, None),), True)(p)


@dataclass(frozen=True)
class RootResult:
    """Result of a bracketed root search on [0, 1]."""

    value: float
    out_of_bracket: bool = False


def solve_monotone_root(
    f: Callable[[float], float],
    target: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> RootResult:
    """Solve f(p) = target for a monotone f on [0, 1] by ITP.

    A target equal to f(0) or f(1) gives that boundary exactly. If the
    target is not bracketed by f(0) and f(1), the nearer boundary is
    returned with ``out_of_bracket`` set. A point where f equals the target
    exactly is returned as it is. Otherwise the result is the midpoint of a
    final bracket [lo, hi] with hi - lo <= tol across which f - target
    changes sign.

    ITP (interpolate, truncate, project; Oliveira & Takahashi 2021) steps
    from the regula falsi point of f - target, moved towards the midpoint
    by kappa1 * (hi - lo)**kappa2, and projected to within a radius of the
    midpoint that shrinks as bisection's would. With kappa1 = 0.2,
    kappa2 = 2 and n0 = 1, a solve takes at most ceil(log2(1 / tol)) + 1
    steps, one more than bisection, plus the two endpoint evaluations: 37
    at tol = 1e-10. On smooth targets it converges superlinearly and
    takes far fewer.
    """
    f0 = f(0.0)
    if target == f0:
        return RootResult(0.0)
    f1 = f(1.0)
    if target == f1:
        return RootResult(1.0)
    increasing = f1 >= f0
    lo_val, hi_val = (f0, f1) if increasing else (f1, f0)
    if target < lo_val:
        return RootResult(0.0 if increasing else 1.0, out_of_bracket=True)
    if target > hi_val:
        return RootResult(1.0 if increasing else 0.0, out_of_bracket=True)
    lo, hi = 0.0, 1.0
    y_lo, y_hi = f0 - target, f1 - target
    # the widest bracket step j may leave is eps * 2**(n_max - j), with
    # n_max = ceil(log2(1 / tol)) + n0 steps; eps is a few ulps under
    # tol / 2 so that rounding cannot leave the last bracket wider than tol.
    # At a tol of a few ulps or less the radius is 0 and every step bisects.
    n_half = math.ceil(math.log2(1.0 / max(tol, math.ulp(1.0))))
    radius = (tol - 4 * math.ulp(1.0)) * 2.0**n_half
    for _ in range(max_iter):
        width = hi - lo
        if width <= tol:
            break
        mid = 0.5 * (lo + hi)
        r = max(0.0, radius - 0.5 * width)
        radius *= 0.5
        x = (y_hi * lo - y_lo * hi) / (y_hi - y_lo)
        sigma = 1.0 if mid >= x else -1.0
        delta = 0.2 * width * width
        x = x + sigma * delta if delta <= abs(mid - x) else mid
        if abs(x - mid) > r:
            x = mid - sigma * r
        y = f(x) - target
        if y == 0.0:
            return RootResult(x)
        if (y < 0.0) == (y_lo < 0.0):
            lo, y_lo = x, y
        else:
            hi, y_hi = x, y
    return RootResult(0.5 * (lo + hi))


def root_outside(f: Callable[[float], float], target: float, lo: float, hi: float) -> bool:
    """True when f - target has the same strict sign at lo and at hi, with
    0 < lo < hi < 1; hi is evaluated only when lo's sign is strict.

    For a monotone f, f - target then keeps that sign on all of [lo, hi],
    so every bracket across which solve_monotone_root(f, target) sees a
    sign change has an end outside [lo, hi], and the boundary it returns
    when no such bracket exists is outside too. Its result therefore lies
    outside [lo, hi] or within tol / 2 of an end. A zero or NaN at either
    end gives False.
    """
    side = f(lo) - target
    if side > 0.0:
        return f(hi) - target > 0.0
    if side < 0.0:
        return f(hi) - target < 0.0
    return False


def normal_quantile(q: float) -> float:
    """Inverse standard-normal CDF."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie strictly in (0, 1), got {q}")
    return _STD_NORMAL.inv_cdf(q)


def _check_trial(m: int, p: float) -> None:
    if m < 0:
        raise ValueError(f"sample size must be non-negative, got {m}")
    if m > MAX_SAMPLE_SIZE:
        raise ValueError(f"sample size {m} exceeds the cap of {MAX_SAMPLE_SIZE}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability must lie in [0, 1], got {p}")
