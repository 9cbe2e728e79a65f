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
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import Callable

_STD_NORMAL = NormalDist()

# Largest sample size the binomial kernel, the terminal-outcome kernel, the
# design search's n_max, the deviation analyses and the audit accept. It
# bounds the work and memory of one analysis: the kernel's exact path counts
# at this size take up to about 1.5 s to build and 160 KB to keep (see
# design._log_counts).
MAX_SAMPLE_SIZE = 5000


@lru_cache(maxsize=1)
def _log_factorials() -> list[float]:
    """lgamma(k + 1) = log k! for k = 0..MAX_SAMPLE_SIZE, built on first use.

    One list of MAX_SAMPLE_SIZE + 1 floats, about 32 bytes each (list slot
    and float): 160 KB, kept for the life of the process.
    """
    return [math.lgamma(k + 1) for k in range(MAX_SAMPLE_SIZE + 1)]


def binom_pmf_row(m: int, p: float, start: int = 0, stop: int | None = None) -> list[float]:
    """P(X = s) for X ~ Bin(m, p) and s in range(start, stop), with
    0 <= start <= stop <= m + 1; stop defaults to m + 1. Raises ValueError
    for m above MAX_SAMPLE_SIZE or terms outside 0..m.

    Each term is exp(log m! - log s! - log (m - s)! + s log p
    + (m - s) log(1 - p)), added left to right, with the log-factorials read
    from one table that does not depend on p. So an evaluation at a new p
    costs one exp per term, and each term equals the one computed with
    lgamma calls bit for bit.

    binom_pmf caches single terms of it; the row itself is not cached.
    The terminal-outcome kernel and the tails are mostly taken at root-solve
    points that never recur; caching their terms one by one would fill the
    scalar cache with entries that are never read again.
    """
    _check_trial(m, p)
    stop = m + 1 if stop is None else stop
    if start < 0 or stop > m + 1:
        raise ValueError(f"terms {start}..{stop - 1} are outside 0..{m}")
    if p == 0.0 or p == 1.0:
        mode = 0 if p == 0.0 else m
        return [1.0 if s == mode else 0.0 for s in range(start, stop)]
    lf = _log_factorials()
    lf_m, log_p, log_q, exp = lf[m], math.log(p), math.log1p(-p), math.exp
    return [
        exp(lf_m - lf[s] - lf[m - s] + s * log_p + (m - s) * log_q)
        for s in range(start, stop)
    ]


@lru_cache(maxsize=1 << 20)
def binom_pmf(s: int, m: int, p: float) -> float:
    """P(X = s) for X ~ Bin(m, p)."""
    _check_trial(m, p)
    if s > m:
        raise ValueError(f"number of successes {s} exceeds sample size {m}")
    if s < 0:
        return 0.0
    return binom_pmf_row(m, p, s, s + 1)[0]


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
    return min(1.0, math.fsum(binom_pmf_row(m, p, 0, s + 1)))


@lru_cache(maxsize=1 << 20)
def binom_upper_tail(s: int, m: int, p: float) -> float:
    """P(X >= s) for X ~ Bin(m, p), summed directly for small-tail accuracy.

    s <= 0 gives 1 exactly and s > m gives 0 exactly, so callers can use
    unclamped indices.
    """
    _check_trial(m, p)
    if s <= 0:
        return 1.0
    if s > m:
        return 0.0
    return min(1.0, math.fsum(binom_pmf_row(m, p, s)))


@dataclass(frozen=True)
class RootResult:
    """Result of a bracketed root search on [0, 1]."""

    value: float
    out_of_bracket: bool = False

    def __float__(self) -> float:
        return self.value


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
