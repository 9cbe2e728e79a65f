"""Independent reference implementations used only to check the package.

Everything here is written against scipy/numpy, mpmath or exact integer
arithmetic from the defining formulas, deliberately avoiding the package's own
computational paths.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.stats import binom as scipy_binom


def stage_paths(a1, n1, n, p):
    """All trial paths with their probabilities.

    Yields (s1, s_total, m, prob): stage-1 stops have m = n1 and
    s_total = s1; continuations enumerate every stage-2 outcome.
    """
    pmf1 = scipy_binom.pmf(np.arange(n1 + 1), n1, p)
    pmf2 = scipy_binom.pmf(np.arange(n - n1 + 1), n - n1, p)
    for s1 in range(a1 + 1):
        yield s1, s1, n1, float(pmf1[s1])
    for s1 in range(a1 + 1, n1 + 1):
        for s2 in range(n - n1 + 1):
            yield s1, s1 + s2, n, float(pmf1[s1] * pmf2[s2])


def terminal_probs(a1, n1, n, p):
    """Probability of each terminal outcome (s, m) by path enumeration."""
    probs = {}
    for _, s, m, pr in stage_paths(a1, n1, n, p):
        probs[(s, m)] = probs.get((s, m), 0.0) + pr
    return probs


def exact_terminal_row(a1, n1, n, p):
    """The row of terminal_pmf, exact then rounded once: P(the trial ends
    with s total successes) for s = 0..n.

    A float p is a dyadic rational num/den, so every path of the trial has
    the exact probability num^s (den - num)^(m - s) / den^m for s successes
    in m patients. The stage-2 terms count their paths one (i, j) pair of
    stage-1 and stage-2 successes at a time; the only rounding is the final
    int / int division, which Python rounds correctly.
    """
    num, den = p.as_integer_ratio()
    q = den - num
    stop = [math.comb(n1, s) * num**s * q ** (n1 - s) / den**n1 for s in range(a1 + 1)]
    cont = [c * num**s * q ** (n - s) / den**n for s, c in enumerate(_paths(a1, n1, n))]
    return stop + cont[a1 + 1 :]


def _paths(a1, n1, n):
    """Number of paths that continue past a1 and end with s successes, s = 0..n."""
    n2 = n - n1
    paths = [0] * (n + 1)
    for i in range(a1 + 1, n1 + 1):
        for j in range(n2 + 1):
            paths[i + j] += math.comb(n1, i) * math.comb(n2, j)
    return paths


def exact_stagewise_tails(s, m, a1, n1, n, p):
    """(q, q_lower) of the terminal outcome (s, m) at a rational p, exactly.

    q is the probability of an outcome at or above (s, m) in the stagewise
    order, q_lower of one at or below it. p is a float or a Fraction; every
    path probability is an integer over den^m (see exact_terminal_row), so
    both tails are sums of integers over one common denominator.
    """
    num, den = p.as_integer_ratio()
    if m == n1:
        terms = _path_numerators([math.comb(n1, k) for k in range(n1 + 1)], num, den)
        return Fraction(sum(terms[s:]), den**n1), Fraction(sum(terms[: s + 1]), den**n1)
    cont = _path_numerators(_paths(a1, n1, n), num, den)
    stop = _path_numerators([math.comb(n1, k) for k in range(n1 + 1)], num, den)[: a1 + 1]
    return (
        Fraction(sum(cont[s:]), den**n),
        Fraction(sum(stop) * den ** (n - n1) + sum(cont[: s + 1]), den**n),
    )


def _path_numerators(counts, num, den):
    """counts[k] * num^k * (den - num)^(m - k) for k = 0..m, m = len(counts) - 1."""
    m, q = len(counts) - 1, den - num
    num_pows, q_pows = [1], [1]
    for _ in range(m):
        num_pows.append(num_pows[-1] * num)
        q_pows.append(q_pows[-1] * q)
    return [c * num_pows[k] * q_pows[m - k] for k, c in enumerate(counts)]


def binom_tails_mp(s, m, p):
    """(P(X >= s), P(X <= s)) for X ~ Bin(m, p), summed term by term in
    mpmath at 60 significant digits; p is an mpf in (0, 1)."""
    with mpmath.workdps(60):
        ratio, term, terms = p / (1 - p), (1 - p) ** m, []
        for k in range(m + 1):
            terms.append(term)
            term = term * ratio * (m - k) / (k + 1)
        return mpmath.fsum(terms[s:]), mpmath.fsum(terms[: s + 1])


def _tails(terms):
    """(suffix sums, prefix sums) of terms, each accumulated from its own
    end so that a small tail is not the difference of two large sums."""
    upper, lower, acc = [], [], 0
    for term in reversed(terms):
        acc += term
        upper.append(acc)
    acc = 0
    for term in terms:
        acc += term
        lower.append(acc)
    return upper[::-1], lower


def binom_tail_rows_mp(m, p):
    """([P(X >= s)], [P(X <= s)]) for s = 0..m and X ~ Bin(m, p), from
    mpmath terms at 60 significant digits; p is a float in (0, 1)."""
    with mpmath.workdps(60):
        p = mpmath.mpf(p)
        ratio, term, terms = p / (1 - p), (1 - p) ** m, []
        for k in range(m + 1):
            terms.append(term)
            term = term * ratio * (m - k) / (k + 1)
        return _tails(terms)


def stagewise_tails_mp(a1, n1, n, p):
    """([q], [q_lower]) of the terminal outcomes with totals s = 0..n at a
    float p, in mpmath at 40 significant digits: suffix and prefix sums of
    the terminal row, whose terms are C(n1, s) p^s (1 - p)^(n1 - s) for
    s <= a1 and c_s p^s (1 - p)^(n - s) with exact path counts c_s above."""
    counts = _paths(a1, n1, n)
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        terms = [math.comb(n1, s) * p**s * (1 - p) ** (n1 - s) for s in range(a1 + 1)]
        terms += [counts[s] * p**s * (1 - p) ** (n - s) for s in range(a1 + 1, n + 1)]
        return _tails(terms)


def conditional_mle_mp(s, n, a1, n1):
    """The conditional MLE of the stage-2 outcome (s, n), a1 + 1 < s < n.

    Given continuation, P(S = k) is proportional to c_k p^k (1 - p)^(n - k)
    for k > a1: an exponential family in x = logit p, so the likelihood of
    s is largest where E[S | continue] = s. That root is solved in mpmath
    at 40 digits, with no logarithm of the continuation probability.
    """
    counts = [(k, c) for k, c in enumerate(_paths(a1, n1, n)) if k > a1]
    with mpmath.workdps(40):

        def excess_mean(x):
            weights = [c * mpmath.exp(k * x) for k, c in counts]
            mean = mpmath.fsum(k * w for (k, _), w in zip(counts, weights)) / mpmath.fsum(weights)
            return mean - s

        x = mpmath.findroot(excess_mean, (-40, 40), solver="illinois")
        return float(1 / (1 + mpmath.exp(-x)))


def reject_prob_oracle(a1, a, n1, n, p):
    return sum(
        pr for _, s, m, pr in stage_paths(a1, n1, n, p) if m == n and s > a
    )


def en_oracle(a1, n1, n, p):
    pet = float(scipy_binom.cdf(a1, n1, p))
    return n1 + (1.0 - pet) * (n - n1)


def reject_matrix_oracle(pmf1, pmf2):
    """R[a1, a] = P(continue past a1 and total successes > a), a = 0..n-1,
    for the stage-1 and stage-2 pmf rows of a design with n = n1 + n2.

    Rows run a1 = 0..n1-1. Built from numpy cumulative sums, which add one
    term at a time, so the design search's own sums must equal it exactly.
    """
    pmf1, pmf2 = np.asarray(pmf1), np.asarray(pmf2)
    n1, n2 = len(pmf1) - 1, len(pmf2) - 1
    n = n1 + n2
    # sf2[k] = P(X2 >= k) for k = 0..n2, with an appended 0 for k > n2
    sf2 = np.concatenate([np.cumsum(pmf2[::-1])[::-1], [0.0]])
    np.minimum(sf2, 1.0, out=sf2)
    i = np.arange(n1 + 1)[:, None]
    a = np.arange(n)[None, :]
    idx = np.clip(a - i + 1, 0, n2 + 1)
    terms = pmf1[:, None] * sf2[idx]
    # suffix[i, a] = sum_{j >= i} terms[j, a]; R[a1, a] = suffix[a1 + 1, a]
    suffix = np.cumsum(terms[::-1, :], axis=0)[::-1, :]
    return np.vstack([suffix[1:, :], np.zeros((1, n))])[:n1, :]


def brute_force_both(p0, p1, alpha, beta, n_max):
    """One exhaustive pass returning the best design per criterion.

    Enumerates every (a1, a, n1, n) with n <= n_max, computing the
    continuation-total distribution by masked convolution. Returns
    {"null-optimal": (a1, a, n1, n), "minimax": ...} with the library's
    tie-break order.
    """
    best = {"null-optimal": None, "minimax": None}
    best_key = {"null-optimal": None, "minimax": None}
    for n in range(2, n_max + 1):
        for n1 in range(1, n):
            pmf1_p0 = scipy_binom.pmf(np.arange(n1 + 1), n1, p0)
            pmf1_p1 = scipy_binom.pmf(np.arange(n1 + 1), n1, p1)
            pmf2_p0 = scipy_binom.pmf(np.arange(n - n1 + 1), n - n1, p0)
            pmf2_p1 = scipy_binom.pmf(np.arange(n - n1 + 1), n - n1, p1)
            for a1 in range(n1):
                mask = np.arange(n1 + 1) > a1
                cont_p0 = np.convolve(pmf1_p0 * mask, pmf2_p0)
                cont_p1 = np.convolve(pmf1_p1 * mask, pmf2_p1)
                sf0 = np.cumsum(cont_p0[::-1])[::-1]
                sf1 = np.cumsum(cont_p1[::-1])[::-1]
                ok = np.nonzero(sf0[1:] <= alpha)[0]
                if len(ok) == 0:
                    continue
                a = max(a1, int(ok[0]))
                if a >= n or sf1[a + 1] < 1.0 - beta:
                    continue
                en = en_oracle(a1, n1, n, p0)
                keys = {"null-optimal": (en, n, n1), "minimax": (n, en, n1)}
                for crit, key in keys.items():
                    if best_key[crit] is None or key < best_key[crit]:
                        best_key[crit] = key
                        best[crit] = (a1, a, n1, n)
    return best


def brute_force_frontier(p0, p1, alpha, beta, n_max):
    """The smallest EN(p0) over every feasible (a1, a, n1, n) at each n.

    Returns {n: min EN(p0)} for each n <= n_max that has a feasible design,
    enumerating as brute_force_both does.
    """
    frontier = {}
    for n in range(2, n_max + 1):
        for n1 in range(1, n):
            pmf1_p0 = scipy_binom.pmf(np.arange(n1 + 1), n1, p0)
            pmf1_p1 = scipy_binom.pmf(np.arange(n1 + 1), n1, p1)
            pmf2_p0 = scipy_binom.pmf(np.arange(n - n1 + 1), n - n1, p0)
            pmf2_p1 = scipy_binom.pmf(np.arange(n - n1 + 1), n - n1, p1)
            for a1 in range(n1):
                mask = np.arange(n1 + 1) > a1
                sf0 = np.cumsum(np.convolve(pmf1_p0 * mask, pmf2_p0)[::-1])[::-1]
                sf1 = np.cumsum(np.convolve(pmf1_p1 * mask, pmf2_p1)[::-1])[::-1]
                ok = np.nonzero(sf0[1:] <= alpha)[0]
                if len(ok) == 0:
                    continue
                a = max(a1, int(ok[0]))
                if a >= n or sf1[a + 1] < 1.0 - beta:
                    continue
                en = en_oracle(a1, n1, n, p0)
                frontier[n] = min(en, frontier.get(n, en))
    return frontier


def brute_force_search(p0, p1, alpha, beta, criterion, n_max):
    """Exhaustive enumeration over all (a1, a, n1, n) with n <= n_max.

    For fixed (n1, n, a1) the rejection probability is decreasing in a, so
    the smallest a meeting the type-I bound maximises power; ties are broken
    as in the library contract (EN, n, n1 for the null-optimal criterion and
    n, EN, n1 for minimax).
    """
    best = None
    best_key = None
    for n in range(2, n_max + 1):
        for n1 in range(1, n):
            pmf1_p0 = scipy_binom.pmf(np.arange(n1 + 1), n1, p0)
            pmf1_p1 = scipy_binom.pmf(np.arange(n1 + 1), n1, p1)
            pmf2_p0 = scipy_binom.pmf(np.arange(n - n1 + 1), n - n1, p0)
            pmf2_p1 = scipy_binom.pmf(np.arange(n - n1 + 1), n - n1, p1)
            for a1 in range(n1):
                cont_p0 = np.zeros(n + 1)
                cont_p1 = np.zeros(n + 1)
                for s1 in range(a1 + 1, n1 + 1):
                    cont_p0[s1 : s1 + n - n1 + 1] += pmf1_p0[s1] * pmf2_p0
                    cont_p1[s1 : s1 + n - n1 + 1] += pmf1_p1[s1] * pmf2_p1
                # P(total > a) for every a via suffix sums
                sf_p0 = np.cumsum(cont_p0[::-1])[::-1]
                sf_p1 = np.cumsum(cont_p1[::-1])[::-1]
                ok = np.nonzero(sf_p0[1:] <= alpha)[0]
                if len(ok) == 0:
                    continue
                a = max(a1, int(ok[0]))
                if sf_p1[a + 1] < 1.0 - beta:
                    continue
                en = en_oracle(a1, n1, n, p0)
                if criterion == "null-optimal":
                    key = (en, n, n1)
                else:
                    key = (n, en, n1)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (a1, a, n1, n)
        if criterion == "minimax" and best is not None:
            break
    return best


def first_feasible_n(p0, p1, alpha, beta, n_max):
    """The smallest n <= n_max with a design that controls alpha and has
    power 1 - beta by reject_matrix_oracle (scipy pmf rows), or None."""
    rows = {}

    def pmfs(m):
        if m not in rows:
            k = np.arange(m + 1)
            rows[m] = (scipy_binom.pmf(k, m, p0), scipy_binom.pmf(k, m, p1))
        return rows[m]

    for n in range(2, n_max + 1):
        for n1 in range(1, n):
            (first0, first1), (second0, second1) = pmfs(n1), pmfs(n - n1)
            ok = reject_matrix_oracle(first0, second0) <= alpha
            if ok.any() and np.any(ok & (reject_matrix_oracle(first1, second1) >= 1 - beta)):
                return n
    return None


def ump_first_n(p0, p1, alpha, beta, n_max):
    """The smallest n <= n_max at which the randomised UMP level-alpha test
    of p0 against p1 on n observations has power 1 - beta, or None.

    It rejects for totals of at least c, the smallest c with
    P0(X >= c) <= alpha, and with probability gamma at c - 1, where gamma
    spends the rest of alpha.
    """
    for n in range(1, n_max + 1):
        sf0 = scipy_binom.sf(np.arange(-1, n + 1), n, p0)  # P0(X >= k), k = 0..n+1
        c = int(np.argmax(sf0 <= alpha))
        gamma = (alpha - sf0[c]) / scipy_binom.pmf(c - 1, n, p0)
        power = scipy_binom.sf(c - 1, n, p1) + gamma * scipy_binom.pmf(c - 1, n, p1)
        if power >= 1 - beta:
            return n
    return None


# ---------------------------------------------------------------------------
# Bit-identity references. Unlike the oracles above, these keep earlier
# package code as it was, float operation for float operation, so that a
# faster path can be checked to give the same floats, not merely close ones.


def binding_constraint_oracle(p0, alpha, n_max):
    """The infeasible search's binding constraint by the quadratic loop it
    used to run: type-I error unless some (n, n1) with n <= n_max has
    pmf1[n1] * min(pmf2[n2], 1.0) <= alpha at the top terms p0^m."""
    from twostage.binomial import binom_pmf_row

    last = [binom_pmf_row(m, p0, m)[0] for m in range(n_max)]
    alpha_ok = any(
        last[n1] * min(last[n - n1], 1.0) <= alpha
        for n in range(2, n_max + 1)
        for n1 in range(1, n)
    )
    return "power" if alpha_ok else "type-I error"


def pmf_row_lgamma_oracle(m, p, start=0, stop=None):
    """binom_pmf_row with log C(m, s) from lgamma calls at every term."""
    stop = m + 1 if stop is None else stop
    if p == 0.0 or p == 1.0:
        mode = 0 if p == 0.0 else m
        return [1.0 if s == mode else 0.0 for s in range(start, stop)]
    log_m, log_p, log_q = math.lgamma(m + 1), math.log(p), math.log1p(-p)
    lgamma, exp = math.lgamma, math.exp
    return [
        exp(log_m - lgamma(s + 1) - lgamma(m - s + 1) + s * log_p + (m - s) * log_q)
        for s in range(start, stop)
    ]


def conditional_mle_scan_oracle(s, n, a1, n1, tol=1e-10):
    """The conditional MLE of the stage-2 outcome (s, n) of a design with
    stage-1 bound a1/n1: the log-likelihood evaluated afresh at each of 401
    grid points on [1e-12, 1 - 1e-12], then golden-section search around
    the best of them. The continuation probability is summed from
    pmf_row_lgamma_oracle, as binom_upper_tail sums its row."""
    if s == n:
        return 1.0
    if s == a1 + 1:
        return 0.0

    def loglik(p):
        tail = min(1.0, math.fsum(pmf_row_lgamma_oracle(n1, p, a1 + 1)))
        return s * math.log(p) + (n - s) * math.log1p(-p) - math.log(tail)

    lo, hi = 1e-12, 1.0 - 1e-12
    grid = [lo + (hi - lo) * k / 400 for k in range(401)]
    vals = [loglik(x) for x in grid]
    k = max(range(len(grid)), key=vals.__getitem__)
    a = grid[max(0, k - 1)]
    b = grid[min(len(grid) - 1, k + 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    e = a + inv_phi * (b - a)
    fc, fe = loglik(c), loglik(e)
    while b - a > tol:
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - inv_phi * (b - a)
            fc = loglik(c)
        else:
            a, c, fc = c, e, fe
            e = a + inv_phi * (b - a)
            fe = loglik(e)
    x = 0.5 * (a + b)
    return min(1.0, max(0.0, x))


def midp_limits_oracle(s, design, level=0.95, tol=1e-10):
    """(low, upp) of the mid-p interval of the terminal outcome with total
    s, with every outcome's UMVUE fraction compared with the observed one
    on each call. The tail is the package's terminal_pmf row weighted and
    solved by the package's root solver, as ci_midp does."""
    from operator import mul

    from twostage.binomial import solve_monotone_root
    from twostage.design import terminal_pmf
    from twostage.inference import umvue_fraction

    ranks = [umvue_fraction(k, design.size_at(k), design) for k in range(design.n + 1)]
    observed = ranks[s]
    weights = [0.0 if r < observed else 0.5 if r == observed else 1.0 for r in ranks]

    def tail(p):
        return math.fsum(map(mul, weights, terminal_pmf(design, p)))

    alpha_ci = 1.0 - level
    low = solve_monotone_root(tail, alpha_ci / 2.0, tol=tol)
    upp = solve_monotone_root(tail, 1.0 - alpha_ci / 2.0, tol=tol)
    return (0.0 if low.out_of_bracket else low.value, 1.0 if upp.out_of_bracket else upp.value)


def coverage_by_intervals_oracle(method, p, design, level=0.95):
    """Exact coverage by the interval path: every terminal outcome's
    interval is solved (or read from interval_for_outcome's cache) and
    checked for p with closed endpoints, and the probabilities of the
    outcomes that contain p are summed with fsum. Package coverage decides
    the same membership by test inversion, without the limits."""
    from twostage.design import terminal_pmf
    from twostage.inference import interval_for_outcome

    return min(
        1.0,
        math.fsum(
            prob
            for s, prob in enumerate(terminal_pmf(design, p))
            if interval_for_outcome(method, s, design, level).contains(p)
        ),
    )
