"""Seeded inputs for the three workloads.

Each workload draws its ops from a pool that is generated once from
POOL_SEED; the stored reference holds the expected output of every pool
item. A run's --seed chooses which pool items run and in what order, so
every seed gives different inputs and every op is checked exactly.

The pools are split into strata (kinds of op). A run walks a fixed pattern
of strata and takes the next item of each stratum from that stratum's own
seeded permutation, so the mix of op kinds, and with it the cost of a run,
is the same for every seed. A stratum that runs out is reshuffled and
repeats. This module never imports the program: the program sees only the
inputs made here.
"""

from __future__ import annotations

import random
from itertools import count, cycle
from typing import Iterator

POOL_SEED = 1

WORKLOADS = ("search", "audit", "analyse")

# op_tail_ms is the op time at this percentile (nearest rank). It is fixed
# per workload, so that a faster commit, which completes more ops in a run,
# is measured at the same percentile. Each leaves at least ten ops beyond it
# even for a commit half as fast as the seed commit; a search run has fewer
# than eleven ops, so its tail is its slowest op.
TAIL_PERCENTILE = {"search": 100.0, "audit": 90.0, "analyse": 99.0}

# peak_rss_mib is read when this many ops have completed (or at the end of
# a shorter run). The caches grow with every op, so memory read at the end
# of a timed run would grow with the program's speed.
MEMORY_AT_OP = {"search": 3, "audit": 100, "analyse": 800}

# Largest analysed sample size any generated record or command uses. Rows
# such as n_analysis = 10**6 are left out: the program has no cap on the
# sample size yet and such a row would run for hours.
MAX_ANALYSIS_N = 120

# ---------------------------------------------------------------------------
# search: Simon (1989) optimal and minimax targets

SEARCH_ANCHORS = (
    # no design reaches the power target within n = 30: the expected
    # InfeasibleDesignError is the correct output. It takes milliseconds,
    # so it runs first: every run then has it, wherever the deadline falls.
    ("null-optimal", (0.05, 0.10, 0.05, 0.1), 30),
    ("null-optimal", (0.1, 0.3, 0.05, 0.2), 150),
    ("null-optimal", (0.05, 0.15, 0.05, 0.2), 150),
    ("minimax", (0.05, 0.10, 0.05, 0.2), 400),
    ("admissible", (0.1, 0.3, 0.05, 0.2), 150),
)

# Simon's grid: p0 from 0.05 to 0.7, p1 = p0 + 0.15 or p0 + 0.2, and his
# three (alpha, beta) pairs. Only null-optimal searches are drawn, because
# at a fixed n_max they all enumerate the same candidates and so cost about
# the same; a minimax search costs anything from milliseconds to seconds
# depending on where it stops.
SEARCH_GRID_P0 = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
SEARCH_GRID_DELTA = (0.15, 0.2)
SEARCH_GRID_ERRORS = ((0.05, 0.2), (0.05, 0.1), (0.1, 0.1))
SEARCH_GRID_NMAX = 150


def search_pool() -> dict[str, list[dict]]:
    anchors = [_search_item("anchor", *job) for job in SEARCH_ANCHORS]
    grid = [
        _search_item("grid", "null-optimal", (p0, round(p0 + delta, 2), alpha, beta), SEARCH_GRID_NMAX)
        for p0 in SEARCH_GRID_P0
        for delta in SEARCH_GRID_DELTA
        for alpha, beta in SEARCH_GRID_ERRORS
    ]
    return {"anchor": anchors, "grid": grid}


def _search_item(stratum: str, kind: str, targets: tuple, n_max: int) -> dict:
    key = f"{stratum}:{kind}:{':'.join(repr(t) for t in targets)}:nmax={n_max}"
    return {"key": key, "input": {"kind": kind, "targets": list(targets), "n_max": n_max}}


# ---------------------------------------------------------------------------
# audit: published-style records

# (p0, p1, alpha, beta, criterion, a1, a, n1, n): Simon's optimal and
# minimax designs for common targets
AUDIT_DESIGNS = (
    (0.05, 0.25, 0.05, 0.2, "optimal", 0, 2, 9, 17),
    (0.05, 0.25, 0.05, 0.2, "minimax", 0, 2, 12, 16),
    (0.1, 0.3, 0.05, 0.2, "optimal", 1, 5, 10, 29),
    (0.1, 0.3, 0.05, 0.2, "minimax", 1, 5, 15, 25),
    (0.2, 0.4, 0.05, 0.2, "optimal", 3, 12, 13, 43),
    (0.2, 0.4, 0.05, 0.2, "minimax", 4, 10, 18, 33),
    (0.3, 0.5, 0.05, 0.2, "optimal", 5, 18, 15, 46),
    (0.3, 0.5, 0.05, 0.2, "minimax", 6, 16, 19, 39),
    (0.4, 0.6, 0.05, 0.2, "optimal", 7, 23, 16, 46),
    (0.4, 0.6, 0.05, 0.2, "minimax", 17, 20, 34, 39),
    (0.5, 0.7, 0.05, 0.2, "optimal", 8, 26, 15, 43),
    (0.5, 0.7, 0.05, 0.2, "minimax", 12, 23, 23, 37),
    (0.1, 0.25, 0.05, 0.2, "optimal", 2, 7, 18, 43),
    (0.1, 0.25, 0.05, 0.2, "minimax", 2, 7, 22, 40),
    (0.2, 0.35, 0.05, 0.2, "optimal", 5, 19, 22, 72),
    (0.2, 0.35, 0.05, 0.2, "minimax", 6, 15, 31, 53),
    (0.3, 0.45, 0.05, 0.2, "optimal", 9, 30, 27, 81),
    (0.3, 0.45, 0.05, 0.2, "minimax", 16, 25, 46, 65),
    (0.2, 0.4, 0.1, 0.1, "optimal", 3, 10, 17, 37),
    (0.2, 0.4, 0.1, 0.1, "minimax", 3, 10, 19, 36),
    (0.1, 0.3, 0.05, 0.1, "optimal", 2, 6, 18, 35),
    (0.1, 0.3, 0.05, 0.1, "minimax", 2, 6, 22, 33),
    (0.6, 0.8, 0.05, 0.2, "optimal", 7, 30, 11, 43),
    (0.6, 0.8, 0.05, 0.2, "minimax", 8, 25, 13, 35),
    (0.7, 0.9, 0.05, 0.2, "optimal", 4, 22, 6, 27),
    (0.7, 0.9, 0.05, 0.2, "minimax", 19, 21, 23, 26),
)

AUDIT_COLUMNS = (
    "id", "year", "journal", "cancer", "p0", "p0_justified", "p1", "alpha", "beta",
    "criterion", "a1", "a", "n1", "n", "stage", "s1", "n_enrolled", "n_analysis",
    "s_analysis", "est", "est_adjusted", "pvalue", "pvalue_adjusted", "ci_level",
    "ci_low", "ci_upp", "ci_adjusted", "ci_method",
)
AUDIT_HEADER = ",".join(AUDIT_COLUMNS)

# one round of the audit schedule: 20 records
AUDIT_PATTERN = (
    "planned", "deviated", "planned", "percent", "planned", "stage1", "planned",
    "missing", "deviated", "planned", "extreme_low", "planned", "malformed",
    "planned", "deviated", "percent", "planned", "stage1", "missing", "extreme_high",
)
# Slot i of the schedule takes record kind i mod 20 and design i mod 26, so
# every run meets the designs in the same order and pays the same first-use
# cost for each; the seed chooses the record within each (kind, design)
# stratum. The first new (design, n_analysis) pair fills the kernel and
# interval caches and costs up to a second, against tens of milliseconds
# for a record whose design is cached, so leaving the designs to the seed
# would make a run's cost depend mostly on which designs it drew.
AUDIT_SLOTS = tuple(
    f"{AUDIT_PATTERN[i % len(AUDIT_PATTERN)]}/{i % len(AUDIT_DESIGNS)}" for i in range(260)
)
AUDIT_REPEATS = 10
# n_analysis - n of the deviated records of design i: entry i mod 10
AUDIT_DEVIATIONS = (-4, 3, -2, 6, -1, 2, -3, 5, 1, 4)

# columns a record may omit; each "missing" record drops a few of them
_OPTIONAL_COLUMNS = (
    "p0", "p1", "alpha", "beta", "criterion", "a", "n", "stage", "s1",
    "s_analysis", "est", "ci_level", "ci_low", "ci_upp",
)
_JOURNALS = ("J Clin Oncol", "Ann Oncol", "Br J Cancer", "Invest New Drugs", "Oncologist")
_CANCERS = ("lung", "breast", "colorectal", "gastric", "ovarian", "renal", "melanoma")


def audit_pool() -> dict[str, list[dict]]:
    rng = random.Random(f"audit:{POOL_SEED}")
    pool: dict[str, list[dict]] = {}
    ids = count(1)
    for stratum in sorted(set(AUDIT_SLOTS)):
        kind, design = stratum.split("/")
        items = []
        for _ in range(AUDIT_SLOTS.count(stratum) * AUDIT_REPEATS):
            record_id = f"R{next(ids):05d}"
            row = _audit_row(rng, kind, int(design), record_id)
            text = AUDIT_HEADER + "\n" + ",".join(row[c] for c in AUDIT_COLUMNS) + "\n"
            items.append({"key": f"{stratum}:{record_id}", "input": text})
        pool[stratum] = items
    return pool


def _fmt(x: float, decimals: int) -> str:
    return f"{x:.{decimals}f}"


def _binomial_draw(rng: random.Random, m: int, p: float) -> int:
    return sum(1 for _ in range(m) if rng.random() < p)


def _wilson(s: int, m: int, level: float) -> tuple[float, float]:
    z = 1.959963984540054 if level == 0.95 else 1.6448536269514722
    phat = s / m
    centre = phat + z * z / (2 * m)
    spread = z * (phat * (1 - phat) / m + z * z / (4 * m * m)) ** 0.5
    denom = 1 + z * z / m
    return max(0.0, (centre - spread) / denom), min(1.0, (centre + spread) / denom)


def _audit_row(rng: random.Random, kind: str, design: int, record_id: str) -> dict[str, str]:
    p0, p1, alpha, beta, criterion, a1, a, n1, n = AUDIT_DESIGNS[design]
    row = {c: "" for c in AUDIT_COLUMNS}
    row.update(
        id=record_id,
        year=str(rng.randint(1995, 2020)),
        journal=rng.choice(_JOURNALS),
        cancer=rng.choice(_CANCERS),
        p0=str(p0),
        p0_justified=rng.choice(("yes", "no")),
        p1=str(p1),
        alpha=str(alpha),
        beta=str(beta),
        criterion=criterion,
        a1=str(a1), a=str(a), n1=str(n1), n=str(n),
    )
    p_true = rng.choice((p0, 0.5 * (p0 + p1), p1))
    if kind == "stage1":
        n_an = n1
        s = rng.randint(0, a1)
        row.update(stage="1", n_enrolled=str(n1))
    else:
        n_an = n
        if kind == "deviated":
            # fixed per design, like the rest of what sets a record's cost
            n_an = max(n1 + 1, n + AUDIT_DEVIATIONS[design % len(AUDIT_DEVIATIONS)])
        if kind == "extreme_low":
            s1 = s = a1 + 1
        elif kind == "extreme_high":
            s1, s = n1, n_an
        else:
            s1 = max(a1 + 1, _binomial_draw(rng, n1, p_true))
            s = s1 + _binomial_draw(rng, n_an - n1, p_true)
        row.update(stage="2", s1=str(s1), n_enrolled=str(n_an + rng.choice((0, 0, 1, 2))))
    assert n_an <= MAX_ANALYSIS_N
    row.update(n_analysis=str(n_an), s_analysis=str(s))

    # What decides a record's cost is fixed by its kind, so that the seed
    # does not move a run's cost: the level (coverage is computed at 0.95
    # only), the reported interval (an exact Wilson interval matches Wilson,
    # whose coverage is cheap; a widened one matches nothing, so the
    # audit computes Clopper-Pearson coverage), the precision, and the
    # flags and method names that make the audit skip a check.
    decimals = 3
    naive = s / n_an
    # most reports give the naive estimate; some give a value no procedure
    # reproduces, as an adjusted estimate rounded elsewhere would look
    est = naive if rng.random() < 0.8 else min(1.0, naive + rng.choice((0.01, 0.02, -0.01)) * (naive > 0.02))
    level = 0.9 if kind == "percent" else 0.95
    low, upp = _wilson(s, n_an, level)
    if kind == "deviated":
        low, upp = max(0.0, low - 0.005), min(1.0, upp + 0.005)
    row.update(
        est=_fmt(est, decimals),
        est_adjusted="no",
        ci_level=str(level),
        ci_low=_fmt(low, decimals),
        ci_upp=_fmt(upp, decimals),
        ci_adjusted="no",
    )
    if rng.random() < 0.3:
        row.update(pvalue=_fmt(rng.uniform(0.001, 0.3), 3), pvalue_adjusted=rng.choice(("yes", "no")))

    if kind == "percent":
        # proportions on a 0-100 scale, with or without a percent sign
        sign = rng.choice(("%", ""))
        for column in ("est", "ci_low", "ci_upp"):
            row[column] = _fmt(100.0 * float(row[column]), max(0, decimals - 2)) + sign
        if rng.random() < 0.5:
            row["p0"], row["p1"] = f"{100 * p0:g}", f"{100 * p1:g}"
    elif kind == "missing":
        for column in rng.sample(_OPTIONAL_COLUMNS, rng.randint(2, 4)):
            row[column] = ""
        row.update(
            est_adjusted=rng.choice(("yes", "no")),
            ci_adjusted=rng.choice(("yes", "no")),
            ci_method=rng.choice(("", "Clopper-Pearson", "exact", "blyth-still-casella")),
        )
    elif kind == "malformed":
        column, bad = rng.choice(
            (
                ("n1", "ten"),
                ("stage", "3"),
                ("p0", "150"),
                ("p0_justified", "maybe"),
                ("est", "0.2.1"),
                ("s_analysis", "-"),
            )
        )
        row[column] = bad
    return row


# ---------------------------------------------------------------------------
# analyse: one-outcome CLI commands over many designs

# one round of the analyse schedule: 18 commands
ANALYSE_PATTERN = (
    "estimate", "ci_jt", "pvalue", "oc", "ci_midp", "ci_cp", "estimate", "deviate_ek",
    "ci_wald", "ci_jt", "pvalue", "oc", "estimate", "ci_wilson", "deviate_retain",
    "ci_midp", "invalid", "pvalue",
)
ANALYSE_DESIGNS = 480
# The designs are split by n into five size classes. Slot i of the schedule
# takes command kind i mod 18 and size class i mod 5, so every run has the
# same mix of kinds and sizes; the seed chooses the design and outcome
# within each (kind, size class) stratum. A command's cost grows with the
# design's size, so leaving sizes to the seed would move a run's cost.
ANALYSE_SIZE_CLASSES = 5
ANALYSE_SLOTS = tuple(
    f"{ANALYSE_PATTERN[i % len(ANALYSE_PATTERN)]}/{i % ANALYSE_SIZE_CLASSES}"
    for i in range(len(ANALYSE_PATTERN) * ANALYSE_SIZE_CLASSES)
)
ANALYSE_REPEATS = 80
_FORMATS = ("json", "json", "json", "table", "table", "csv")


def analyse_designs() -> list[tuple[float, int, int, int, int]]:
    """Distinct valid designs (p0, a1, a, n1, n) spread over sizes and rates."""
    rng = random.Random(f"analyse-designs:{POOL_SEED}")
    seen: set[tuple] = set()
    out = []
    while len(out) < ANALYSE_DESIGNS:
        p0 = rng.choice((0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6))
        n1 = rng.randint(6, 35)
        n = n1 + rng.randint(6, 60)
        a1 = min(n1 - 1, max(0, round(p0 * n1 + rng.uniform(-1.0, 1.5))))
        a = min(n - 1, max(a1, round((p0 + 0.08) * n + rng.uniform(-1.5, 1.5))))
        if (a1, a, n1, n) in seen:
            continue
        seen.add((a1, a, n1, n))
        out.append((p0, a1, a, n1, n))
    return out


def analyse_pool() -> dict[str, list[dict]]:
    rng = random.Random(f"analyse:{POOL_SEED}")
    by_size = sorted(analyse_designs(), key=lambda d: d[4])
    per_class = len(by_size) // ANALYSE_SIZE_CLASSES
    pool: dict[str, list[dict]] = {}
    for stratum in sorted(set(ANALYSE_SLOTS)):
        kind, size = stratum.split("/")
        designs = by_size[int(size) * per_class:(int(size) + 1) * per_class]
        items = []
        for i in range(ANALYSE_SLOTS.count(stratum) * ANALYSE_REPEATS):
            argv = _analyse_argv(rng, kind, rng.choice(designs))
            items.append({"key": f"{stratum}:{i}:" + " ".join(argv), "input": argv})
        pool[stratum] = items
    return pool


def _outcome(rng: random.Random, a1: int, n1: int, n: int) -> tuple[int, int]:
    """A terminal outcome (s, m); mostly stage 2, with both extremes."""
    u = rng.random()
    if u < 0.12:
        return rng.randint(0, a1), n1
    if u < 0.17:
        return a1 + 1, n
    if u < 0.20:
        return n, n
    return rng.randint(a1 + 1, max(a1 + 1, min(n, round(0.6 * n)))), n


def _analyse_argv(rng: random.Random, kind: str, design: tuple) -> list[str]:
    p0, a1, a, n1, n = design
    p1 = round(p0 + 0.2, 2)
    text = f"{a1}/{n1},{a}/{n}"
    fmt = ["--format", rng.choice(_FORMATS)]
    targets = ["--p0", str(p0), "--p1", str(p1), "--alpha", "0.05", "--beta", "0.2"]
    s, m = _outcome(rng, a1, n1, n)
    state = ["--design", text, "--s", str(s), "--m", str(m)]
    if kind == "estimate":
        return ["estimate", *state, *fmt]
    if kind.startswith("ci_"):
        level = rng.choice(("0.95", "0.95", "0.9"))
        return ["ci", *state, "--method", kind[3:], "--level", level, *fmt]
    if kind == "pvalue":
        null = ["--null", str(p0)] if rng.random() < 0.5 else targets
        return ["pvalue", *state, *null, *fmt]
    if kind == "oc":
        return ["oc", "--design", text, *targets, *fmt]
    if kind.startswith("deviate_"):
        n_an = max(n1 + 1, n + rng.choice((-5, -3, -2, -1, 1, 2, 4, 6, 10)))
        assert n_an <= MAX_ANALYSIS_N
        s1 = rng.randint(a1 + 1, n1)
        s_an = s1 + rng.randint(0, (n_an - n1) // 2)
        return [
            "deviate", "--design", text, *targets, "--n-an", str(n_an),
            "--s1", str(s1), "--s", str(s_an), "--rule", kind[len("deviate_"):], *fmt,
        ]
    # commands that must be rejected with exit status 2
    bad = rng.choice(("design", "successes", "method", "null", "nan", "stage1"))
    if bad == "design":
        return ["ci", "--design", f"{n1}/{a1 + 1},{a}/{n}", "--s", "3", "--m", str(n), *fmt]
    if bad == "successes":
        return ["estimate", "--design", text, "--s", str(n + 3), "--m", str(n), *fmt]
    if bad == "method":
        return ["ci", *state, "--method", "agresti", *fmt]
    if bad == "null":
        return ["pvalue", *state, *fmt]
    if bad == "nan":
        return ["deviate", "--design", text, *targets, "--n-an", str(n1), "--s1", str(a1 + 1),
                "--s", str(a1 + 1), *fmt]
    return ["estimate", "--design", text, "--s", str(a1 + 1), "--m", str(n1), *fmt]


# ---------------------------------------------------------------------------
# schedules

POOLS = {"search": search_pool, "audit": audit_pool, "analyse": analyse_pool}


def schedule(workload: str, seed: int) -> Iterator[dict]:
    """The endless op sequence of one run: the same seed, the same ops."""
    pool = POOLS[workload]()
    if workload == "search":
        # the anchors run first, in their fixed order, then the grid
        yield from pool["anchor"]
        pattern: tuple[str, ...] = ("grid",)
    elif workload == "audit":
        pattern = AUDIT_SLOTS
    else:
        pattern = ANALYSE_SLOTS
    streams = {
        kind: _shuffled_forever(pool[kind], random.Random(f"{workload}:{kind}:{seed}"))
        for kind in pattern
    }
    for kind in cycle(pattern):
        yield next(streams[kind])


def _shuffled_forever(items: list[dict], rng: random.Random) -> Iterator[dict]:
    order = list(items)
    while True:
        rng.shuffle(order)
        yield from order
