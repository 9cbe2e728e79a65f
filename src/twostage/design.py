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
from typing import Iterator, Literal, Optional

import numpy as np

from .binomial import binom_cdf, binom_pmf, binom_pmf_row


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
    a1: int
    a: int
    n1: int
    n: int
    targets: Optional[DesignTargets] = None

    @property
    def n2(self) -> int:
        return self.n - self.n1

    def violations(self) -> list[str]:
        out = []
        if self.a1 < 0:
            out.append("a1 must be >= 0")
        if not self.a1 < self.n1:
            out.append("a1 must be < n1")
        if not self.n1 < self.n:
            out.append("n1 must be < n")
        if not self.a1 <= self.a:
            out.append("a must be >= a1")
        if not self.a < self.n:
            out.append("a must be < n")
        return out

    def require_valid(self) -> "TwoStageDesign":
        problems = self.violations()
        if problems:
            raise ValueError(f"invalid design {self.compact()}: " + "; ".join(problems))
        return self

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
        return cls(a1=a1, a=a, n1=n1, n=n, targets=targets).require_valid()

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
        return cls(
            a1=data["a1"], a=data["a"], n1=data["n1"], n=data["n"], targets=targets
        ).require_valid()

    def with_targets(self, targets: DesignTargets) -> "TwoStageDesign":
        return dataclasses.replace(self, targets=targets)

    def with_final_n(self, n_final: int) -> "TwoStageDesign":
        """The design as analysed with a realised final sample size."""
        if n_final <= self.n1:
            raise ValueError(f"final sample size {n_final} must exceed n1={self.n1}")
        return dataclasses.replace(self, n=n_final)


@dataclass(frozen=True)
class TerminalOutcome:
    """A stopping state: s successes at sample size m in the given stage."""

    s: int
    stage: Literal[1, 2]
    m: int


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


def terminal_outcomes(
    design: TwoStageDesign, n_final: Optional[int] = None
) -> Iterator[TerminalOutcome]:
    """All terminal outcomes of the design in stagewise order."""
    nf = design.n if n_final is None else n_final
    for s in range(design.a1 + 1):
        yield TerminalOutcome(s=s, stage=1, m=design.n1)
    for s in range(design.a1 + 1, nf + 1):
        yield TerminalOutcome(s=s, stage=2, m=nf)


def terminal_pmf(
    design: TwoStageDesign, p: float, n_final: Optional[int] = None
) -> tuple[list[float], list[float]]:
    """Exact distribution of the design's terminal outcomes under p.

    ``stop[s]`` is P(stop at stage 1 with s successes) for s = 0..a1, and
    ``cont[s]`` is P(continue and end with s total successes) for
    s = 0..n_final, zero for s <= a1. Rejection probabilities, q-values,
    interval tails, bias and coverage are all sums over these two rows.
    """
    d = design.require_valid()
    nf = d.n if n_final is None else n_final
    if nf <= d.n1:
        raise ValueError(f"final sample size {nf} must exceed n1={d.n1}")
    n2 = nf - d.n1
    row1 = binom_pmf_row(d.n1, p)
    row2 = binom_pmf_row(n2, p)
    cont = [0.0] * (nf + 1)
    for i in range(d.a1 + 1, d.n1 + 1):
        w = row1[i]
        for s, q in enumerate(row2, start=i):
            cont[s] += w * q
    return row1[: d.a1 + 1], cont


def continuation_tail(cont: list[float], s: int) -> float:
    """P(continue and end with at least s total successes)."""
    return min(1.0, math.fsum(cont[s:]))


def terminal_distribution(
    s: int,
    stage: int,
    p: float,
    design: TwoStageDesign,
    n_final: Optional[int] = None,
) -> float:
    """Probability of ending the given stage with exactly s total successes."""
    design.require_valid()
    nf = design.n if n_final is None else n_final
    if stage == 1:
        if s > design.n1:
            raise ValueError(f"stage-1 successes {s} exceed n1={design.n1}")
        return binom_pmf(s, design.n1, p)
    if stage != 2:
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    _, cont = terminal_pmf(design, p, nf)
    if s > nf:
        raise ValueError(f"successes {s} exceed final sample size {nf}")
    return cont[s] if s >= 0 else 0.0


def pet(p: float, design: TwoStageDesign) -> float:
    """Probability of early termination for futility at stage 1."""
    design.require_valid()
    return binom_cdf(design.a1, design.n1, p)


def expected_sample_size(p: float, design: TwoStageDesign) -> float:
    design.require_valid()
    return design.n1 + (1.0 - pet(p, design)) * (design.n - design.n1)


def reject_prob(p: float, design: TwoStageDesign) -> float:
    """Probability that the trial continues and the total exceeds a.

    The same tail of the same kernel as the stage-2 p-value, so comparing
    a boundary p-value against the attained type-I error never splits on a
    rounding difference.
    """
    _, cont = terminal_pmf(design, p)
    return continuation_tail(cont, design.a + 1)


def operating_characteristics(
    design: TwoStageDesign, targets: Optional[DesignTargets] = None
) -> OperatingCharacteristics:
    design.require_valid()
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


def _reject_matrix(pmf1: np.ndarray, pmf2: np.ndarray) -> np.ndarray:
    """R[a1, a] = P(continue past a1 and total successes > a), a = 0..n-1,
    for the stage-1 and stage-2 pmf rows of a design with n = n1 + n2.

    Rows run a1 = 0..n1-1.
    """
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


def _frontier(
    targets: DesignTargets, n_max: int
) -> Iterator[tuple[float, int, TwoStageDesign]]:
    """(en_p0, n, design) for the smallest-EN(p0) feasible design at each n
    that has one, in increasing n; ties go to the smaller n1.

    The null-optimal, minimax and admissible designs are all points of this
    frontier. For each (n1, a1) only the smallest a controlling alpha is
    kept, as that choice maximises power for the pair. Raises
    InfeasibleDesignError, naming the binding constraint, if no n <= n_max
    has a feasible design.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    p0, p1 = targets.p0, targets.p1
    # rows[m] holds the Bin(m, p0) and Bin(m, p1) pmf rows; n = 1 only adds
    # the m = 0 rows. Rows are added as n grows rather than built up to
    # n_max, whose rows alone would take about 800 MB at n_max = 10000, so a
    # search that stops early builds only the rows it reads.
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    any_alpha_ok = found = False
    for n in range(1, n_max + 1):
        rows.append((np.array(binom_pmf_row(n - 1, p0)), np.array(binom_pmf_row(n - 1, p1))))
        best = None
        for n1 in range(1, n):
            (pmf1_p0, pmf1_p1), (pmf2_p0, pmf2_p1) = rows[n1], rows[n - n1]
            r0 = _reject_matrix(pmf1_p0, pmf2_p0)
            r1 = _reject_matrix(pmf1_p1, pmf2_p1)
            cdf1 = np.cumsum(pmf1_p0)
            for a1 in range(n1):
                ok = np.nonzero(r0[a1, a1:] <= targets.alpha)[0]
                if ok.size == 0:
                    continue
                any_alpha_ok = True
                a = a1 + int(ok[0])
                if r1[a1, a] < 1.0 - targets.beta:
                    continue
                en_p0 = n1 + (1.0 - float(cdf1[a1])) * (n - n1)
                if best is None or en_p0 < best[0]:
                    best = (en_p0, a1, a, n1)
        if best is not None:
            found = True
            en_p0, a1, a, n1 = best
            yield en_p0, n, TwoStageDesign(a1=a1, a=a, n1=n1, n=n, targets=targets)
    if not found:
        constraint = "power" if any_alpha_ok else "type-I error"
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
