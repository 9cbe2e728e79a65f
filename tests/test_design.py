"""Design representation, operating characteristics, and optimal search."""

import dataclasses
import json
import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    binding_constraint_oracle,
    brute_force_both,
    brute_force_frontier,
    brute_force_search,
    en_oracle,
    exact_terminal_row,
    first_feasible_n,
    reject_matrix_oracle,
    reject_prob_oracle,
    terminal_probs,
    ump_first_n,
)
from twostage.binomial import MAX_SAMPLE_SIZE, binom_pmf, binom_pmf_row
from twostage.design import (
    DesignTargets,
    InfeasibleDesignError,
    TwoStageDesign,
    _frontier,
    _head,
    _log_counts,
    _np_lower_bound,
    _tables,
    _tail,
    admissible_set,
    continuation_tail,
    expected_sample_size,
    operating_characteristics,
    pet,
    reject_prob,
    search_designs,
    terminal_distribution,
    terminal_pmf,
)

TARGETS = DesignTargets(p0=0.1, p1=0.3, alpha=0.05, beta=0.2)
DESIGN = TwoStageDesign(a1=1, a=5, n1=10, n=29, targets=TARGETS)


def test_validation_catches_ordering_violations():
    # every way of making a design rejects the same boundaries, naming each
    # violated condition
    cases = [
        (lambda: TwoStageDesign(a1=5, a=3, n1=10, n=29), "5/10, 3/29: a must be >= a1"),
        (lambda: TwoStageDesign(a1=1, a=5, n1=29, n=29), "1/29, 5/29: n1 must be < n"),
        (lambda: TwoStageDesign(a1=10, a=12, n1=10, n=29), "10/10, 12/29: a1 must be < n1"),
        (lambda: TwoStageDesign(a1=-1, a=5, n1=10, n=29), "-1/10, 5/29: a1 must be >= 0"),
        (
            lambda: TwoStageDesign(a1=10, a=3, n1=10, n=3),
            "10/10, 3/3: a1 must be < n1; n1 must be < n; a must be >= a1; a must be < n",
        ),
        (lambda: dataclasses.replace(DESIGN, a=0), "1/10, 0/29: a must be >= a1"),
        (
            lambda: TwoStageDesign.from_json_dict({**DESIGN.to_json_dict(), "n1": 29}),
            "1/29, 5/29: n1 must be < n",
        ),
        (lambda: TwoStageDesign.from_compact("3/10, 2/29"), "3/10, 2/29: a must be >= a1"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError, match=re.escape(f"invalid design {message}")):
            make()
    assert dataclasses.replace(DESIGN, a=28).a == 28
    # an n above the cap is invalid however the design is made
    above = MAX_SAMPLE_SIZE + 1
    for make in (
        lambda: TwoStageDesign(a1=1, a=5, n1=10, n=above),
        lambda: TwoStageDesign.from_compact(f"1/10, 5/{above}"),
        lambda: TwoStageDesign.from_json_dict({**DESIGN.to_json_dict(), "n": above}),
        lambda: dataclasses.replace(DESIGN, n=above),
        lambda: DESIGN.with_final_n(above),
    ):
        with pytest.raises(ValueError, match=re.escape(f"n exceeds the cap of {MAX_SAMPLE_SIZE}")):
            make()
    assert dataclasses.replace(DESIGN, n=MAX_SAMPLE_SIZE).n == MAX_SAMPLE_SIZE
    # a realised final size must leave a second stage
    with pytest.raises(ValueError, match="final sample size 10 must exceed n1=10"):
        DESIGN.with_final_n(DESIGN.n1)


def test_compact_round_trip():
    assert DESIGN.compact() == "1/10, 5/29"
    parsed = TwoStageDesign.from_compact("1/10, 5/29", targets=TARGETS)
    assert (parsed.a1, parsed.a, parsed.n1, parsed.n) == (1, 5, 10, 29)
    assert TwoStageDesign.from_compact("1/10,5/29").n == 29
    with pytest.raises(ValueError):
        TwoStageDesign.from_compact("1/10")
    with pytest.raises(ValueError):
        TwoStageDesign.from_compact("one/ten, five/29")


def test_json_round_trip():
    data = json.loads(DESIGN.to_json())
    restored = TwoStageDesign.from_json_dict(data)
    assert restored == DESIGN
    assert restored.targets == TARGETS


def test_terminal_outcomes_enumeration():
    # each total s = 0..n names one terminal outcome (s, size_at(s))
    sizes = [DESIGN.size_at(s) for s in range(DESIGN.n + 1)]
    assert sizes == [10] * 2 + [29] * 28
    assert DESIGN.with_final_n(26).size_at(1) == 10
    assert DESIGN.with_final_n(26).size_at(2) == 26


def test_terminal_distribution_against_path_enumeration():
    for p in (0.05, 0.1, 0.3, 0.55):
        oracle = terminal_probs(1, 10, 29, p)
        for s in range(DESIGN.n + 1):
            m = DESIGN.size_at(s)
            stage = 1 if m == DESIGN.n1 else 2
            assert terminal_distribution(s, stage, p, DESIGN) == pytest.approx(
                oracle[(s, m)], abs=1e-12
            )


def test_terminal_pmf_rows_match_path_enumeration():
    for p in (0.1, 0.3):
        oracle = terminal_probs(1, 10, 29, p)
        row = terminal_pmf(DESIGN, p)
        assert len(row) == 30
        assert row[:2] == pytest.approx([oracle[(s, 10)] for s in range(2)], abs=1e-12)
        assert row[2:] == pytest.approx([oracle[(s, 29)] for s in range(2, 30)], abs=1e-12)
        assert continuation_tail(row, DESIGN.a + 1) == reject_prob(p, DESIGN)
        assert continuation_tail(row, 30) == 0.0


ORACLE_DESIGNS = [(1, 5, 10, 29), (13, 40, 40, 110), (5, 13, 105, 169), (30, 80, 150, 400)]


@pytest.mark.parametrize("a1,a,n1,n", ORACLE_DESIGNS)
def test_terminal_pmf_matches_exact_path_enumeration(a1, a, n1, n):
    design = TwoStageDesign(a1=a1, a=a, n1=n1, n=n)
    for p in (1e-4, 0.01, 0.3, 0.77, 0.999):
        row = terminal_pmf(design, p)
        exact_row = exact_terminal_row(a1, n1, n, p)
        assert len(row) == len(exact_row) == n + 1
        for got, want in zip(row, exact_row):
            if want > 1e-290:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a1,a,n1,n", ORACLE_DESIGNS)
def test_terminal_pmf_is_exact_at_p_0_and_1(a1, a, n1, n):
    design = TwoStageDesign(a1=a1, a=a, n1=n1, n=n)
    assert terminal_pmf(design, 0.0) == [1.0] + [0.0] * n
    assert terminal_pmf(design, 1.0) == [0.0] * n + [1.0]


def test_terminal_pmf_counts_beyond_the_float_range():
    # C(2000, 1000) is about 1e600; the kernel takes logs of exact counts
    design = TwoStageDesign(a1=300, a=900, n1=1000, n=2000)
    assert max(_log_counts(300, 1000, 2000)) > math.log(sys.float_info.max)
    for p in (0.3, 0.5, 0.77):
        row = terminal_pmf(design, p)
        assert all(math.isfinite(x) for x in row)
        assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)


def test_terminal_pmf_builds_one_count_row_per_design():
    design = TwoStageDesign(a1=4, a=15, n1=19, n=54)
    _log_counts.cache_clear()
    for k in range(1, 201):
        terminal_pmf(design, k / 201)
    info = _log_counts.cache_info()
    assert (info.misses, info.hits) == (1, 199)


def test_terminal_pmf_rejects_a_final_size_above_the_cap():
    with pytest.raises(ValueError, match="cap"):
        terminal_pmf(DESIGN.with_final_n(10**6), 0.1)
    with pytest.raises(ValueError, match="cap"):
        reject_prob(0.1, TwoStageDesign(a1=1, a=5, n1=10, n=MAX_SAMPLE_SIZE + 1))


def test_terminal_distribution_known_value():
    # P(stop then continue to exactly 2 total successes) under p = 0.1:
    # only the path (s1=2, s2=0) contributes
    assert terminal_distribution(2, 2, 0.1, DESIGN) == pytest.approx(
        0.02616738165136802, abs=1e-12
    )


@given(
    n1=st.integers(min_value=2, max_value=12),
    extra=st.integers(min_value=1, max_value=12),
    a1=st.integers(min_value=0, max_value=11),
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_terminal_distribution_sums_to_one(n1, extra, a1, p):
    a1 = min(a1, n1 - 1)
    n = n1 + extra
    design = TwoStageDesign(a1=a1, a=min(a1 + 1, n - 1), n1=n1, n=n)
    total = sum(
        terminal_distribution(s, 1 if s <= a1 else 2, p, design) for s in range(n + 1)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n_final", [None, 26, 33])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.77, 1.0])
def test_terminal_distribution_over_every_stage_and_s_sums_to_one(n_final, p):
    # every (s, stage) pair, not only the terminal outcomes: a stage-1 s
    # above a1 continues, so it must carry no probability of stopping
    design = DESIGN if n_final is None else DESIGN.with_final_n(n_final)
    total = math.fsum(
        terminal_distribution(s, stage, p, design)
        for stage, top in ((1, design.n1), (2, design.n))
        for s in range(-1, top + 1)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_terminal_distribution_indexes_the_kernel_rows():
    at33 = DESIGN.with_final_n(33)
    row = terminal_pmf(at33, 0.3)
    for s in range(-2, DESIGN.n1 + 1):
        want = row[s] if 0 <= s <= DESIGN.a1 else 0.0
        assert terminal_distribution(s, 1, 0.3, at33) == want
    for s in range(-2, 34):
        want = row[s] if s > DESIGN.a1 else 0.0
        assert terminal_distribution(s, 2, 0.3, at33) == want
    # the stage-1 terms are the scalar kernel's, bit for bit
    for p in (0.01, 0.1, 0.3, 0.5, 0.99):
        for s in range(DESIGN.a1 + 1):
            assert terminal_distribution(s, 1, p, DESIGN) == binom_pmf(s, DESIGN.n1, p)


def test_terminal_distribution_rejects_impossible_arguments():
    with pytest.raises(ValueError, match="exceed n1"):
        terminal_distribution(11, 1, 0.3, DESIGN)
    with pytest.raises(ValueError, match="final sample size"):
        terminal_distribution(30, 2, 0.3, DESIGN)
    with pytest.raises(ValueError, match="final sample size"):
        terminal_distribution(27, 2, 0.3, DESIGN.with_final_n(26))
    with pytest.raises(ValueError, match="stage must be 1 or 2"):
        terminal_distribution(3, 3, 0.3, DESIGN)


def test_operating_characteristics_known_design():
    oc = operating_characteristics(DESIGN)
    assert oc.alpha_attained == pytest.approx(0.04708630664389129, abs=1e-12)
    assert oc.power_attained == pytest.approx(0.8050629131503233, abs=1e-10)
    assert oc.pet_p0 == pytest.approx(0.7360989291, abs=1e-10)
    assert oc.en_p0 == pytest.approx(15.0141203471, abs=1e-9)
    assert pet(0.1, DESIGN) == pytest.approx(oc.pet_p0)
    assert expected_sample_size(0.1, DESIGN) == pytest.approx(oc.en_p0)


def test_reject_prob_matches_oracle():
    for p in (0.05, 0.1, 0.3, 0.5):
        assert reject_prob(p, DESIGN) == pytest.approx(
            reject_prob_oracle(1, 5, 10, 29, p), abs=1e-12
        )


def test_oc_requires_targets():
    bare = TwoStageDesign(a1=1, a=5, n1=10, n=29)
    with pytest.raises(ValueError):
        operating_characteristics(bare)


def test_search_known_designs():
    optimal = search_designs(TARGETS, "null-optimal")
    assert (optimal.a1, optimal.a, optimal.n1, optimal.n) == (1, 5, 10, 29)
    minimax = search_designs(TARGETS, "minimax")
    assert (minimax.a1, minimax.a, minimax.n1, minimax.n) == (1, 5, 15, 25)
    assert search_designs(TARGETS, "optimal") == optimal


@pytest.mark.parametrize("p0,p1", [(0.05, 0.25), (0.2, 0.4), (0.3, 0.5)])
@pytest.mark.parametrize("criterion", ["null-optimal", "minimax"])
def test_search_matches_brute_force(p0, p1, criterion):
    targets = DesignTargets(p0=p0, p1=p1, alpha=0.05, beta=0.2)
    found = search_designs(targets, criterion, n_max=50)
    expected = brute_force_search(p0, p1, 0.05, 0.2, criterion, n_max=50)
    assert (found.a1, found.a, found.n1, found.n) == expected


def test_search_constraints_hold():
    design = search_designs(TARGETS, "null-optimal")
    oc = operating_characteristics(design)
    assert oc.alpha_attained <= 0.05
    assert oc.power_attained >= 0.8


def test_infeasible_reports_binding_constraint():
    with pytest.raises(InfeasibleDesignError) as excinfo:
        search_designs(TARGETS, "null-optimal", n_max=20)
    assert excinfo.value.binding_constraint == "power"
    tight = DesignTargets(p0=0.1, p1=0.11, alpha=1e-6, beta=0.2)
    with pytest.raises(InfeasibleDesignError) as excinfo:
        search_designs(tight, "null-optimal", n_max=5)
    assert excinfo.value.binding_constraint == "type-I error"
    with pytest.raises(InfeasibleDesignError) as excinfo:
        admissible_set(tight, n_max=5)
    assert excinfo.value.binding_constraint == "type-I error"


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError):
        search_designs(TARGETS, "maximin")


def test_admissible_set_structure():
    entries = admissible_set(TARGETS, n_max=40)
    optimal = search_designs(TARGETS, "null-optimal", n_max=40)
    minimax = search_designs(TARGETS, "minimax", n_max=40)
    assert entries[0].design == optimal
    assert entries[-1].design == minimax
    # weight intervals partition [0, 1]
    assert entries[0].w_low == 0.0
    assert entries[-1].w_high == 1.0
    for prev, cur in zip(entries, entries[1:]):
        assert prev.w_high == pytest.approx(cur.w_low)
        assert prev.design.n > cur.design.n
    # every admissible design minimises the weighted objective at the
    # midpoint of its interval, over the whole brute-force frontier
    frontier = brute_force_frontier(0.1, 0.3, 0.05, 0.2, n_max=40)
    for entry in entries:
        w = 0.5 * (entry.w_low + entry.w_high)
        d = entry.design
        score = w * d.n + (1 - w) * en_oracle(d.a1, d.n1, d.n, 0.1)
        best = min(w * n + (1 - w) * en for n, en in frontier.items())
        assert score == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("p", [0.0, 1e-4, 0.05, 0.3, 0.5, 0.95, 1.0])
def test_search_sums_equal_the_reject_matrix_bit_for_bit(p):
    for n1 in (1, 2, 5, 13, 30):
        first = _tables(n1, p, cdf=True)
        assert first.cdf == np.cumsum(first.pmf).tolist()
        for n2 in (1, 4, 17, 40):
            second = _tables(n2, p, cdf=False)
            head = _head(first.pmf, second.sf)
            matrix = reject_matrix_oracle(first.pmf, binom_pmf_row(n2, p))
            for a1 in range(n1):
                tails = [_tail(first.pmf, second.sf, head, a1, a) for a in range(a1, n1 + n2)]
                assert tails == matrix[a1, a1:].tolist()
                # the search reads R(a1, n - 1) directly, and breaks on the
                # power bound sf1[a1 + 1] (clipped at 1.0 like 1 - beta)
                assert first.pmf[n1] * second.sf[n2] == matrix[a1, -1]
                assert min(max(matrix[a1]), 1.0) <= first.sf[a1 + 1]


@pytest.mark.parametrize(
    "p0,p1",
    [
        (0.05, 0.25), (0.1, 0.3), (0.2, 0.4), (0.25, 0.5),
        # null-optimal n of 9, 10 and 14: the walk stops well before 40
        (0.1, 0.5), (0.3, 0.7), (0.5, 0.9),
    ],
)
def test_frontier_is_the_brute_force_staircase(p0, p1):
    targets = DesignTargets(p0=p0, p1=p1, alpha=0.05, beta=0.2)
    frontier = list(_frontier(targets, 40))
    for _, n, d in frontier:
        # a is the smallest a >= a1 that controls alpha for (n1, a1)
        matrix = reject_matrix_oracle(binom_pmf_row(d.n1, p0), binom_pmf_row(n - d.n1, p0))
        assert matrix[d.a1, d.a] <= 0.05
        assert d.a == d.a1 or matrix[d.a1, d.a - 1] > 0.05
    yielded = {n: en for en, n, _ in frontier}
    brute = brute_force_frontier(p0, p1, 0.05, 0.2, n_max=40)
    assert min(yielded) == min(brute)
    for n, en in yielded.items():
        assert en == pytest.approx(brute[n], abs=1e-12)
    for n, en in brute.items():
        smaller = [brute[m] for m in brute if m < n]
        if n in yielded:
            assert not smaller or en <= min(smaller) + 1e-12
        else:
            # a skipped n is strictly dominated by a smaller one
            assert en > min(smaller)


def test_tie_breaks_when_en_equals_n1():
    # with p0 = 0 the trial never continues under the null, so EN(p0) = n1
    # for every a1 and n, and the smallest n1 with power (8) ties across n
    targets = DesignTargets(p0=0.0, p1=0.2, alpha=0.05, beta=0.2)
    # an n whose EN ties the best EN at a smaller n stays on the frontier
    assert [(en, n, d.compact()) for en, n, d in _frontier(targets, 12)] == [
        (8.0, n, f"0/8, 0/{n}") for n in range(9, 13)
    ]
    for criterion in ("null-optimal", "minimax"):
        assert search_designs(targets, criterion, n_max=12).compact() == "0/8, 0/9"
    assert brute_force_both(0.0, 0.2, 0.05, 0.2, n_max=12) == {
        "null-optimal": (0, 0, 8, 9),
        "minimax": (0, 0, 8, 9),
    }
    entries = admissible_set(targets, n_max=12)
    assert [(e.w_low, e.w_high, e.design.compact()) for e in entries] == [
        (0.0, 1.0, "0/8, 0/9")
    ]


def test_minimax_search_builds_only_the_rows_it_reads():
    assert search_designs(TARGETS, "minimax", n_max=MAX_SAMPLE_SIZE) == search_designs(
        TARGETS, "minimax", n_max=40
    )


# Simon's grid, each (p0, p1) with one of his three (alpha, beta) pairs in
# turn, then edge targets: p0 = 0, p1 = 1, a tiny alpha and beta = 0.5
SIMON_ERRORS = [(0.05, 0.2), (0.05, 0.1), (0.1, 0.1)]
NP_TARGETS = [
    (p0, round(p0 + delta, 2), *SIMON_ERRORS[i % 3])
    for i, (p0, delta) in enumerate(
        (p0, delta)
        for p0 in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
        for delta in (0.15, 0.2)
    )
] + [
    (0.0, 0.2, 0.05, 0.2),
    (0.0, 0.05, 0.05, 0.2),
    (0.5, 1.0, 0.05, 0.2),
    (0.9, 1.0, 0.05, 0.2),
    (0.0, 1.0, 0.05, 0.2),
    (0.1, 0.5, 1e-6, 0.2),
    (0.1, 0.3, 0.05, 0.5),
    (0.3, 0.6, 1e-6, 0.5),
]


@pytest.mark.parametrize("p0,p1,alpha,beta", NP_TARGETS)
def test_np_lower_bound_against_brute_force(p0, p1, alpha, beta):
    bound = _np_lower_bound(DesignTargets(p0=p0, p1=p1, alpha=alpha, beta=beta), 400)
    # no n below the bound holds a feasible design, and the bound is the
    # UMP test's own first n, so it is as tight as its argument allows
    assert bound <= first_feasible_n(p0, p1, alpha, beta, 400)
    assert bound == ump_first_n(p0, p1, alpha, beta, 400)


def test_binding_constraint_matches_the_quadratic_loop():
    # alpha sits at, just below or just above p0^n_max, the smallest
    # type-I error of any design of size n_max, so both answers occur; no
    # design reaches power 1 - 1e-9 at p1 this close to p0
    rng = random.Random(17)
    seen = set()
    for _ in range(300):
        p0, n_max = rng.uniform(0.05, 0.95), rng.randint(2, 40)
        alpha = min(0.5, p0**n_max * rng.choice((0.5, 1.0, 2.0)))
        targets = DesignTargets(p0, p0 + 0.01 * (1.0 - p0), alpha, 1e-9)
        with pytest.raises(InfeasibleDesignError) as excinfo:
            search_designs(targets, "minimax", n_max=n_max)
        expected = binding_constraint_oracle(p0, alpha, n_max)
        assert excinfo.value.binding_constraint == expected, (p0, alpha, n_max)
        seen.add(expected)
    assert seen == {"power", "type-I error"}


def test_binding_constraint_at_the_sample_size_cap():
    # every design has type-I error at least 0.9^5000, about 1e-229; the
    # quadratic loop took seconds here, the prefix minimum milliseconds
    targets = DesignTargets(0.9, 0.95, 1e-300, 0.2)
    with pytest.raises(InfeasibleDesignError) as excinfo:
        search_designs(targets, "minimax", n_max=MAX_SAMPLE_SIZE)
    assert excinfo.value.binding_constraint == "type-I error"


def test_np_lower_bound_past_n_max():
    # the minimax n for these targets is 25 and the UMP bound 23
    assert _np_lower_bound(TARGETS, 400) == _np_lower_bound(TARGETS, 23) == 23
    # no n <= n_max reaches the UMP target: n_max + 1
    assert _np_lower_bound(TARGETS, 10) == 11
    assert _np_lower_bound(TARGETS, 2) == 3
    with pytest.raises(InfeasibleDesignError) as excinfo:
        search_designs(TARGETS, "minimax", n_max=24)
    assert excinfo.value.binding_constraint == "power"


def test_null_optimal_search_stops_after_its_optimum(monkeypatch):
    built = []
    tables = _tables

    def recording(m, p, cdf):
        built.append(m)
        return tables(m, p, cdf)

    monkeypatch.setattr("twostage.design._tables", recording)
    # the optimum is 1/10, 5/29 with EN(p0) 15.0; the walk ends at n = 36
    found = search_designs(TARGETS, "null-optimal", n_max=MAX_SAMPLE_SIZE)
    assert found.compact() == "1/10, 5/29"
    assert max(built) < 36
    assert admissible_set(TARGETS, n_max=MAX_SAMPLE_SIZE) == admissible_set(TARGETS, n_max=40)


def test_search_rejects_an_n_max_above_the_cap_before_building_a_row(monkeypatch):
    built = []
    tables = _tables

    def recording(m, p, cdf):
        built.append(m)
        return tables(m, p, cdf)

    monkeypatch.setattr("twostage.design._tables", recording)
    for search in (
        lambda n_max: search_designs(TARGETS, "null-optimal", n_max=n_max),
        lambda n_max: search_designs(TARGETS, "minimax", n_max=n_max),
        lambda n_max: admissible_set(TARGETS, n_max=n_max),
    ):
        for n_max in (MAX_SAMPLE_SIZE + 1, 10**9):
            with pytest.raises(ValueError, match="cap"):
                search(n_max)
    assert built == []


def test_targets_validation():
    with pytest.raises(ValueError):
        DesignTargets(p0=0.3, p1=0.1, alpha=0.05, beta=0.2)
    with pytest.raises(ValueError):
        DesignTargets(p0=0.1, p1=0.3, alpha=0.0, beta=0.2)
    with pytest.raises(ValueError):
        DesignTargets(p0=-0.1, p1=0.3, alpha=0.05, beta=0.2)


def test_with_final_n():
    shifted = DESIGN.with_final_n(26)
    assert shifted.n == 26
    assert (shifted.a1, shifted.a, shifted.n1) == (1, 5, 10)
    assert shifted.targets == TARGETS
    # an a that the realised size cannot exceed becomes a1; one it can
    # exceed is kept
    wide = TwoStageDesign(a1=1, a=12, n1=10, n=29, targets=TARGETS)
    for m, a in ((11, 1), (12, 1), (13, 12), (40, 12)):
        assert wide.with_final_n(m) == TwoStageDesign(a1=1, a=a, n1=10, n=m, targets=TARGETS)
