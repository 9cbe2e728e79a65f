"""Record ingestion, consistency checking, and summary aggregation."""

import json
import math
import os
import random
from decimal import ROUND_HALF_EVEN, Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    check_ci_consistency_oracle,
    check_estimate_consistency_oracle,
    rounds_to_decimal_oracle,
)
from twostage import audit, inference
from twostage.audit import (
    ParseResult,
    TrialRecord,
    audit_summary,
    check_ci_consistency,
    check_estimate_consistency,
    export_figure_data,
    infer_termination_stage,
    parse_records,
    report_to_json,
    write_figure_data,
)
from twostage.inference import CI_METHODS, estimate_all, interval_for_outcome

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "audit_golden.csv")


def load_golden() -> ParseResult:
    with open(GOLDEN, newline="") as handle:
        return parse_records(handle)


# ---------------------------------------------------------------------------
# parsing


def test_parse_golden_clean():
    parsed = load_golden()
    assert len(parsed.records) == 12
    assert parsed.errors == []
    assert parsed.warnings == []


def test_parse_percent_normalisation():
    parsed = parse_records("id,p0,est,ci_level\nT,20,27.9%,95\n")
    (record,) = parsed.records
    assert record.p0 == pytest.approx(0.2)
    assert record.est_reported == pytest.approx(0.279)
    assert record.ci_level == pytest.approx(0.95)
    assert set(record.percent_normalised) == {"p0", "est", "ci_level"}
    # percent inputs keep their effective decimal precision
    assert record.est_decimals == 3


def test_parse_tab_delimiter():
    parsed = parse_records("id\tp0\tn\nT\t0.2\t43\n")
    (record,) = parsed.records
    assert record.p0 == pytest.approx(0.2)
    assert record.n == 43


def test_parse_collects_row_errors_and_continues():
    parsed = parse_records("id,p0,n\nGOOD,0.1,29\nBAD,zebra,29\nALSO,0.2,29\n")
    assert [r.id for r in parsed.records] == ["GOOD", "ALSO"]
    (error,) = parsed.errors
    assert error.row == 3
    assert error.record_id == "BAD"
    assert "p0" in error.message


@pytest.mark.parametrize("column", ["n", "n_analysis"])
def test_parse_rejects_sample_size_above_the_cap(column):
    parsed = parse_records(f"id,a1,n1,{column}\nHUGE,1,10,{10**6}\nOK,1,10,29\n")
    assert [r.id for r in parsed.records] == ["OK"]
    (error,) = parsed.errors
    assert error.record_id == "HUGE"
    assert column in error.message and "cap" in error.message


@pytest.mark.parametrize(
    "n_analysis, s_analysis, message",
    [
        (20, 30, "column 's_analysis': 30 is outside 0..20"),
        (20, -1, "column 's_analysis': -1 is outside 0..20"),
        (0, 0, "column 'n_analysis': 0 is below 1"),
    ],
    ids=["s_above_n", "s_negative", "n_zero"],
)
def test_parse_rejects_counts_no_analysis_can_have(n_analysis, s_analysis, message):
    parsed = parse_records(
        "id,a1,n1,n,stage,n_analysis,s_analysis\n"
        f"BAD,1,10,29,2,{n_analysis},{s_analysis}\nOK,1,10,29,2,29,6\n"
    )
    assert [r.id for r in parsed.records] == ["OK"]
    (error,) = parsed.errors
    assert (error.row, error.record_id, error.message) == (2, "BAD", message)


# an estimate whose text has 33 decimals, more than Decimal's default
# 28-digit context can quantize to
EST_33_DECIMALS = "0.275862068965517241379310344827586"


@pytest.mark.parametrize(
    "columns, values, message",
    [
        ("est", EST_33_DECIMALS, "column 'est': 33 decimals is outside 0..17"),
        ("est,est_decimals", "0.28,-3", "column 'est_decimals': -3 decimals is outside 0..17"),
        ("est,est_decimals", "0.28,18", "column 'est_decimals': 18 decimals is outside 0..17"),
        ("ci_low,ci_upp", "0.1234567890123456789,0.5", "column 'ci_low': 19 decimals is outside 0..17"),
        ("ci_decimals,ci_upp", "-1,0.5", "column 'ci_decimals': -1 decimals is outside 0..17"),
        ("est", "12.3456789012345678%", "column 'est': 18 decimals is outside 0..17"),
    ],
    ids=["est_text", "est_negative", "est_stated_18", "ci_text", "ci_negative", "est_percent"],
)
def test_parse_rejects_a_precision_that_cannot_be_rounded_to(columns, values, message):
    parsed = parse_records(
        f"id,a1,n1,n,stage,n_analysis,s_analysis,{columns}\nBAD,1,10,29,2,29,8,{values}\n"
    )
    assert parsed.records == []
    (error,) = parsed.errors
    assert (error.row, error.record_id, error.message) == (2, "BAD", message)


@pytest.mark.parametrize(
    "text, decimals",
    [
        ("id,est\nT,0.27586206896551724\n", 17),
        ("id,est,est_decimals\nT,0.28,0\n", 0),
        ("id,est,est_decimals\nT,0.28,17\n", 17),
        # a stated precision overrides the text's, in either column order
        (f"id,est,est_decimals\nT,{EST_33_DECIMALS},3\n", 3),
        (f"id,est_decimals,est\nT,3,{EST_33_DECIMALS}\n", 3),
    ],
)
def test_parse_accepts_a_precision_within_range(text, decimals):
    parsed = parse_records(text)
    assert parsed.errors == []
    assert parsed.records[0].est_decimals == decimals


@pytest.mark.parametrize(
    "raw, level",
    [("1", 1.0), ("0", 0.0), ("100", 1.0), ("1.0", 1.0), ("100%", 1.0)],
    ids=["one", "zero", "percent_100", "one_point_zero", "percent_sign"],
)
def test_parse_rejects_a_ci_level_outside_the_open_unit_interval(raw, level):
    parsed = parse_records(f"id,ci_level,ci_low,ci_upp\nBAD,{raw},0.1,0.5\nOK,95,0.1,0.5\n")
    assert [(r.id, r.ci_level) for r in parsed.records] == [("OK", 0.95)]
    (error,) = parsed.errors
    assert (error.row, error.record_id, error.message) == (
        2, "BAD", f"column 'ci_level': confidence level must lie in (0, 1), got {level}"
    )


def test_parse_warns_on_unknown_columns():
    parsed = parse_records("id,flavour\nT,vanilla\n")
    assert parsed.warnings and "flavour" in parsed.warnings[0]
    assert parsed.records[0].id == "T"


def test_parse_rejects_out_of_range_proportion():
    parsed = parse_records("id,p0\nT,250\n")
    assert parsed.records == []
    assert "p0" in parsed.errors[0].message


def test_parse_boolean_and_stage_validation():
    parsed = parse_records("id,p0_justified,stage\nT,yes,3\n")
    assert "stage" in parsed.errors[0].message
    parsed = parse_records("id,p0_justified,stage\nT,maybe,2\n")
    assert "p0_justified" in parsed.errors[0].message


# ---------------------------------------------------------------------------
# stage inference


def test_stage_inference_precedence():
    assert infer_termination_stage(TrialRecord(stage_claimed=1, s1=4)) == 1
    assert infer_termination_stage(TrialRecord(s1=4)) == 2
    assert infer_termination_stage(TrialRecord(n1=10, n=29, n_analysis=9)) == 1
    assert infer_termination_stage(TrialRecord(n1=10, n=29, n_analysis=10)) == 1
    assert infer_termination_stage(TrialRecord(n1=10, n=29, n_analysis=29)) == 2
    assert infer_termination_stage(TrialRecord(n1=10, n=29, n_analysis=31)) == 2
    assert infer_termination_stage(TrialRecord(n1=10, n=29, n_analysis=20)) == "unclear"
    assert infer_termination_stage(TrialRecord()) == "unclear"


# ---------------------------------------------------------------------------
# consistency checks


def test_naive_consistent_records_match_only_naive():
    records = {r.id: r for r in load_golden().records}
    for rid in ("R01", "R02", "R03", "R04", "R05", "R06"):
        check = check_estimate_consistency(records[rid])
        assert check.evaluable and check.adjusted_evaluable
        assert check.matched_estimators == {"naive"}


def test_umvue_consistent_records_match_only_umvue():
    records = {r.id: r for r in load_golden().records}
    for rid in ("R07", "R08"):
        check = check_estimate_consistency(records[rid])
        assert check.matched_estimators == {"umvue"}


def test_non_evaluable_reasons():
    records = {r.id: r for r in load_golden().records}
    assert check_estimate_consistency(records["R09"]).reason == "estimate absent"
    assert (
        check_estimate_consistency(records["R10"]).reason
        == "successes or sample size absent"
    )
    assert (
        check_ci_consistency(records["R09"]).reason
        == "not evaluable (method out of scope)"
    )
    assert check_ci_consistency(records["R11"]).reason == "termination stage not 2"


def test_ci_checks_on_golden():
    records = {r.id: r for r in load_golden().records}
    for rid in ("R01", "R02", "R03", "R04", "R05", "R06"):
        check = check_ci_consistency(records[rid])
        assert check.matched_intervals == {"CP"}
    for rid in ("R07", "R08"):
        assert check_ci_consistency(records[rid]).matched_intervals == {"JT"}


def test_reversed_interval_invalid():
    record = TrialRecord(
        stage_claimed=2, s_analysis=6, n_analysis=29,
        ci_level=0.95, ci_low=0.4, ci_upp=0.1,
    )
    assert check_ci_consistency(record).reason == "interval endpoints reversed"


def test_missing_level_invalid():
    record = TrialRecord(
        stage_claimed=2, s_analysis=6, n_analysis=29, ci_low=0.1, ci_upp=0.4
    )
    assert check_ci_consistency(record).reason == "level absent"


# ---------------------------------------------------------------------------
# summary


def test_golden_summary_counts():
    records = load_golden().records
    summary = audit_summary(records)
    assert summary["n_records"] == 12
    assert summary["stage_counts"]["1"]["count"] == 0
    assert summary["stage_counts"]["2"]["count"] == 10
    assert summary["stage_counts"]["unclear"]["count"] == 2

    design = summary["design_reporting"]
    assert design["stated_p0"] == {"count": 12, "denominator": 12, "percent": 100.0}
    assert design["justified_p0"]["count"] == 7
    assert design["stated_all_nine_components"]["count"] == 12

    consistency = summary["consistency"]
    assert consistency["estimate_reanalysable"] == {
        "count": 8, "denominator": 10, "percent": 80.0,
    }
    assert consistency["estimate_matches_unadjusted"] == {
        "count": 6, "denominator": 8, "percent": 75.0,
    }
    assert consistency["estimate_matches_any_adjusted"] == {
        "count": 2, "denominator": 8, "percent": 25.0,
    }
    assert consistency["ci_reanalysable"]["count"] == 8
    assert consistency["ci_matches_any_unadjusted"]["count"] == 6
    assert consistency["ci_matches_any_adjusted"]["count"] == 2
    assert consistency["estimate_not_evaluable_reasons"] == {
        "successes or sample size absent": 1,
    }
    assert consistency["ci_not_evaluable_reasons"] == {
        "not evaluable (method out of scope)": 1,
        "successes or sample size absent": 1,
    }


def test_empty_summary_has_na_percentages():
    summary = audit_summary([])
    assert summary["n_records"] == 0
    assert summary["stage_counts"]["2"]["percent"] is None
    assert summary["consistency"]["estimate_reanalysable"]["percent"] is None


def test_summary_json_deterministic():
    records = load_golden().records
    first = report_to_json(audit_summary(records))
    second = report_to_json(audit_summary(load_golden().records))
    assert first == second
    assert first.encode() == second.encode()


# json's scalars, with the floats and strings its encoder writes specially
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]),
    st.text(alphabet=st.characters(), max_size=8),
    st.sampled_from(["", "\x00\x1f\u2028", "caf\u00e9", "\ud800", '"\\/', "\U0001f600"]),
)
# the keys of one dict must sort against each other, as json's sort_keys
# needs: str keys, numeric keys (int, float, bool) or the one key None
JSON_DICTS = (
    st.text(max_size=4),
    st.one_of(st.integers(min_value=-(10**40), max_value=10**40), st.floats(), st.booleans()),
    st.none(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        *(st.dictionaries(keys, children, max_size=4) for keys in JSON_DICTS),
    ),
    max_leaves=20,
)


@given(value=JSON_VALUES)
@settings(max_examples=400, deadline=None)
def test_report_to_json_writes_what_json_dumps_writes(value):
    assert report_to_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_report_to_json_raises_what_json_dumps_raises():
    for value in ({(1, 2): 0}, [object()], {"a": 1, 2: 3}):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as raised:
            report_to_json(value)
        assert str(raised.value) == str(expected.value)


def test_report_to_json_writes_subclasses_as_their_base_type():
    import enum

    class Level(enum.IntEnum):
        HIGH = 3

    class Share(float):
        def __repr__(self):
            return "share"

    class Name(str):
        pass

    for value in (
        {Level.HIGH: [Level.HIGH, Share(0.5), Name("x")], Share(2.0): Name("y")},
        {Name("z"): (Share(-0.0), Level.HIGH)},
    ):
        assert report_to_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def _near(reported: float, decimals: int):
    """Candidates at reported + k * quantum / 2 for k in -3..3, each moved
    by up to three ulps either way, kept in [0, 1]."""
    half = 10.0**-decimals / 2
    for k in range(-3, 4):
        x = reported + k * half
        for _ in range(3):
            x = math.nextafter(x, -math.inf)
        for _ in range(7):
            if 0.0 <= x <= 1.0:
                yield x
            x = math.nextafter(x, math.inf)


@pytest.mark.parametrize("decimals", range(18))
def test_rounds_to_equals_the_decimal_rule(decimals):
    rng = random.Random(decimals)
    # reported texts on the quantum grid, and texts halfway between grid
    # points (one more decimal, a 5): a halfway value and a candidate a
    # whole quantum from it can round to the same grid point
    def digits():
        return "".join(rng.choice("0123456789") for _ in range(decimals))

    on_grid = [f"0.{digits()}" for _ in range(5)]
    halfway = [f"0.{digits()}5" for _ in range(5)]
    reported_values = [0.0, 1.0] + [float(text) for text in on_grid + halfway]
    checked = matched = 0
    for reported in reported_values:
        for candidate in _near(reported, decimals):
            expected = rounds_to_decimal_oracle(candidate, reported, decimals)
            assert audit._rounds_to(candidate, reported, decimals) == expected, (
                candidate, reported, decimals,
            )
            checked += 1
            matched += expected
    # both answers occur
    assert 0 < matched < checked


# ---------------------------------------------------------------------------
# candidates ruled out at the rounding window


def _reported_near(value: float, decimals: int) -> list[float]:
    """The value in [0, 1] rounded half-even to the decimals (first), moved
    by k = -2, -1, 1 and 2 quanta, and the two points halfway to its
    neighbours; those in [0, 1]."""
    quantum = Decimal(1).scaleb(-decimals)
    rounded = Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_EVEN)
    points = [rounded + k * quantum for k in (0, -2, -1, 1, 2)]
    points += [rounded - quantum / 2, rounded + quantum / 2]
    return [float(x) for x in points if 0 <= x <= 1]


def _outcome_record(a1, n1, n, n_analysis, s, **fields) -> TrialRecord:
    return TrialRecord(
        id="T", stage_claimed=2, a1=a1, n1=n1, n=n, n_analysis=n_analysis, s_analysis=s,
        **fields,
    )


def _intervals(record: TrialRecord, level: float) -> list:
    """Every interval method's interval for the record's outcome."""
    state = audit._analysis_state(record)
    return [
        interval_for_outcome(method, record.s_analysis, state.analysis_design, level)
        for method in CI_METHODS
    ]


def _assert_estimate_matches_as_solved(record: TrialRecord) -> int:
    """The check equals the solve-everything reference; returns the number
    of candidates it left unsolved."""
    check = check_estimate_consistency(record)
    expected = check_estimate_consistency_oracle(record)
    got = (check.evaluable, check.reason, check.adjusted_evaluable, check.matched_estimators)
    assert got == expected, (record, got, expected)
    return 1 + len(audit.ADJUSTED_ESTIMATORS) - len(check.candidates) if check.evaluable else 0


def _assert_interval_matches_as_solved(record: TrialRecord) -> int:
    check = check_ci_consistency(record)
    expected = check_ci_consistency_oracle(record)
    got = (check.evaluable, check.reason, check.adjusted_evaluable, check.matched_intervals)
    assert got == expected, (record, got, expected)
    return len(CI_METHODS) - len(check.candidates) if check.evaluable else 0


# (a1, n1, planned n, n_analysis, s): the smallest stage-2 total a1 + 1, the
# largest n_analysis, interior totals, and analyses at a realised size
# above and below the planned one
EXCLUSION_CASES = [
    (1, 10, 29, 29, 2),
    (1, 10, 29, 29, 6),
    (1, 10, 29, 29, 29),
    (3, 13, 43, 40, 12),
    (3, 13, 43, 46, 4),
    (7, 16, 46, 46, 23),
]


@pytest.mark.parametrize("case", EXCLUSION_CASES, ids=str)
def test_estimate_matches_equal_those_of_solving_every_candidate(case):
    record = _outcome_record(*case)
    estimates = estimate_all(audit._analysis_state(record)).to_json_dict().values()
    ruled_out = matched = 0
    for decimals in range(18):
        for value in estimates:
            for reported in _reported_near(value, decimals):
                record.est_reported, record.est_decimals = reported, decimals
                ruled_out += _assert_estimate_matches_as_solved(record)
                matched += not check_estimate_consistency(record).matched_estimators.isdisjoint(
                    audit.ADJUSTED_ESTIMATORS
                )
    assert ruled_out and matched


@pytest.mark.parametrize("level", [0.9, 0.95])
@pytest.mark.parametrize("case", EXCLUSION_CASES, ids=str)
def test_interval_matches_equal_those_of_solving_every_interval(case, level):
    record = _outcome_record(*case, ci_level=level)
    ruled_out = 0
    for decimals in range(18):
        record.ci_decimals = decimals
        for ci in _intervals(record, level):
            low, upp = (_reported_near(end, decimals) for end in (ci.low, ci.upp))
            # one end moved at a time, the other at its rounded value
            pairs = [(x, upp[0]) for x in low] + [(low[0], x) for x in upp]
            for record.ci_low, record.ci_upp in pairs:
                ruled_out += _assert_interval_matches_as_solved(record)
    assert ruled_out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matches_equal_those_of_solving_every_candidate_on_random_designs(data):
    n1 = data.draw(st.integers(1, 25), label="n1")
    a1 = data.draw(st.integers(0, n1 - 1), label="a1")
    n_analysis = data.draw(st.integers(n1 + 1, n1 + 40), label="n_analysis")
    s = data.draw(
        st.one_of(st.sampled_from([a1 + 1, n_analysis]), st.integers(0, n_analysis)), label="s"
    )
    level = data.draw(st.sampled_from([0.9, 0.95]), label="level")
    decimals = data.draw(st.integers(0, 17), label="decimals")
    record = _outcome_record(a1, n1, n1 + 20, n_analysis, s, ci_level=level)
    record.est_decimals = record.ci_decimals = decimals
    state = audit._analysis_state(record)
    if state is None:
        # s <= a1 at stage 2: only the unadjusted procedures apply
        values = [s / n_analysis]
        intervals = [inference.ci_clopper_pearson(s, n_analysis, level)]
    else:
        values = list(estimate_all(state).to_json_dict().values())
        intervals = _intervals(record, level)
    record.est_reported = data.draw(
        st.sampled_from(_reported_near(data.draw(st.sampled_from(values)), decimals))
    )
    _assert_estimate_matches_as_solved(record)
    ci = data.draw(st.sampled_from(intervals))
    record.ci_low = data.draw(st.sampled_from(_reported_near(ci.low, decimals)))
    record.ci_upp = data.draw(st.sampled_from(_reported_near(ci.upp, decimals)))
    _assert_interval_matches_as_solved(record)


@pytest.fixture
def solves(monkeypatch):
    """The targets of every solve_monotone_root call and the number of
    estimate_conditional calls, with the interval caches emptied first."""
    calls = {"targets": [], "conditional": 0}
    solve, conditional = inference.solve_monotone_root, inference.estimate_conditional

    def counted_solve(f, target, **kwargs):
        calls["targets"].append(target)
        return solve(f, target, **kwargs)

    def counted_conditional(state):
        calls["conditional"] += 1
        return conditional(state)

    monkeypatch.setattr(inference, "solve_monotone_root", counted_solve)
    monkeypatch.setattr(inference, "estimate_conditional", counted_conditional)
    inference.interval_for_outcome.cache_clear()
    inference.ci_clopper_pearson.cache_clear()
    return calls


# 1/10, 5/29 with 6 of 29 responses: every estimate lies within 0.17..0.21,
# and every 95% interval's limits within 0.06..0.41
FAR = dict(est_reported=0.9, ci_level=0.95, ci_low=0.8, ci_upp=0.9)


def test_a_record_far_from_every_adjusted_value_solves_only_jt(solves):
    record = _outcome_record(1, 10, 29, 29, 6, **FAR)
    summary = audit_summary([record])
    figures = export_figure_data([record])
    assert summary["consistency"]["estimate_matches_any_adjusted"]["count"] == 0
    assert figures["ci_length_and_coverage"]["rows"][0][3] == "CP"
    half = (1 - 0.95) / 2
    # the JT lower and upper limits, solved once for both passes
    assert solves == {"targets": [half, half], "conditional": 0}
    assert set(check_estimate_consistency(record).candidates) == {
        "naive", "bias_subtracted", "umvue", "umvcue",
    }
    assert set(check_ci_consistency(record).candidates) == {"Wald", "Wilson", "JT"}


@pytest.mark.parametrize(
    "reported, decimals",
    [
        (0.9, 7),  # a quantum below 1e-6
        (0.01, 2),  # the window [0, 0.02] touches 0
        (0.99, 2),  # the window [0.98, 1] touches 1
        (0.5, 0),  # the window [-0.5, 1.5] covers [0, 1]
    ],
)
def test_an_estimate_window_that_cannot_rule_out_solves_every_root(solves, reported, decimals):
    record = _outcome_record(1, 10, 29, 29, 6, est_reported=reported, est_decimals=decimals)
    check = check_estimate_consistency(record)
    assert len(check.candidates) == 7
    # the bias-adjusted and median-unbiased roots, and the conditional MLE
    assert len(solves["targets"]) == 2 and solves["conditional"] == 1
    assert check.matched_estimators == check_estimate_consistency_oracle(record)[3]


def test_an_estimate_window_inside_the_unit_interval_rules_out(solves):
    record = _outcome_record(1, 10, 29, 29, 6, est_reported=0.9, est_decimals=6)
    assert len(check_estimate_consistency(record).candidates) == 4
    assert solves == {"targets": [], "conditional": 0}


@pytest.mark.parametrize(
    "low, upp, decimals, solved",
    [
        (0.8, 0.9, 7, 5),  # a quantum below 1e-6 at both ends
        (0.01, 0.99, 2, 5),  # windows that touch 0 and 1
        (0.01, 0.9, 2, 3),  # the lower window decides nothing; the upper rules out
        (0.8, 0.99, 2, 3),  # the lower rules out, so the upper window is not read
    ],
)
def test_an_interval_window_that_cannot_rule_out_solves_both_limits(
    solves, low, upp, decimals, solved
):
    record = _outcome_record(
        1, 10, 29, 29, 6, ci_level=0.95, ci_low=low, ci_upp=upp, ci_decimals=decimals
    )
    check = check_ci_consistency(record)
    assert len(check.candidates) == solved
    # two limits of JT, and of mid-p and CP when they are not ruled out
    assert len(solves["targets"]) == 2 * (solved - 2)
    assert check.matched_intervals == check_ci_consistency_oracle(record)[3]


def load_pinned(name: str):
    with open(os.path.join(DATA, f"{name}.csv"), newline="") as handle:
        records = parse_records(handle).records
    pinned = {}
    for part in ("report", "figures"):
        with open(os.path.join(DATA, f"{name}_{part}.json"), "rb") as handle:
            pinned[part] = handle.read()
    return records, pinned


@pytest.mark.parametrize("name", ["audit_predicates", "audit_golden"])
def test_report_and_figure_data_are_pinned_byte_for_byte(name):
    # the pinned files were written by the per-key audit_summary that the
    # predicate tables replaced; figure data keeps its skip-reason order
    records, pinned = load_pinned(name)
    assert report_to_json(audit_summary(records)).encode() == pinned["report"]
    figures = json.dumps(export_figure_data(records), indent=1) + "\n"
    assert figures.encode() == pinned["figures"]


def test_predicate_records_turn_every_reporting_predicate_on_and_off():
    records, _ = load_pinned("audit_predicates")
    summary = audit_summary(records)
    tallies = [summary["design_reporting"], summary["inference_reporting"]["all"]]
    for key, stat in ((k, v) for tally in tallies for k, v in tally.items()):
        assert 0 < stat["count"] < stat["denominator"], key
    assert all(summary["stage_counts"][label]["count"] for label in ("1", "2", "unclear"))


# ---------------------------------------------------------------------------
# figure datasets


def test_figure_datasets_on_golden():
    records = load_golden().records
    datasets = export_figure_data(records)
    est = datasets["estimates_naive_vs_umvue"]
    assert len(est["rows"]) == 9
    assert est["skipped"] == {
        "termination stage not 2": 2,
        "design or analysis data absent": 1,
    }
    # the naive estimate never exceeds the adjusted one here
    for _, naive, umvue, shift in est["rows"]:
        assert naive <= umvue
        assert shift <= 0.0

    ci = datasets["ci_length_and_coverage"]
    assert len(ci["rows"]) == 8
    assert ci["skipped"]["termination stage not 2"] == 2

    sizes = datasets["planned_vs_analysed_n"]
    assert len(sizes["rows"]) == 12
    assert sizes["skipped"] == {}

    # the error-rate dataset needs the design and n_analysis but not the
    # success count, so only the unclear-stage records drop out
    rates = datasets["deviation_error_rates"]
    assert len(rates["rows"]) == 10
    for _, n_an, ret_a, ret_p, ek_a, ek_p in rates["rows"]:
        assert ek_a <= 0.05 + 1e-9


def test_p0_p1_absent_is_skipped_before_any_estimate(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("estimate computed for a record without p0/p1")

    monkeypatch.setattr(audit, "estimate_naive", never)
    monkeypatch.setattr(audit, "estimate_umvue", never)
    records, _ = load_pinned("audit_predicates")
    absent = [r for r in records if r.id in ("P06", "P16")]
    assert len(absent) == 2
    for r in absent:
        assert audit._estimates_row(r) == "p0/p1 absent"


def test_figure_csv_files_written(tmp_path):
    records = load_golden().records
    paths = write_figure_data(export_figure_data(records), tmp_path)
    assert len(paths) == 4
    for path in paths:
        assert os.path.exists(path)
        with open(path) as handle:
            assert handle.readline().strip()
