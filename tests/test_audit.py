"""Record ingestion, consistency checking, and summary aggregation."""

import json
import os

import pytest

from twostage import audit
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
