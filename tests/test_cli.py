"""Command-line interface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys

import argparse

import pytest

from oracles import cli_main_full_parse
from twostage import cli
from twostage.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "audit_golden.csv")


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_design_search(capsys):
    status, out, _ = run(
        capsys, "design", "--p0", "0.1", "--p1", "0.3",
        "--alpha", "0.05", "--beta", "0.2", "--criterion", "optimal",
    )
    assert status == 0
    assert "1/10, 5/29" in out


def test_design_json_deterministic(capsys):
    argv = [
        "design", "--p0", "0.1", "--p1", "0.3", "--alpha", "0.05",
        "--beta", "0.2", "--format", "json",
    ]
    status, first, _ = run(capsys, *argv)
    assert status == 0
    status, second, _ = run(capsys, *argv)
    assert first == second
    payload = json.loads(first)
    assert payload["design"]["n"] == 29
    assert payload["oc"]["alpha_attained"] == pytest.approx(0.047086306, abs=1e-8)


def test_design_admissible(capsys):
    status, out, _ = run(
        capsys, "design", "--p0", "0.1", "--p1", "0.3", "--alpha", "0.05",
        "--beta", "0.2", "--criterion", "admissible", "--nmax", "40",
        "--format", "json",
    )
    assert status == 0
    payload = json.loads(out)
    designs = payload["designs"]
    assert designs[0]["w_low"] == 0.0
    assert designs[-1]["w_high"] == 1.0
    assert designs[0]["design"]["n"] == 29
    assert designs[-1]["design"]["n"] == 25


def test_design_infeasible_exit_code(capsys):
    for criterion in ("optimal", "minimax", "admissible"):
        status, out, err = run(
            capsys, "design", "--p0", "0.1", "--p1", "0.3", "--alpha", "0.05",
            "--beta", "0.2", "--criterion", criterion, "--nmax", "20",
        )
        assert status == 3
        assert out == ""
        assert err == (
            "INFEASIBLE: no feasible design with n <= 20; binding constraint: power\n"
        )


def test_design_small_nmax_is_invalid_input_for_every_criterion(capsys):
    for criterion in ("optimal", "minimax", "admissible"):
        status, _, err = run(
            capsys, "design", "--p0", "0.1", "--p1", "0.3", "--alpha", "0.05",
            "--beta", "0.2", "--criterion", criterion, "--nmax", "1",
        )
        assert status == 2
        assert err.startswith("INVALID_INPUT:")


def test_design_nmax_above_the_cap_is_invalid_input(capsys, monkeypatch):
    # rejected before the search builds its first pmf table
    def never(*args, **kwargs):
        raise AssertionError("design search started above the sample-size cap")

    monkeypatch.setattr("twostage.design._tables", never)
    for criterion in ("optimal", "minimax", "admissible"):
        status, out, err = run(
            capsys, "design", "--p0", "0.1", "--p1", "0.3", "--alpha", "0.05",
            "--beta", "0.2", "--criterion", criterion, "--nmax", "1000000000",
        )
        assert status == 2
        assert out == ""
        assert err == "INVALID_INPUT: n_max 1000000000 exceeds the cap of 5000\n"


def test_oc_requires_targets(capsys):
    status, _, err = run(capsys, "oc", "--design", "1/10,5/29")
    assert status == 2
    assert err.startswith("INVALID_INPUT:")
    assert "targets required" in err


def test_oc_with_targets(capsys):
    status, out, _ = run(
        capsys, "oc", "--design", "1/10,5/29", "--p0", "0.1", "--p1", "0.3",
        "--alpha", "0.05", "--beta", "0.2", "--format", "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["oc"]["en_p0"] == pytest.approx(15.0141203471, abs=1e-8)


def test_estimate_all_methods(capsys):
    status, out, _ = run(
        capsys, "estimate", "--design", "1/10,5/29", "--s", "6", "--m", "29",
        "--format", "json",
    )
    assert status == 0
    estimates = json.loads(out)["estimates"]
    assert estimates["naive"] == pytest.approx(6 / 29)
    assert estimates["umvue"] == pytest.approx(0.2613085329666353)
    assert len(estimates) == 7


def test_estimate_method_subset_and_unknown(capsys):
    status, out, _ = run(
        capsys, "estimate", "--design", "1/10,5/29", "--s", "6", "--m", "29",
        "--methods", "naive,umvue", "--format", "json",
    )
    assert status == 0
    assert set(json.loads(out)["estimates"]) == {"naive", "umvue"}
    status, _, err = run(
        capsys, "estimate", "--design", "1/10,5/29", "--s", "6", "--m", "29",
        "--methods", "bogus",
    )
    assert status == 2
    assert "bogus" in err


def test_estimate_method_subset_computes_only_those(capsys, monkeypatch):
    argv = ["estimate", "--design", "1/10,5/29", "--s", "6", "--m", "29", "--format", "json"]
    _, out, _ = run(capsys, *argv)
    everything = json.loads(out)["estimates"]

    def never(*args, **kwargs):
        raise AssertionError("computed an estimate that was not asked for")

    monkeypatch.setattr("twostage.inference.solve_monotone_root", never)
    monkeypatch.setattr("twostage.inference.estimate_conditional", never)
    status, out, _ = run(capsys, *argv, "--methods", "umvue,umvcue")
    assert status == 0
    assert json.loads(out)["estimates"] == {
        "umvue": everything["umvue"], "umvcue": everything["umvcue"]
    }
    # an unknown name exits 2 before any estimate is computed
    monkeypatch.setattr("twostage.inference.estimate_umvue", never)
    status, _, err = run(capsys, *argv, "--methods", "umvue,bogus")
    assert status == 2
    assert err.startswith("INVALID_INPUT:") and "bogus" in err


def test_estimate_invalid_outcome(capsys):
    status, _, err = run(
        capsys, "estimate", "--design", "1/10,5/29", "--s", "1", "--m", "29"
    )
    assert status == 2
    assert err.startswith("INVALID_INPUT:")


@pytest.mark.parametrize(
    "command",
    [["estimate"], ["ci", "--method", "jt"], ["ci", "--method", "midp"], ["pvalue", "--null", "0.3"]],
    ids=["estimate", "ci-jt", "ci-midp", "pvalue"],
)
def test_analysis_at_a_realised_size_not_above_a(capsys, command):
    # no analysis of a realised outcome reads a, so a planned a that the
    # realised m cannot exceed is replaced by a1 instead of being rejected
    outcome = ["--s", "29", "--m", "30", "--format", "json"]
    status, out, err = run(capsys, command[0], "--design", "9/27,30/81", *command[1:], *outcome)
    assert (status, err) == (0, "")
    status, want, _ = run(capsys, command[0], "--design", "9/27,9/30", *command[1:], *outcome)
    assert status == 0
    assert out == want


def test_estimate_where_the_continuation_tail_underflows(capsys):
    # P(X1 > 30) for X1 ~ Bin(60, p) is 0.0 in floats at the conditional
    # MLE's first scan points; the estimate used to stop at log(0.0)
    status, out, err = run(
        capsys, "estimate", "--design", "30/60,40/100", "--s", "50", "--m", "100",
        "--format", "json",
    )
    assert (status, err) == (0, "")
    assert json.loads(out)["estimates"]["conditional"] == pytest.approx(0.43771249408, abs=1e-8)


def test_audit_where_the_continuation_tail_underflows(capsys, tmp_path):
    records = tmp_path / "records.csv"
    records.write_text(
        "id,p0,p1,a1,a,n1,n,stage,n_analysis,s_analysis,est,ci_level,ci_low,ci_upp\n"
        "HIGH,0.3,0.5,30,40,60,100,2,100,50,0.5,0.95,0.3,0.7\n"
        "OK,0.1,0.3,1,5,10,29,2,29,6,0.21,0.95,0.08,0.40\n"
    )
    status, out, err = run(capsys, "audit", "--input", str(records))
    assert (status, err) == (0, "")
    consistency = json.loads(out)["consistency"]
    for key in ("estimate_reanalysable", "ci_reanalysable"):
        assert consistency[key]["count"] == 2
    # both records are evaluated with the adjusted procedures too
    for key in ("estimate_matches_any_adjusted", "ci_matches_any_adjusted"):
        assert consistency[key]["denominator"] == 2


def test_analysis_below_n1_names_the_rule(capsys):
    status, out, err = run(capsys, "estimate", "--design", "1/10,5/29", "--s", "3", "--m", "9")
    assert (status, out) == (2, "")
    assert err == "INVALID_INPUT: analysis sample size 9 is below n1=10\n"


def test_ci_methods(capsys):
    status, out, _ = run(
        capsys, "ci", "--design", "1/10,5/29", "--s", "6", "--m", "29",
        "--method", "jt", "--format", "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["low"] == pytest.approx(0.0859341838, abs=1e-8)
    assert payload["upp"] == pytest.approx(0.4547923446, abs=1e-8)
    status, out, _ = run(
        capsys, "ci", "--design", "1/10,5/29", "--s", "6", "--m", "29",
        "--method", "cp", "--level", "0.9", "--format", "json",
    )
    assert status == 0
    assert json.loads(out)["level"] == 0.9


def test_pvalue(capsys):
    status, out, _ = run(
        capsys, "pvalue", "--design", "1/10,5/29", "--s", "6", "--m", "29",
        "--null", "0.1", "--format", "json",
    )
    assert status == 0
    assert json.loads(out)["p_value"] == pytest.approx(0.04708630664, abs=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--design", "1/10,5/29", "--s", "6", "--m", str(10**6)],
        ["oc", "--design", f"1/10,5/{10**6}", "--p0", "0.1", "--p1", "0.3",
         "--alpha", "0.05", "--beta", "0.2"],
        ["deviate", "--design", "1/10,5/29", "--p0", "0.1", "--p1", "0.3",
         "--alpha", "0.05", "--beta", "0.2", "--n-an", str(10**6), "--s1", "3", "--s", "6"],
        ["ci", "--design", "1/10,5/29", "--s", "30000", "--m", str(10**6), "--method", "cp"],
        ["estimate", "--design", "1/10,5/29", "--s", "6", "--m", str(10**6),
         "--methods", "umvue"],
    ],
    ids=["estimate", "oc", "deviate", "ci-cp", "estimate-umvue"],
)
def test_sample_size_above_the_cap_is_invalid_input(capsys, monkeypatch, argv):
    # the cap is checked before any analysis starts: the work these commands
    # would do at 10**6 must never run
    def never(*args, **kwargs):
        raise AssertionError("analysis started above the sample-size cap")

    for name in ("solve_monotone_root", "terminal_pmf", "umvue_fraction", "path_counts"):
        monkeypatch.setattr(f"twostage.inference.{name}", never)
    # nor is any prepared row built, a Bin(m, p) row included, whichever
    # module asks for it
    monkeypatch.setattr("twostage.binomial.path_counts", never)
    monkeypatch.setattr("twostage.binomial._prepared_row", never)
    status, _, err = run(capsys, *argv)
    assert status == 2
    assert err.startswith("INVALID_INPUT:") and "cap" in err


@pytest.mark.parametrize("s", [4993, 4999])
def test_estimates_at_the_longest_stage1_prefix_keep_their_pinned_json(capsys, s):
    # a row at the cap whose stage-1 prefix is 4991 of its 5001 terms: the
    # JSON text is the one pinned before the terminal row was prepared
    status, out, err = run(
        capsys, "estimate", "--design", "4990/4995,4998/5000", "--s", str(s), "--m", "5000",
        "--format", "json",
    )
    path = os.path.join(os.path.dirname(__file__), "data", f"estimate_cap_s{s}.json")
    with open(path, encoding="utf-8") as handle:
        assert (status, out, err) == (0, handle.read(), "")


def test_pvalue_requires_null_or_targets(capsys):
    status, _, err = run(
        capsys, "pvalue", "--design", "1/10,5/29", "--s", "6", "--m", "29"
    )
    assert status == 2
    assert "null" in err


def test_coverage_grid(capsys):
    status, out, _ = run(
        capsys, "coverage", "--design", "1/10,5/29", "--method", "jt",
        "--p-grid", "0.1,0.3", "--format", "json",
    )
    assert status == 0
    points = json.loads(out)["coverage"]
    assert len(points) == 2
    assert all(pt["coverage"] >= 0.95 for pt in points)


def test_p_grid_above_the_cap_is_invalid_input(capsys, monkeypatch):
    # the points are counted before any is built, so a 10**9-point grid
    # fails at once and no coverage is computed; a comma list counts its
    # points against the same cap
    def never(*args, **kwargs):
        raise AssertionError("coverage computed above the p-grid cap")

    monkeypatch.setattr(cli, "coverage", never)
    too_long = ",".join(["0.5"] * (cli.MAX_P_GRID_POINTS + 1))
    for spec in ("0:1:1e-9", "0:1:1e-5", "0:inf:0.1", "nan:1:0.1", too_long):
        status, _, err = run(
            capsys, "coverage", "--design", "1/10,5/29", "--p-grid", spec
        )
        assert status == 2
        assert err.startswith("INVALID_INPUT:") and "cap" in err
    assert len(cli._parse_p_grid("0.01:0.99:0.01")) == 99
    assert len(cli._parse_p_grid("0:1:1e-4")) == cli.MAX_P_GRID_POINTS == 10_001
    assert len(cli._parse_p_grid(",".join(["0.5"] * 10_001))) == 10_001


def test_coverage_needs_exactly_one_p_flag(capsys):
    status, _, err = run(capsys, "coverage", "--design", "1/10,5/29")
    assert status == 2
    status, _, err = run(
        capsys, "coverage", "--design", "1/10,5/29", "--p", "0.1",
        "--p-grid", "0.1,0.2",
    )
    assert status == 2


def test_deviate_rules(capsys):
    common = [
        "deviate", "--design", "1/10,5/29", "--p0", "0.1", "--p1", "0.3",
        "--alpha", "0.05", "--beta", "0.2", "--n-an", "26", "--s1", "3",
        "--s", "6", "--format", "json",
    ]
    status, out, _ = run(capsys, *common, "--rule", "ek")
    assert status == 0
    payload = json.loads(out)
    assert payload["reject"] is True
    assert payload["type_one_error"] <= 0.05
    status, out, _ = run(capsys, *common, "--rule", "retain")
    assert status == 0
    payload = json.loads(out)
    assert payload["conditional_error"] is None
    assert payload["type_one_error"] == pytest.approx(0.03212210879, abs=1e-9)


def test_audit_success_and_partial(capsys, tmp_path):
    status, out, err = run(capsys, "audit", "--input", GOLDEN)
    assert status == 0
    payload = json.loads(out)
    assert payload["n_records"] == 12
    assert payload["row_errors"] == 0

    broken = tmp_path / "broken.csv"
    broken.write_text("id,p0\nOK,0.1\nBAD,giraffe\n")
    status, out, err = run(capsys, "audit", "--input", str(broken))
    assert status == 4
    assert "ROW_ERROR:" in err
    assert json.loads(out)["row_errors"] == 1


@pytest.mark.parametrize(
    "n_analysis, s_analysis, message",
    [
        (20, 30, "column 's_analysis': 30 is outside 0..20"),
        (20, -1, "column 's_analysis': -1 is outside 0..20"),
        (0, 0, "column 'n_analysis': 0 is below 1"),
    ],
    ids=["s_above_n", "s_negative", "n_zero"],
)
def test_audit_reports_impossible_counts_as_row_errors(
    capsys, tmp_path, n_analysis, s_analysis, message
):
    records = tmp_path / "records.csv"
    records.write_text(
        "id,p0,p1,a1,a,n1,n,stage,n_analysis,s_analysis,est,ci_level,ci_low,ci_upp\n"
        f"BAD,0.1,0.3,1,5,10,29,2,{n_analysis},{s_analysis},0.5,0.95,0.3,0.7\n"
        "OK,0.1,0.3,1,5,10,29,2,29,6,0.21,0.95,0.08,0.40\n"
    )
    out_dir = tmp_path / "report"
    status, out, err = run(capsys, "audit", "--input", str(records), "--out", str(out_dir))
    assert status == 4
    assert err == f"ROW_ERROR: row 2 (id BAD): {message}\n"
    assert len(out.strip().splitlines()) == 5
    report = json.loads((out_dir / "audit_report.json").read_text())
    assert (report["n_records"], report["row_errors"]) == (1, 1)
    estimates = (out_dir / "estimates_naive_vs_umvue.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in estimates[1:]] == ["OK"]


def test_audit_reports_a_precision_out_of_range_as_row_errors(capsys, tmp_path):
    # 33 decimals read off the estimate's text cannot be quantized; -3
    # stated decimals would round every candidate and the report to 0E+3
    records = tmp_path / "records.csv"
    records.write_text(
        "id,a1,a,n1,n,stage,n_analysis,s_analysis,est,est_decimals\n"
        "LONG,1,5,10,29,2,29,8,0.275862068965517241379310344827586,\n"
        "NEGATIVE,1,5,10,29,2,29,8,0.28,-3\n"
        "OK,1,5,10,29,2,29,8,0.28,2\n"
    )
    status, out, err = run(capsys, "audit", "--input", str(records))
    assert status == 4
    assert err == (
        "ROW_ERROR: row 2 (id LONG): column 'est': 33 decimals is outside 0..17\n"
        "ROW_ERROR: row 3 (id NEGATIVE): column 'est_decimals': -3 decimals is outside 0..17\n"
    )
    report = json.loads(out)
    assert (report["n_records"], report["row_errors"]) == (1, 2)
    assert report["consistency"]["estimate_matches_unadjusted"]["count"] == 1


def test_audit_reports_a_ci_level_of_one_as_a_row_error(capsys, tmp_path):
    # a level of 1 used to reach the interval solver and abort the whole
    # audit with INVALID_INPUT, losing the other record's report
    records = tmp_path / "records.csv"
    records.write_text(
        "id,a1,a,n1,n,stage,n_analysis,s_analysis,est,ci_level,ci_low,ci_upp\n"
        "R01,1,5,10,29,2,29,6,0.21,1,0.08,0.40\n"
        "R02,1,5,10,29,2,29,6,0.21,0.95,0.08,0.40\n"
    )
    status, out, err = run(capsys, "audit", "--input", str(records))
    assert status == 4
    assert err == (
        "ROW_ERROR: row 2 (id R01): column 'ci_level': confidence level must lie in (0, 1), "
        "got 1.0\n"
    )
    report = json.loads(out)
    assert (report["n_records"], report["row_errors"]) == (1, 1)
    assert report["consistency"]["ci_reanalysable"]["count"] == 1


def test_audit_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("id\n")
    status, out, _ = run(capsys, "audit", "--input", str(empty))
    assert status == 0
    payload = json.loads(out)
    assert payload["n_records"] == 0
    assert payload["stage_counts"]["2"]["percent"] is None


def test_audit_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "report"
    status, out, _ = run(capsys, "audit", "--input", GOLDEN, "--out", str(out_dir))
    assert status == 0
    listed = out.strip().splitlines()
    assert len(listed) == 5
    for path in listed:
        assert os.path.exists(path)


def test_audit_missing_file(capsys):
    status, _, err = run(capsys, "audit", "--input", "/nonexistent.csv")
    assert status == 2
    assert err.startswith("INVALID_INPUT:")


def test_audit_has_no_format_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["audit", "--input", GOLDEN, "--format", "csv"])
    assert excinfo.value.code == 2


def test_audit_byte_identical_json(capsys):
    status, first, _ = run(capsys, "audit", "--input", GOLDEN)
    status, second, _ = run(capsys, "audit", "--input", GOLDEN)
    assert first.encode() == second.encode()


def test_unknown_subcommand_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus"])
    assert excinfo.value.code == 2
    assert "USAGE" in capsys.readouterr().err


def test_no_subcommand(capsys):
    assert main([]) == 2


def test_unknown_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["oc", "--wat"])
    assert excinfo.value.code == 2


def test_csv_format(capsys):
    status, out, _ = run(
        capsys, "ci", "--design", "1/10,5/29", "--s", "6", "--m", "29",
        "--format", "csv",
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,value"
    assert any(line.startswith("low,") for line in lines)


TARGETS = ["--p0", "0.1", "--p1", "0.3", "--alpha", "0.05", "--beta", "0.2"]
OUTCOME = ["--design", "1/10,5/29", "--s", "6", "--m", "29"]
REUSE_ARGV = [
    ["design", *TARGETS, "--nmax", "35", "--format", "csv"],
    ["oc", "--design", "1/10,5/29", *TARGETS, "--format", "json"],
    ["oc", "--wat"],
    ["estimate", *OUTCOME, "--methods", "naive,umvue"],
    [],
    ["ci", *OUTCOME, "--method", "cp", "--format", "json"],
    ["--help"],
    ["pvalue", *OUTCOME, "--null", "0.1", "--format", "csv"],
    ["estimate", "--design", "1/10,5/29", "--s", "1", "--m", "29"],
    ["coverage", "--design", "1/10,5/29", "--p", "0.2"],
    ["deviate", "--design", "1/10,5/29", *TARGETS, "--n-an", "26", "--s1", "3", "--s", "6"],
    ["audit", "--input", GOLDEN],
]


def test_parser_is_built_once_and_reuse_changes_no_output(capsys, monkeypatch):
    build_parser, builds = cli.build_parser, []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    def run_or_exit(argv):
        # a usage error and --help leave main through SystemExit; keep its code
        try:
            return run(capsys, *argv)
        except SystemExit as exc:
            captured = capsys.readouterr()
            return exc.code, captured.out, captured.err

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        first = [run_or_exit(argv) for argv in REUSE_ARGV]
        again = [run_or_exit(argv) for argv in REUSE_ARGV]
    finally:
        cli._parser.cache_clear()
    assert again == first
    assert len(builds) == 1
    statuses = [status for status, _, _ in first]
    assert statuses == [0, 0, 2, 0, 2, 0, 0, 0, 2, 0, 0, 0]
    assert first[2][2].startswith("USAGE:")
    assert first[8][2].startswith("INVALID_INPUT:")
    assert "usage: twostage" in first[6][1]


def _outcome_of(entry, argv):
    # a usage error and --help leave through SystemExit; keep its code
    try:
        status = entry(list(argv))
    except SystemExit as exc:
        status = exc.code
    return status


# usage errors, help and parses that only a subcommand's parser can decide,
# besides REUSE_ARGV's (no command, --help, oc --wat) and each command's --help
EDGE_ARGV = [
    ["-h"],
    ["bogus"],
    ["oc", "--design", "1/10,5/29", "--wat"],
    ["estimate", "--des", "1/10,5/29", "--s", "6", "--m", "29"],
    ["estimate", "--design", "1/10,5/29", "--s=6", "--m", "29"],
    ["estimate", "--design", "1/10,5/29", "--s", "6"],
    ["estimate", "--design", "1/10,5/29", "--s", "x", "--m", "29"],
    ["estimate", *OUTCOME, "trailing"],
    ["estimate", *OUTCOME, "--"],
    ["ci", *OUTCOME, "--format", "xml"],
    ["ci", *OUTCOME, "--", "--level", "0.9"],
    ["ci", "--he"],
    ["--design", "1/10,5/29", "ci"],
    ["oc", "--design=1/10,5/29", *TARGETS, "--format", "json"],
    ["design", *TARGETS, "--nmax", "12"],
    ["audit", "--input"],
]
# a repeated flag keeps its last value
REPEATED_ARGV = [
    ["ci", *OUTCOME, "--s", "7", "--method", "cp", "--method", "midp"],
    ["oc", "--design", "1/15,5/25", "--design", "1/10,5/29", *TARGETS, "--format", "csv"],
    ["estimate", *OUTCOME, "--methods", "umvue", "--methods", "naive,conditional"],
]


@pytest.mark.parametrize(
    "argv",
    REUSE_ARGV
    + [[name, "--help"] for name in cli.build_parser().commands]
    + EDGE_ARGV
    + REPEATED_ARGV,
    ids=lambda argv: " ".join("GOLDEN" if arg == GOLDEN else arg for arg in argv) or "no-args",
)
def test_main_prints_what_the_full_parse_prints(capsys, argv):
    # a trailing "--" ends the options and names nothing: main prints what
    # the full parse prints for the command without it
    full_argv = argv[:-1] if argv[-1:] == ["--"] else argv
    expected = _outcome_of(cli_main_full_parse, full_argv), *capsys.readouterr()
    assert (_outcome_of(main, argv), *capsys.readouterr()) == expected


def test_a_trailing_double_dash_is_no_leftover(capsys):
    # "--" ends the options; alone at the end it names nothing, so the
    # command runs, while a flag after it is still a leftover
    assert main(["estimate", *OUTCOME, "--"]) == 0
    assert capsys.readouterr().out.startswith("naive")
    for argv in (["estimate", *OUTCOME, "--", "--"], ["ci", *OUTCOME, "--", "--level", "0.9"]):
        assert _outcome_of(main, argv) == 2
        assert capsys.readouterr().err.startswith("USAGE: unrecognized arguments: --")


def test_a_valid_command_is_parsed_once(capsys, monkeypatch):
    parse_known_args, calls = argparse.ArgumentParser.parse_known_args, []

    def counting_parse_known_args(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse_known_args)
    argv = ["ci", *OUTCOME, "--method", "cp"]
    assert main(argv) == 0
    assert calls == ["twostage ci"]
    calls.clear()
    # the full parse runs the top-level parser, then the subcommand's
    assert cli_main_full_parse(argv) == 0
    assert calls == ["twostage", "twostage ci"]
    capsys.readouterr()


def _fresh_interpreter(code: str) -> str:
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_cli_import_does_not_load_numpy():
    code = "import sys, twostage.cli; print('numpy' in sys.modules)"
    assert _fresh_interpreter(code) == "False"


def test_cli_import_builds_no_parser():
    code = "import twostage.cli as c; print(c._parser.cache_info().currsize)"
    assert _fresh_interpreter(code) == "0"


def test_cli_import_builds_no_p_independent_table():
    # the log-factorial and float tables, the prepared terminal rows and the
    # inference caches, and the array module that stores some of their
    # rows, are loaded on first use, so a command that never reads them
    # does not pay for them
    code = (
        "import sys, twostage.cli\n"
        "from twostage import binomial as b, inference as i\n"
        "caches = (b._log_factorials, b._totals, i._mle_grid, i._log_continuation_row,\n"
        "          i._umvue_ranks)\n"
        "rows = b._COUNT_ROWS\n"
        "print([c.cache_info().currsize for c in caches], len(rows.rows), rows.entries,\n"
        "      'array' in sys.modules)"
    )
    assert _fresh_interpreter(code) == "[0, 0, 0, 0, 0] 0 0 False"
