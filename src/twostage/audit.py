"""Batch re-analysis of reported trial results.

Ingests one row per published trial arm (design parameters, realised
sample sizes, reported estimate and confidence interval), infers the
termination stage, checks the reported numbers for consistency with
unadjusted and adjusted procedures at the reported precision, and
aggregates reporting and consistency statistics plus figure datasets.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, ROUND_HALF_UP, Decimal
from typing import Iterable, Optional, TextIO, Union

from .binomial import MAX_SAMPLE_SIZE
from .design import DesignTargets, TwoStageDesign
from .deviation import reject_prob_ek, reject_prob_retained
from .inference import (
    AnalysisState,
    ConfidenceInterval,
    ci_clopper_pearson,
    ci_wald,
    ci_wilson,
    coverage,
    estimate_all,
    estimate_naive,
    estimate_umvue,
    interval_for_outcome,
)

UNADJUSTED_ESTIMATORS = ("naive",)
ADJUSTED_ESTIMATORS = (
    "bias_subtracted",
    "bias_adjusted",
    "umvue",
    "umvcue",
    "conditional",
    "median_unbiased",
)
UNADJUSTED_CIS = ("CP", "Wald", "Wilson")
ADJUSTED_CIS = ("JT", "midp")

# methods named in reports that we recognise but cannot re-derive
OUT_OF_SCOPE_CI_METHODS = {"blyth-still-casella", "bsc", "blyth-still", "blyth still casella"}

_PROPORTION_COLUMNS = {"p0", "p1", "alpha", "beta", "est", "ci_level", "ci_low", "ci_upp"}
_INT_COLUMNS = {
    "year", "a1", "a", "n1", "n", "s1", "n1_realized", "n_enrolled",
    "n_analysis", "s_analysis", "est_decimals", "ci_decimals",
}
_BOOL_COLUMNS = {"p0_justified", "est_adjusted", "pvalue_adjusted", "ci_adjusted"}
_TEXT_COLUMNS = {"id", "journal", "cancer", "criterion", "ci_method"}
_OTHER_COLUMNS = {"stage", "pvalue"}
KNOWN_COLUMNS = (
    _PROPORTION_COLUMNS | _INT_COLUMNS | _BOOL_COLUMNS | _TEXT_COLUMNS | _OTHER_COLUMNS
)


@dataclass
class TrialRecord:
    """One extracted published-trial arm; every field may be absent."""

    id: str = ""
    year: Optional[int] = None
    journal: Optional[str] = None
    cancer: Optional[str] = None
    p0: Optional[float] = None
    p0_justified: Optional[bool] = None
    p1: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    criterion: Optional[str] = None
    a1: Optional[int] = None
    a: Optional[int] = None
    n1: Optional[int] = None
    n: Optional[int] = None
    stage_claimed: Optional[int] = None
    s1: Optional[int] = None
    n1_realized: Optional[int] = None
    n_enrolled: Optional[int] = None
    n_analysis: Optional[int] = None
    s_analysis: Optional[int] = None
    est_reported: Optional[float] = None
    est_decimals: Optional[int] = None
    est_stated_adjusted: Optional[bool] = None
    pvalue_reported: Optional[float] = None
    pvalue_stated_adjusted: Optional[bool] = None
    ci_level: Optional[float] = None
    ci_low: Optional[float] = None
    ci_upp: Optional[float] = None
    ci_decimals: Optional[int] = None
    ci_stated_adjusted: Optional[bool] = None
    ci_method_stated: Optional[str] = None
    percent_normalised: list[str] = field(default_factory=list)


@dataclass
class RowError:
    row: int
    record_id: str
    message: str


@dataclass
class ParseResult:
    records: list[TrialRecord]
    errors: list[RowError]
    warnings: list[str]


_FIELD_BY_COLUMN = {
    "stage": "stage_claimed",
    "est": "est_reported",
    "est_adjusted": "est_stated_adjusted",
    "pvalue": "pvalue_reported",
    "pvalue_adjusted": "pvalue_stated_adjusted",
    "ci_adjusted": "ci_stated_adjusted",
    "ci_method": "ci_method_stated",
}

# reported values whose precision is read off the text, when no decimals
# column gives it; the first of ci_low and ci_upp sets the interval's
_DECIMALS_FIELD = {"est": "est_decimals", "ci_low": "ci_decimals", "ci_upp": "ci_decimals"}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "y"):
        return True
    if low in ("0", "false", "no", "n"):
        return False
    raise ValueError(f"cannot interpret {raw!r} as yes/no")


def _decimals_in(raw: str) -> Optional[int]:
    text = raw.strip().rstrip("%")
    if "." in text:
        return len(text.split(".", 1)[1])
    return 0


def parse_records(
    source: Union[str, TextIO, Iterable[str]], delimiter: Optional[str] = None
) -> ParseResult:
    """Read trial records from delimited text (comma default, tab accepted).

    Proportion columns given on a 0-100 scale are divided by 100 and
    flagged. Malformed cells, an n or n_analysis above MAX_SAMPLE_SIZE,
    an n_analysis below 1 and an s_analysis outside 0..n_analysis produce
    a row-level error and parsing continues; unknown columns produce a
    warning.
    """
    if isinstance(source, str):
        stream: TextIO = io.StringIO(source)
    else:
        stream = source  # type: ignore[assignment]
    text = stream.read()
    if delimiter is None:
        header_line = text.splitlines()[0] if text.strip() else ""
        delimiter = "\t" if "\t" in header_line else ","
    reader = csv.DictReader(io.StringIO(text), delimiter=delimiter)
    warnings = [
        f"unknown column {name!r} ignored"
        for name in (reader.fieldnames or [])
        if name not in KNOWN_COLUMNS
    ]
    records: list[TrialRecord] = []
    errors: list[RowError] = []
    for row_no, row in enumerate(reader, start=2):
        record = TrialRecord()
        problems: list[str] = []
        for column, raw in row.items():
            if column is None or column not in KNOWN_COLUMNS:
                continue
            if raw is None or raw.strip() == "":
                continue
            raw = raw.strip()
            name = _FIELD_BY_COLUMN.get(column, column)
            try:
                if column in _TEXT_COLUMNS:
                    setattr(record, name, raw)
                elif column in _BOOL_COLUMNS:
                    setattr(record, name, _parse_bool(raw))
                elif column in _INT_COLUMNS:
                    setattr(record, name, int(raw))
                elif column == "stage":
                    stage = int(raw)
                    if stage not in (1, 2):
                        raise ValueError("stage must be 1 or 2")
                    record.stage_claimed = stage
                elif column == "pvalue":
                    record.pvalue_reported = float(raw)
                else:  # proportion columns
                    value = float(raw.rstrip("%"))
                    if value > 1.0 or raw.endswith("%"):
                        value /= 100.0
                        record.percent_normalised.append(column)
                    if not 0.0 <= value <= 1.0:
                        raise ValueError(f"proportion out of range: {value}")
                    setattr(record, name, value)
                    precision = _DECIMALS_FIELD.get(column)
                    if precision is not None and getattr(record, precision) is None:
                        decimals = _decimals_in(raw)
                        if column in record.percent_normalised:
                            decimals += 2
                        setattr(record, precision, decimals)
            except (TypeError, ValueError) as exc:
                problems.append(f"column {column!r}: {exc}")
        for column in ("n", "n_analysis"):
            size = getattr(record, column)
            if size is not None and size > MAX_SAMPLE_SIZE:
                problems.append(f"column {column!r}: {size} exceeds the cap of {MAX_SAMPLE_SIZE}")
        s_an, n_an = record.s_analysis, record.n_analysis
        if n_an is not None and n_an < 1:
            problems.append(f"column 'n_analysis': {n_an} is below 1")
        elif None not in (s_an, n_an) and not 0 <= s_an <= n_an:
            problems.append(f"column 's_analysis': {s_an} is outside 0..{n_an}")
        if problems:
            errors.append(RowError(row=row_no, record_id=record.id, message="; ".join(problems)))
            continue
        records.append(record)
    return ParseResult(records=records, errors=errors, warnings=warnings)


def infer_termination_stage(record: TrialRecord) -> Union[int, str]:
    """1, 2, or "unclear": explicit claim, then interim-result evidence,
    then comparison of the analysed and planned sample sizes."""
    if record.stage_claimed in (1, 2):
        return record.stage_claimed
    if record.s1 is not None:
        return 2
    n_an = record.n_analysis
    if n_an is None:
        return "unclear"
    if record.n1 is not None and n_an <= record.n1:
        return 1
    if record.n is not None and n_an >= record.n:
        return 2
    return "unclear"


@dataclass
class ConsistencyResult:
    evaluable: bool
    reason: Optional[str] = None
    matched_estimators: set[str] = field(default_factory=set)
    matched_intervals: set[str] = field(default_factory=set)
    adjusted_evaluable: bool = False
    candidates: dict = field(default_factory=dict)
    # the adjusted candidates' analysis state, for the figure data
    _state: Optional[AnalysisState] = field(default=None, repr=False, compare=False)


def _rounds_to(candidate: float, reported: float, decimals: int) -> bool:
    """True when the candidate, rounded to the reported precision by either
    half-up or half-even, equals the reported value."""
    quantum = Decimal(1).scaleb(-decimals)
    cand = Decimal(repr(candidate))
    rep = Decimal(repr(reported)).quantize(quantum, rounding=ROUND_HALF_EVEN)
    for rounding in (ROUND_HALF_UP, ROUND_HALF_EVEN):
        if cand.quantize(quantum, rounding=rounding) == rep:
            return True
    return False


def _analysis_state(record: TrialRecord) -> Optional[AnalysisState]:
    """The stage-2 analysis at the analysed sample size, on the design
    usable for adjusted inference there (``state.design``); None when the
    record does not give one. No re-analysis reads the final bound a, so
    the design takes a = a1 and needs no valid a from the record."""
    r = record
    if None in (r.a1, r.n1, r.n_analysis, r.s_analysis):
        return None
    try:
        return AnalysisState(
            design=TwoStageDesign(a1=r.a1, a=r.a1, n1=r.n1, n=r.n_analysis),
            s=r.s_analysis,
            m=r.n_analysis,
            s1=r.s1,
        )
    except ValueError:
        return None


def _stage2_gap(record: TrialRecord) -> Optional[str]:
    """Why the record cannot be re-analysed as a completed trial, or None."""
    if infer_termination_stage(record) != 2:
        return "termination stage not 2"
    if record.s_analysis is None or record.n_analysis is None:
        return "successes or sample size absent"
    return None


def check_estimate_consistency(record: TrialRecord) -> ConsistencyResult:
    """Which estimation procedures reproduce the reported point estimate."""
    reason = _stage2_gap(record)
    if reason is None and record.est_reported is None:
        reason = "estimate absent"
    if reason is not None:
        return ConsistencyResult(False, reason=reason)
    decimals = record.est_decimals if record.est_decimals is not None else 2
    candidates = {"naive": estimate_naive(record.s_analysis, record.n_analysis)}
    state = _analysis_state(record)
    if state is not None:
        estimates = estimate_all(state)
        for name in ADJUSTED_ESTIMATORS:
            candidates[name] = getattr(estimates, name)
    matched = {
        name
        for name, value in candidates.items()
        if _rounds_to(value, record.est_reported, decimals)
    }
    return ConsistencyResult(
        True,
        matched_estimators=matched,
        adjusted_evaluable=state is not None,
        candidates=candidates,
    )


def check_ci_consistency(record: TrialRecord) -> ConsistencyResult:
    """Which interval procedures reproduce both reported CI endpoints."""
    reason = _stage2_gap(record)
    if reason is not None:
        return ConsistencyResult(False, reason=reason)
    if record.ci_low is None or record.ci_upp is None:
        return ConsistencyResult(False, reason="interval absent")
    if record.ci_level is None:
        return ConsistencyResult(False, reason="level absent")
    if record.ci_low > record.ci_upp:
        return ConsistencyResult(False, reason="interval endpoints reversed")
    if (
        record.ci_method_stated is not None
        and record.ci_method_stated.strip().lower() in OUT_OF_SCOPE_CI_METHODS
    ):
        return ConsistencyResult(False, reason="not evaluable (method out of scope)")
    decimals = record.ci_decimals if record.ci_decimals is not None else 2
    s, m, level = record.s_analysis, record.n_analysis, record.ci_level
    candidates: dict[str, ConfidenceInterval] = {
        "CP": ci_clopper_pearson(s, m, level),
        "Wald": ci_wald(s, m, level),
        "Wilson": ci_wilson(s, m, level),
    }
    state = _analysis_state(record)
    if state is not None:
        for method in ADJUSTED_CIS:
            candidates[method] = interval_for_outcome(method, s, state.analysis_design, level)
    matched = {
        name
        for name, ci in candidates.items()
        if _rounds_to(ci.low, record.ci_low, decimals)
        and _rounds_to(ci.upp, record.ci_upp, decimals)
    }
    return ConsistencyResult(
        True,
        matched_intervals=matched,
        adjusted_evaluable=state is not None,
        candidates=candidates,
        _state=state,
    )


def _stat(count: int, denominator: int) -> dict:
    pct = None if denominator == 0 else round(100.0 * count / denominator, 1)
    return {"count": count, "denominator": denominator, "percent": pct}


def _stated(*fields: str):
    """Predicate: the record gives every one of the fields."""
    return lambda r: all(getattr(r, name) is not None for name in fields)


def _flag(name: str):
    """Predicate: the record answers yes to the flag."""
    return lambda r: bool(getattr(r, name))


def _reported_any(r: TrialRecord) -> bool:
    return r.est_reported is not None or r.pvalue_reported is not None or r.ci_low is not None


_TARGETS = ("p0", "p1", "alpha", "beta")
_BOUNDARIES = ("a1", "a", "n1", "n")

# share of all records; "justified_p0" is a flag, the rest are stated fields
_DESIGN_REPORTING = {
    **{f"stated_{name}": _stated(name) for name in (*_TARGETS, "criterion", *_BOUNDARIES)},
    "justified_p0": _flag("p0_justified"),
    "stated_p0_p1": _stated("p0", "p1"),
    "stated_p0_p1_alpha_beta": _stated(*_TARGETS),
    "stated_a1_a_n1_n": _stated(*_BOUNDARIES),
    "stated_five_design_components": _stated(*_TARGETS, "criterion"),
    "stated_all_nine_components": _stated(*_TARGETS, "criterion", *_BOUNDARIES),
}

# share of the records in each termination stratum
_INFERENCE_REPORTING = {
    "reported_any_inference": _reported_any,
    "reported_estimate": _stated("est_reported"),
    "estimate_stated_adjusted": _flag("est_stated_adjusted"),
    "reported_pvalue": _stated("pvalue_reported"),
    "pvalue_stated_adjusted": _flag("pvalue_stated_adjusted"),
    "reported_ci": _stated("ci_low"),
    "ci_stated_adjusted": _flag("ci_stated_adjusted"),
}


def _tally(table: dict, group: list[TrialRecord]) -> dict:
    return {key: _stat(sum(map(pred, group)), len(group)) for key, pred in table.items()}


def _matches(checks: list[ConsistencyResult], attr: str, names: tuple[str, ...]) -> dict:
    """Share of the checks that matched at least one of the procedures."""
    return _stat(sum(1 for c in checks if not getattr(c, attr).isdisjoint(names)), len(checks))


def audit_summary(records: list[TrialRecord]) -> dict:
    """Aggregate reporting and consistency statistics.

    Every reporting count comes from one of two predicate tables:
    _DESIGN_REPORTING over all records and _INFERENCE_REPORTING over each
    termination stratum. Only "analysis_at_planned_n" has a denominator of
    its own: the stratum's records that report inference and give both n
    and n_analysis.

    Returns a JSON-serialisable dict with explicit denominators for every
    percentage; percentages are given to one decimal place and are None
    when the denominator is zero.
    """
    total = len(records)
    strata: dict[str, list[TrialRecord]] = {"1": [], "2": [], "unclear": []}
    for r in records:
        strata[str(infer_termination_stage(r))].append(r)
    inference_reporting = {}
    for label, group in list(strata.items()) + [("all", records)]:
        planned = [
            r for r in group if _reported_any(r) and r.n is not None and r.n_analysis is not None
        ]
        inference_reporting[label] = _tally(_INFERENCE_REPORTING, group)
        inference_reporting[label]["analysis_at_planned_n"] = _stat(
            sum(1 for r in planned if r.n_analysis == r.n), len(planned)
        )

    stage2 = strata["2"]
    est_checks = [
        check_estimate_consistency(r)
        for r in stage2
        if not r.est_stated_adjusted and r.est_reported is not None
    ]
    ci_checks = [
        check_ci_consistency(r)
        for r in stage2
        if not r.ci_stated_adjusted and r.ci_low is not None
    ]
    est_evaluable = [c for c in est_checks if c.evaluable]
    ci_evaluable = [c for c in ci_checks if c.evaluable]
    est_adjusted = [c for c in est_evaluable if c.adjusted_evaluable]
    ci_adjusted = [c for c in ci_evaluable if c.adjusted_evaluable]
    consistency = {
        "estimate_reanalysable": _stat(len(est_evaluable), len(stage2)),
        "estimate_matches_unadjusted": _matches(
            est_evaluable, "matched_estimators", UNADJUSTED_ESTIMATORS
        ),
        "estimate_matches_any_adjusted": _matches(
            est_adjusted, "matched_estimators", ADJUSTED_ESTIMATORS
        ),
        "ci_reanalysable": _stat(len(ci_evaluable), len(stage2)),
        "ci_matches_any_unadjusted": _matches(ci_evaluable, "matched_intervals", UNADJUSTED_CIS),
        "ci_matches_any_adjusted": _matches(ci_adjusted, "matched_intervals", ADJUSTED_CIS),
        "estimate_not_evaluable_reasons": _reason_counts(est_checks),
        "ci_not_evaluable_reasons": _reason_counts(ci_checks),
    }

    return {
        "n_records": total,
        "stage_counts": {label: _stat(len(group), total) for label, group in strata.items()},
        "design_reporting": _tally(_DESIGN_REPORTING, records),
        "inference_reporting": inference_reporting,
        "consistency": consistency,
    }


def _reason_counts(checks: list[ConsistencyResult]) -> dict:
    reasons = Counter(c.reason for c in checks if not c.evaluable and c.reason)
    return dict(sorted(reasons.items()))


def report_to_json(report: dict) -> str:
    """Deterministic serialisation: identical inputs give identical bytes."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# figure datasets
#
# Each dataset turns one record into either a row or the reason it is
# skipped; _dataset keeps the rows and counts the reasons in the order
# they first occur.


def export_figure_data(records: list[TrialRecord]) -> dict:
    """The four re-analysis datasets, each a header plus row list, with a
    per-dataset count of records skipped and why."""
    return {
        name: _dataset(records, header, row_of)
        for name, (header, row_of) in _FIGURE_DATASETS.items()
    }


def _dataset(records: list[TrialRecord], header: list[str], row_of) -> dict:
    rows = []
    skips: dict[str, int] = {}
    for r in records:
        row = row_of(r)
        if isinstance(row, str):
            skips[row] = skips.get(row, 0) + 1
        else:
            rows.append(row)
    return {"header": list(header), "rows": rows, "skipped": skips}


def _estimates_row(r: TrialRecord) -> Union[list, str]:
    if infer_termination_stage(r) != 2:
        return "termination stage not 2"
    state = _analysis_state(r)
    if state is None:
        return "design or analysis data absent"
    if r.p0 is None or r.p1 is None or r.p1 <= r.p0:
        return "p0/p1 absent"
    naive = estimate_naive(r.s_analysis, r.n_analysis)
    umvue = estimate_umvue(state)
    shift = 100.0 * (naive - umvue) / (r.p1 - r.p0)
    return [r.id, round(naive, 6), round(umvue, 6), round(shift, 2)]


def _ci_row(r: TrialRecord) -> Union[list, str]:
    check = check_ci_consistency(r)
    if not check.evaluable:
        return check.reason or "not evaluable"
    if not check.adjusted_evaluable:
        return "adjusted interval not computable"
    jt = check.candidates["JT"]
    matched_unadjusted = sorted(check.matched_intervals & set(UNADJUSTED_CIS))
    method = matched_unadjusted[0] if matched_unadjusted else "CP"
    cov_rep = cov_jt = None
    if r.ci_level == 0.95:
        design = check._state.design
        p_eval = estimate_umvue(check._state)
        if 0.0 < p_eval < 1.0:
            cov_rep = round(coverage(method, p_eval, design, level=r.ci_level), 6)
            cov_jt = round(coverage("JT", p_eval, design, level=r.ci_level), 6)
    return [
        r.id,
        round(r.ci_upp - r.ci_low, 6),
        round(jt.length, 6),
        method,
        cov_rep,
        cov_jt,
    ]


def _sample_size_row(r: TrialRecord) -> Union[list, str]:
    if r.n is None or r.n_analysis is None:
        return "planned or analysed sample size absent"
    return [r.id, r.n, r.n_analysis, str(infer_termination_stage(r))]


def _error_rate_row(r: TrialRecord) -> Union[list, str]:
    if infer_termination_stage(r) != 2:
        return "termination stage not 2"
    if r.alpha != 0.05 or r.beta != 0.2:
        return "targets not (alpha=0.05, power=0.8)"
    if None in (r.p0, r.p1, r.a1, r.a, r.n1, r.n, r.n_analysis):
        return "design or analysis data absent"
    if r.n_analysis <= r.n1:
        return "no second-stage data"
    try:
        design = TwoStageDesign(
            a1=r.a1, a=r.a, n1=r.n1, n=r.n,
            targets=DesignTargets(p0=r.p0, p1=r.p1, alpha=r.alpha, beta=r.beta),
        )
    except ValueError:
        return "invalid design"
    return [
        r.id,
        r.n_analysis,
        round(reject_prob_retained(r.p0, design, r.n_analysis), 6),
        round(reject_prob_retained(r.p1, design, r.n_analysis), 6),
        round(reject_prob_ek(r.p0, design, r.n_analysis), 6),
        round(reject_prob_ek(r.p1, design, r.n_analysis), 6),
    ]


# name: (header, row or skip reason of one record)
_FIGURE_DATASETS = {
    "estimates_naive_vs_umvue": (["id", "naive", "umvue", "shift_pct_of_effect"], _estimates_row),
    "ci_length_and_coverage": (
        [
            "id", "reported_length", "jt_length", "matched_method",
            "coverage_reported_method", "coverage_jt",
        ],
        _ci_row,
    ),
    "planned_vs_analysed_n": (["id", "planned_n", "analysed_n", "stage"], _sample_size_row),
    "deviation_error_rates": (
        ["id", "n_an", "retained_alpha", "retained_power", "ek_alpha", "ek_power"],
        _error_rate_row,
    ),
}


def write_figure_data(datasets: dict, out_dir) -> list[str]:
    """Write each dataset as a CSV file; returns the paths written."""
    import os

    paths = []
    os.makedirs(out_dir, exist_ok=True)
    for name, data in datasets.items():
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(data["header"])
            writer.writerows(data["rows"])
        paths.append(path)
    return paths
