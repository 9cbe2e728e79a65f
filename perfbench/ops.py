"""One op of each workload, run against the program, with its output made
JSON-comparable. Import only after the program's source is on sys.path."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from twostage import cli
from twostage.audit import audit_summary, export_figure_data, parse_records, report_to_json
from twostage.design import DesignTargets, InfeasibleDesignError, admissible_set, search_designs


def run_search(job: dict) -> dict:
    targets = DesignTargets(*job["targets"])
    try:
        if job["kind"] == "admissible":
            entries = admissible_set(targets, n_max=job["n_max"])
            return {
                "admissible": [
                    [e.w_low, e.w_high, e.design.a1, e.design.a, e.design.n1, e.design.n]
                    for e in entries
                ]
            }
        d = search_designs(targets, job["kind"], n_max=job["n_max"])
        return {"design": [d.a1, d.a, d.n1, d.n]}
    except InfeasibleDesignError as exc:
        return {"infeasible": exc.binding_constraint}


def run_audit(text: str) -> dict:
    """The `audit --out` path for one record: parse, summarise, figure data."""
    parsed = parse_records(text)
    summary = audit_summary(parsed.records)
    summary["row_errors"] = len(parsed.errors)
    report = report_to_json(summary)
    figures = export_figure_data(parsed.records)
    return {
        "report": json.loads(report),
        "figures": json.loads(json.dumps(figures)),
        "row_errors": [[e.row, e.record_id] for e in parsed.errors],
    }


def run_analyse(argv: list[str]) -> dict:
    """One CLI command in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    error = None
    if status != 0:
        lines = err.getvalue().strip().splitlines()
        error = lines[0].split(":", 1)[0] if lines else ""
    return {"exit": status, "stdout": out.getvalue(), "error": error}


RUNNERS = {"search": run_search, "audit": run_audit, "analyse": run_analyse}
