"""Command-line front end.

Subcommands cover design search, operating characteristics, point
estimation, confidence intervals, p-values, exact coverage, analyses at a
deviated final sample size, and the batch audit pipeline. Data goes to
stdout, diagnostics to stderr; every error path prints a single line of
the form ``CODE: message``. Handlers report bad input by raising
ValueError, and ``main`` alone turns it into that line.

Exit status:
  0  success;
  2  invalid input: ``USAGE`` from argparse, or ``INVALID_INPUT`` for a
     ValueError raised while handling the command;
  3  ``INFEASIBLE``: no design within ``--nmax`` meets the targets;
  4  the audit finished, but some rows were reported as ``ROW_ERROR``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from typing import Optional

from .audit import (
    audit_summary,
    export_figure_data,
    parse_records,
    report_to_json,
    write_figure_data,
)
from .design import (
    DesignTargets,
    InfeasibleDesignError,
    TwoStageDesign,
    admissible_set,
    operating_characteristics,
    search_designs,
)
from .deviation import (
    DeviatedAnalysis,
    conditional_error,
    ek_reject,
    reject_prob_ek,
    reject_prob_retained,
)
from .inference import (
    CI_METHODS,
    AnalysisState,
    coverage,
    estimate_all,
    interval_for_outcome,
    p_value,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_PARTIAL_AUDIT = 4

# Most points a "start:stop:step" p-grid may have: a step of 1e-4 across
# [0, 1]. Each point costs one exact coverage sum.
MAX_P_GRID_POINTS = 10_001


def _emit(payload: dict, fmt: str, table_rows: list[tuple[str, object]]) -> None:
    """Write one result in the requested format.

    json output is deterministic (sorted keys, fixed separators); table and
    csv render the same key/value rows.
    """
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["field", "value"])
        for key, value in table_rows:
            writer.writerow([key, value])
    else:
        width = max((len(k) for k, _ in table_rows), default=0)
        for key, value in table_rows:
            sys.stdout.write(f"{key.ljust(width)}  {value}\n")


def _format_float(x: object) -> object:
    if isinstance(x, float):
        return f"{x:.10g}"
    return x


def _targets_from_args(args, required: bool = True) -> Optional[DesignTargets]:
    values = (args.p0, args.p1, args.alpha, args.beta)
    if all(v is None for v in values):
        if required:
            raise ValueError("targets required: pass --p0 --p1 --alpha --beta")
        return None
    if any(v is None for v in values):
        raise ValueError("targets are all-or-nothing: pass --p0 --p1 --alpha --beta together")
    return DesignTargets(p0=args.p0, p1=args.p1, alpha=args.alpha, beta=args.beta)


def _add_target_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p0", type=float, help="null response probability (0-1 decimal)")
    parser.add_argument("--p1", type=float, help="alternative response probability")
    parser.add_argument("--alpha", type=float, help="one-sided type-I error bound")
    parser.add_argument("--beta", type=float, help="type-II error bound (power = 1 - beta)")


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default table)",
    )


def _add_state_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--design", required=True, help='design as "a1/n1,a/n"')
    parser.add_argument("--s", type=int, required=True, help="total observed successes")
    parser.add_argument("--m", type=int, required=True, help="analysed sample size")
    parser.add_argument("--s1", type=int, help="stage-1 successes (optional)")


def _state_from_args(args, targets: Optional[DesignTargets] = None) -> AnalysisState:
    design = TwoStageDesign.from_compact(args.design, targets=targets)
    return AnalysisState(design=design, s=args.s, m=args.m, s1=args.s1)


def _oc_rows(design: TwoStageDesign, targets: DesignTargets) -> tuple[dict, list]:
    oc = operating_characteristics(design, targets)
    payload = {"design": design.to_json_dict(), "oc": oc.to_json_dict()}
    rows = [("design", design.compact())]
    rows += [(k, _format_float(v)) for k, v in oc.to_json_dict().items()]
    return payload, rows


def _cmd_design(args) -> int:
    targets = _targets_from_args(args)
    criterion = args.criterion
    if criterion == "admissible":
        entries = admissible_set(targets, n_max=args.nmax)
        designs, rows = [], []
        for e in entries:
            oc = operating_characteristics(e.design, targets)
            designs.append(
                {
                    "w_low": e.w_low,
                    "w_high": e.w_high,
                    "design": e.design.to_json_dict(),
                    "oc": oc.to_json_dict(),
                }
            )
            rows.append(
                (
                    e.design.compact(),
                    f"w in [{e.w_low:.4f}, {e.w_high:.4f}]  "
                    f"EN(p0)={oc.en_p0:.4f}  alpha={oc.alpha_attained:.4f}  "
                    f"power={oc.power_attained:.4f}",
                )
            )
        payload = {"criterion": "admissible", "designs": designs}
        _emit(payload, args.format, rows)
        return EXIT_OK
    design = search_designs(targets, criterion=criterion, n_max=args.nmax)
    payload, rows = _oc_rows(design, targets)
    payload["criterion"] = criterion
    _emit(payload, args.format, rows)
    return EXIT_OK


def _cmd_oc(args) -> int:
    targets = _targets_from_args(args)
    design = TwoStageDesign.from_compact(args.design, targets=targets)
    payload, rows = _oc_rows(design, targets)
    _emit(payload, args.format, rows)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    state = _state_from_args(args)
    estimates = estimate_all(state)
    wanted = (
        list(estimates.to_json_dict())
        if args.methods == "all"
        else [m.strip() for m in args.methods.split(",") if m.strip()]
    )
    available = estimates.to_json_dict()
    unknown = [m for m in wanted if m not in available]
    if unknown:
        raise ValueError(
            f"unknown estimator(s) {', '.join(unknown)}; "
            f"choose from {', '.join(available)}"
        )
    selected = {name: available[name] for name in wanted}
    payload = {"s": args.s, "m": args.m, "estimates": selected}
    rows = [(name, _format_float(value)) for name, value in selected.items()]
    _emit(payload, args.format, rows)
    return EXIT_OK


def _cmd_ci(args) -> int:
    state = _state_from_args(args)
    ci = interval_for_outcome(args.method, state.s, state.analysis_design, args.level)
    payload = {
        "s": args.s,
        "m": args.m,
        "method": ci.method,
        "level": ci.level,
        "low": ci.low,
        "upp": ci.upp,
    }
    rows = [
        ("method", ci.method),
        ("level", _format_float(ci.level)),
        ("low", _format_float(ci.low)),
        ("upp", _format_float(ci.upp)),
    ]
    _emit(payload, args.format, rows)
    return EXIT_OK


def _cmd_pvalue(args) -> int:
    targets = _targets_from_args(args, required=False)
    state = _state_from_args(args, targets=targets)
    if targets is None and state.design.targets is None and args.null is None:
        raise ValueError("null probability required: pass --null or the design targets")
    value = p_value(state, p0=args.null)
    payload = {"s": args.s, "m": args.m, "p_value": value}
    rows = [("p_value", _format_float(value))]
    _emit(payload, args.format, rows)
    return EXIT_OK


def _parse_p_grid(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError('p-grid must be "start:stop:step" or a comma list')
        try:
            start, stop, step = (float(x) for x in parts)
        except ValueError:
            raise ValueError(f"malformed p-grid {spec!r}")
        if step <= 0 or stop < start:
            raise ValueError("p-grid needs step > 0 and stop >= start")
        # counted before any point is built; a NaN or infinite count fails too
        if not (stop - start + 1e-12) / step < MAX_P_GRID_POINTS:
            raise ValueError(
                f"p-grid {spec!r} needs finite bounds and at most the cap of "
                f"{MAX_P_GRID_POINTS} points"
            )
        values = []
        k = 0
        while True:
            p = start + k * step
            if p > stop + 1e-12:
                break
            values.append(round(p, 12))
            k += 1
        return values
    try:
        return [float(x) for x in spec.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"malformed p-grid {spec!r}")


def _cmd_coverage(args) -> int:
    design = TwoStageDesign.from_compact(args.design)
    if (args.p is None) == (args.p_grid is None):
        raise ValueError("pass exactly one of --p or --p-grid")
    grid = [args.p] if args.p is not None else _parse_p_grid(args.p_grid)
    for p in grid:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"coverage probability {p} outside [0, 1]")
    values = [(p, coverage(args.method, p, design, level=args.level)) for p in grid]
    payload = {
        "design": design.to_json_dict(),
        "method": args.method,
        "level": args.level,
        "coverage": [{"p": p, "coverage": c} for p, c in values],
    }
    rows = [(f"p={p:g}", _format_float(c)) for p, c in values]
    _emit(payload, args.format, rows)
    return EXIT_OK


def _cmd_deviate(args) -> int:
    targets = _targets_from_args(args)
    design = TwoStageDesign.from_compact(args.design, targets=targets)
    analysis = DeviatedAnalysis(design=design, n_an=args.n_an, s1=args.s1, s_an=args.s)
    if args.rule == "ek":
        reject = ek_reject(analysis)
        err = conditional_error(args.s1, design)
        alpha_at = reject_prob_ek(targets.p0, design, args.n_an)
        power_at = reject_prob_ek(targets.p1, design, args.n_an)
    else:
        reject = args.s > design.a
        err = None
        alpha_at = reject_prob_retained(targets.p0, design, args.n_an)
        power_at = reject_prob_retained(targets.p1, design, args.n_an)
    payload = {
        "rule": args.rule,
        "n_an": args.n_an,
        "s1": args.s1,
        "s": args.s,
        "reject": reject,
        "conditional_error": err,
        "type_one_error": alpha_at,
        "power": power_at,
    }
    rows = [
        ("rule", args.rule),
        ("reject", str(reject).lower()),
        ("type_one_error", _format_float(alpha_at)),
        ("power", _format_float(power_at)),
    ]
    if err is not None:
        rows.insert(2, ("conditional_error", _format_float(err)))
    _emit(payload, args.format, rows)
    return EXIT_OK


def _cmd_audit(args) -> int:
    try:
        with open(args.input, newline="") as handle:
            parsed = parse_records(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc.strerror}")
    for warning in parsed.warnings:
        sys.stderr.write(f"WARNING: {warning}\n")
    for error in parsed.errors:
        sys.stderr.write(
            f"ROW_ERROR: row {error.row}"
            + (f" (id {error.record_id})" if error.record_id else "")
            + f": {error.message}\n"
        )
    summary = audit_summary(parsed.records)
    summary["row_errors"] = len(parsed.errors)
    text = report_to_json(summary)
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        report_path = os.path.join(args.out, "audit_report.json")
        with open(report_path, "w") as handle:
            handle.write(text)
        paths = write_figure_data(export_figure_data(parsed.records), args.out)
        sys.stdout.write("\n".join([report_path] + paths) + "\n")
    else:
        sys.stdout.write(text)
    return EXIT_PARTIAL_AUDIT if parsed.errors else EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        sys.stderr.write(f"USAGE: {message}\n")
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INVALID)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twostage",
        description="Design, analyse, and audit two-stage single-arm binomial trials.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("design", parents=[], help="search for an optimal design")
    _add_target_flags(p)
    p.add_argument(
        "--criterion", choices=("optimal", "minimax", "admissible"), default="optimal"
    )
    p.add_argument("--nmax", type=int, default=150, help="largest n searched (default 150)")
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("oc", help="operating characteristics of a design")
    p.add_argument("--design", required=True, help='design as "a1/n1,a/n"')
    _add_target_flags(p)
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_oc)

    p = sub.add_parser("estimate", help="point estimates for an observed outcome")
    _add_state_flags(p)
    p.add_argument(
        "--methods", default="all",
        help='"all" or a comma list (naive, bias_subtracted, bias_adjusted, '
        "umvue, umvcue, conditional, median_unbiased)",
    )
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("ci", help="confidence interval for an observed outcome")
    _add_state_flags(p)
    p.add_argument(
        "--method", default="jt",
        help=f"interval method, one of {', '.join(m.lower() for m in CI_METHODS)}",
    )
    p.add_argument("--level", type=float, default=0.95, help="confidence level (default 0.95)")
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_ci)

    p = sub.add_parser("pvalue", help="adjusted p-value for an observed outcome")
    _add_state_flags(p)
    _add_target_flags(p)
    p.add_argument("--null", type=float, help="null probability if no targets are given")
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_pvalue)

    p = sub.add_parser("coverage", help="exact coverage of an interval method")
    p.add_argument("--design", required=True, help='design as "a1/n1,a/n"')
    p.add_argument("--method", default="jt", help="interval method")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--p", type=float, help="single true response probability")
    p.add_argument(
        "--p-grid", dest="p_grid",
        help='probabilities as "start:stop:step" or a comma list',
    )
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_coverage)

    p = sub.add_parser("deviate", help="analysis at a deviated final sample size")
    p.add_argument("--design", required=True, help='design as "a1/n1,a/n"')
    _add_target_flags(p)
    p.add_argument("--n-an", dest="n_an", type=int, required=True, help="realised final n")
    p.add_argument("--s1", type=int, required=True, help="stage-1 successes")
    p.add_argument("--s", type=int, required=True, help="total successes at n_an")
    p.add_argument(
        "--rule", choices=("ek", "retain"), default="ek",
        help="conditional-error test or naive retention of the planned bound",
    )
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_deviate)

    p = sub.add_parser("audit", help="batch re-analysis of a trial-record file")
    p.add_argument("--input", required=True, help="delimited record file (csv or tsv)")
    p.add_argument("--out", help="directory for the report and figure datasets")
    p.set_defaults(handler=_cmd_audit)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import, and reused after it:
    # parse_args keeps no state between calls, and building the tree costs
    # more than most commands
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_usage(sys.stderr)
        sys.stderr.write("USAGE: a subcommand is required\n")
        return EXIT_INVALID
    try:
        return args.handler(args)
    except InfeasibleDesignError as exc:
        sys.stderr.write(f"INFEASIBLE: {exc}\n")
        return EXIT_INFEASIBLE
    except ValueError as exc:
        sys.stderr.write(f"INVALID_INPUT: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
