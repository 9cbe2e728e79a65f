"""Per-layer tracing from outside the program.

Tracer.install replaces public functions of the six twostage modules with
wrappers, in every module namespace that holds them, so calls made inside
the package are caught as well. A span wrapper records (id, parent, name,
start, end) in memory and charges the span's self time, its duration minus
the time its child spans cover, to the module that owns the function. A
count wrapper only counts calls; it is used where a function runs
thousands of times per op, and its time stays with the caller.

The binomial kernel (binom_pmf, binom_cdf, binom_upper_tail) runs about a
million times per second. It is not wrapped: its calls are read from
cache_info(), and its time is charged to whichever layer called it. The
binomial layer's own self time is therefore the bisection loop of
solve_monotone_root; each evaluation of the root's target function is
charged to the module that defined that function.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("binomial", "design", "inference", "deviation", "audit", "cli")

# (module, function, kind): "span" times the call, "count" only counts it
WRAPPED = (
    ("binomial", "solve_monotone_root", "root"),
    ("design", "search_designs", "span"),
    ("design", "admissible_set", "span"),
    ("design", "operating_characteristics", "span"),
    ("design", "reject_prob", "span"),
    ("design", "terminal_distribution", "count"),
    ("inference", "estimate_all", "span"),
    ("inference", "estimate_bias_subtracted", "span"),
    ("inference", "estimate_bias_adjusted", "span"),
    ("inference", "estimate_conditional", "span"),
    ("inference", "estimate_median_unbiased", "span"),
    ("inference", "estimate_umvue", "span"),
    ("inference", "estimate_umvcue", "span"),
    ("inference", "estimator_bias", "count"),
    ("inference", "p_value", "span"),
    ("inference", "ci_jennison_turnbull", "span"),
    ("inference", "ci_midp", "span"),
    ("inference", "ci_clopper_pearson", "span"),
    ("inference", "ci_wald", "span"),
    ("inference", "ci_wilson", "span"),
    ("inference", "interval_for_outcome", "span"),
    ("inference", "coverage", "span"),
    ("deviation", "reject_prob_ek", "span"),
    ("deviation", "reject_prob_retained", "span"),
    ("deviation", "ek_reject", "span"),
    ("deviation", "interpretation_probabilities", "span"),
    ("audit", "parse_records", "span"),
    ("audit", "audit_summary", "span"),
    ("audit", "export_figure_data", "span"),
    ("audit", "check_estimate_consistency", "span"),
    ("audit", "check_ci_consistency", "span"),
    ("audit", "report_to_json", "span"),
    ("cli", "main", "span"),
)

# spans kept for the trace file; beyond this only the totals are updated
MAX_SPANS = 400_000


class Tracer:
    def __init__(self) -> None:
        # each frame is [span id, time covered by child spans]
        self.stack: list[list] = [[0, 0.0]]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 1
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.originals: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def _enter(self) -> tuple[list, int]:
        parent = self.stack[-1][0]
        frame = [self.next_id, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame, parent

    def _exit(self, frame: list, parent: int, module: str, name: str, start: float, end: float) -> None:
        self.stack.pop()
        duration = end - start
        self.self_s[module] += duration - frame[1]
        self.stack[-1][1] += duration
        self.incl_s[name] += duration
        self.calls[name] += 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[0], parent, name, start, end))
        else:
            self.dropped += 1

    def timed(self, module: str, name: str, fn, *args, **kwargs):
        frame, parent = self._enter()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, parent, module, name, start, perf_counter())

    def _span(self, module: str, name: str, fn):
        if name == "search_designs":
            def wrapper(targets, criterion="null-optimal", *args, **kwargs):
                crit = criterion.lower().replace("_", "-")
                crit = "null-optimal" if crit == "optimal" else crit
                return self.timed(module, f"search_designs.{crit}", fn, targets, criterion, *args, **kwargs)
        elif name == "parse_records":
            def wrapper(*args, **kwargs):
                result = self.timed(module, name, fn, *args, **kwargs)
                self.calls["row_errors"] += len(result.errors)
                return result
        else:
            def wrapper(*args, **kwargs):
                return self.timed(module, name, fn, *args, **kwargs)
        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _root(self, fn):
        """solve_monotone_root, with each evaluation of f charged to f's module."""

        def wrapper(f, target, *args, **kwargs):
            owner = _layer_of(getattr(f, "__module__", "") or "")

            def f_charged(p):
                self.calls["root_f_evals"] += 1
                frame = [self.stack[-1][0], 0.0]
                self.stack.append(frame)
                start = perf_counter()
                try:
                    return f(p)
                finally:
                    duration = perf_counter() - start
                    self.stack.pop()
                    self.self_s[owner] += duration - frame[1]
                    self.stack[-1][1] += duration

            result = self.timed("binomial", "solve_monotone_root", fn, f_charged, target, *args, **kwargs)
            if result.out_of_bracket:
                self.calls["root_out_of_bracket"] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Replace each wrapped function in every namespace that holds it."""
        for module in MODULES:
            importlib.import_module(f"twostage.{module}")
        namespaces = [m for n, m in sys.modules.items() if n.startswith("twostage")]
        for module, name, kind in WRAPPED:
            original = getattr(sys.modules[f"twostage.{module}"], name)
            self.originals[name] = original
            if kind == "span":
                wrapper = self._span(module, name, original)
            elif kind == "count":
                wrapper = self._count(name, original)
            else:
                wrapper = self._root(original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except those measured outside the run."""
        from twostage import binomial

        pmf = binomial.binom_pmf.cache_info()
        cdf = binomial.binom_cdf.cache_info()
        tail = binomial.binom_upper_tail.cache_info()
        intervals = self.originals["interval_for_outcome"].cache_info()
        incl, calls = self.incl_s, self.calls
        out = {
            "binomial.pmf_calls": pmf.hits + pmf.misses,
            "binomial.pmf_hit_ratio": _ratio(pmf.hits, pmf.hits + pmf.misses),
            "binomial.cdf_calls": cdf.hits + cdf.misses,
            "binomial.tail_calls": tail.hits + tail.misses,
            "binomial.cache_entries": pmf.currsize + cdf.currsize + tail.currsize,
            "binomial.root_solves": calls["solve_monotone_root"],
            "binomial.root_f_evals": calls["root_f_evals"],
            "binomial.root_out_of_bracket": calls["root_out_of_bracket"],
            "design.search_s.null-optimal": incl["search_designs.null-optimal"],
            "design.search_s.minimax": incl["search_designs.minimax"],
            "design.admissible_s": incl["admissible_set"],
            "design.terminal_distribution_calls": calls["terminal_distribution"],
            "inference.estimate_all_s": incl["estimate_all"],
            "inference.estimator_bias_calls": calls["estimator_bias"],
            "inference.ci_s.JT": incl["ci_jennison_turnbull"],
            "inference.ci_s.midp": incl["ci_midp"],
            "inference.ci_s.CP": incl["ci_clopper_pearson"],
            "inference.coverage_s": incl["coverage"],
            "inference.interval_cache_hit_ratio": _ratio(
                intervals.hits, intervals.hits + intervals.misses
            ),
            "deviation.reject_prob_ek_s": incl["reject_prob_ek"],
            "deviation.reject_prob_retained_s": incl["reject_prob_retained"],
            "audit.parse_s": incl["parse_records"],
            "audit.summary_s": incl["audit_summary"],
            "audit.figure_data_s": incl["export_figure_data"],
            "audit.check_s": incl["check_estimate_consistency"] + incl["check_ci_consistency"],
            "audit.row_errors": calls["row_errors"],
        }
        for module in MODULES + ("bench",):
            out[f"{module}.self_s"] = self.self_s[module]
        # the op spans are the roots, so the self times above add up to this
        out["trace.wall_s"] = incl["op"]
        out["trace.spans"] = len(self.spans) + self.dropped
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps({"dropped": self.dropped}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _layer_of(module_name: str) -> str:
    short = module_name.rsplit(".", 1)[-1]
    return short if module_name.startswith("twostage.") and short in MODULES else "bench"


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
