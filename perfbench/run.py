"""The twostage benchmark: one workload, one run, every metric checked and named.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --ops K
    python3 perfbench/run.py --self-check

Run from the repository root; the program is imported from src/. W is one
of search, audit, analyse. Each run

  * times SETUP_RUNS fresh interpreters importing twostage.cli (setup_s);
  * runs the workload's seeded ops in a fresh worker process until they
    have taken S seconds at the reference speed (see calibrate.py), closed
    loop, one client, no threads, caches cold at the start;
  * checks every op's output against the stored reference;
  * prints a report, then one JSON line: the end-to-end metrics with
    --trace 0, the per-layer metrics with --trace 1, all times scaled to
    the reference speed.

With --trace 1 the worker wraps the package's functions (see tracer.py),
writes its spans to perfbench/out/W.spans.jsonl, and a second, untraced
worker then runs the same ops to measure the tracing overhead.

--ops K runs exactly the first K ops and prints the digest of their
outputs, so two commits can be compared on any seed. --self-check shows
that a perturbed reference output is reported as a failed op.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from time import perf_counter

import calibrate
import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 9
IMPORTTIME_RUNS = 3
# A timed worker ends within 2 x --seconds of wall time plus its last op;
# two of them and the set-up must fit in the 180 s a run may take. Workers
# bounded only by an op count (--ops, --self-check) have no timeout.
WORKER_TIMEOUT_S = 80


class BenchError(Exception):
    """The benchmark could not run (as opposed to an op that failed)."""


def _src_env(root: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def _import_once(root: str, *flags: str) -> tuple[float, float, str]:
    """(raw time, scale, stderr) of one fresh interpreter importing twostage.cli."""
    cal = calibrate.measure()
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import twostage.cli"],
        env=_src_env(root), capture_output=True, text=True, timeout=60,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"import twostage.cli failed: {proc.stderr.strip()[-500:]}")
    return elapsed, calibrate.CAL_REF_S / statistics.fmean([cal, calibrate.measure()]), proc.stderr


def measure_setup(root: str, runs: int) -> list[tuple[float, float]]:
    """(raw, scaled) times for fresh interpreters to finish `import twostage.cli`."""
    out = []
    for _ in range(runs):
        raw, scale, _ = _import_once(root)
        out.append((raw, raw * scale))
    return out


def measure_import_layers(root: str) -> dict[str, float]:
    """cli.import_s and cli.numpy_import_s from -X importtime (cumulative,
    scaled, median)."""
    found: dict[str, list[float]] = {"twostage.cli": [], "numpy": []}
    for _ in range(IMPORTTIME_RUNS):
        _, scale, log = _import_once(root, "-X", "importtime")
        for line in log.splitlines():
            match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if match and match.group(2) in found:
                found[match.group(2)].append(int(match.group(1)) / 1e6 * scale)
    return {
        "cli.import_s": statistics.median(found["twostage.cli"] or [0.0]),
        "cli.numpy_import_s": statistics.median(found["numpy"] or [0.0]),
    }


def run_worker(root: str, workload: str, seed: int, seconds: float, max_ops: int, trace: bool) -> dict:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, f"{workload}.result.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), root, workload, str(seed),
        str(seconds), str(max_ops), "1" if trace else "0", result_path,
    ]
    timed = seconds <= WORKER_TIMEOUT_S
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S if timed else None
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path) as handle:
        result = json.load(handle)
    os.remove(result_path)
    return result


def op_stats(workload: str, times: list[float]) -> dict:
    times = sorted(times)
    n = len(times)
    percentile = workloads.TAIL_PERCENTILE[workload]
    index = max(0, math.ceil(percentile / 100.0 * n) - 1)
    return {
        "ops_per_s": n / sum(times),
        "op_p50_ms": 1000.0 * statistics.median(times),
        "op_tail_ms": 1000.0 * times[index],
        "tail_percentile": percentile,
        "tail_beyond": n - 1 - index,
        "wall_s": sum(times),
    }


def scaled_times(result: dict) -> list[float]:
    """Each op's time scaled to the reference speed (see calibrate.py)."""
    timeline = calibrate.Timeline(result["calibration"])
    return [
        seconds * timeline.factor(start, end)
        for (_key, seconds, _output), (start, end) in zip(result["ops"], result["windows"])
    ]


def pool_inputs(workload: str) -> dict:
    return {
        item["key"]: item["input"]
        for items in workloads.POOLS[workload]().values()
        for item in items
    }


def check_records(root: str, workload: str, records: list) -> list[str]:
    return check.check_ops(records, check.load_reference(root, workload), pool_inputs(workload))


def run_benchmark(root: str, workload: str, seed: int, seconds: float, trace: bool, max_ops: int) -> dict:
    for path in (os.path.join(root, "src", "twostage", "__init__.py"), check.reference_path(root, workload)):
        if not os.path.isfile(path):
            raise BenchError(f"missing {os.path.relpath(path, root)}; run from the repository root")
    # before the workload: right after a worker that held hundreds of MiB
    # exits, spawns and the calibration kernel are disturbed
    setup = measure_setup(root, SETUP_RUNS)
    main = run_worker(root, workload, seed, seconds, max_ops, trace)
    records = main["ops"]
    failures = check_records(root, workload, records)
    raw = op_stats(workload, [seconds for _key, seconds, _output in records])
    stats = op_stats(workload, scaled_times(main))
    report = {
        "workload": workload,
        "seed": seed,
        "ops": len(records),
        "digest": check.digest(records),
        "failures": failures,
        "attempted": len(records),
        "failed": len(failures),
        "stats": stats,
        "raw": {
            "setup_s": statistics.median(t for t, _ in setup),
            **{name: raw[name] for name in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
        },
    }
    if not trace:
        report["metrics"] = {
            "setup_s": (statistics.median(s for _, s in setup), "s"),
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "op_p50_ms": (stats["op_p50_ms"], "ms"),
            "op_tail_ms": (stats["op_tail_ms"], "ms"),
            "peak_rss_mib": (main["peak_rss_mib"], "MiB"),
        }
        return report
    # the same ops again without tracing, for the overhead
    plain = run_worker(root, workload, seed, seconds, len(records), False)
    plain_failures = check_records(root, workload, plain["ops"])
    report["attempted"] += len(plain["ops"])
    report["failed"] += len(plain_failures)
    report["failures"] += plain_failures
    plain_wall = sum(scaled_times(plain))
    scale = calibrate.Timeline(main["calibration"]).median_factor()
    layers = {
        name: value * scale if _layer_unit(name) == "s" else value
        for name, value in main["layers"].items()
    }
    layers.update(measure_import_layers(root))
    layers["trace.ops"] = len(records)
    layers["trace.overhead_pct"] = 100.0 * (stats["wall_s"] / plain_wall - 1.0)
    report["metrics"] = {name: (value, _layer_unit(name)) for name, value in layers.items()}
    return report


def _layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s") or ".search_s." in name or ".ci_s." in name:
        return "s"
    return "count"


def print_report(report: dict) -> None:
    stats = report["stats"]
    share = report["failed"] / report["attempted"]
    print(
        f"workload {report['workload']}  seed {report['seed']}  ops {report['ops']}  "
        f"failed {report['failed']}  failed_op_share {share:g}"
    )
    print(f"digest   {report['digest']}")
    print(
        f"op_tail_ms is the p{stats['tail_percentile']:g} op time: "
        f"{stats['tail_beyond']} of {report['ops']} ops are slower"
    )
    print("raw (unscaled) " + "  ".join(f"{k} {v:.6g}" for k, v in report["raw"].items()))
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:<38} {value:>14.6g} {unit}")
    for failure in report["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)


def self_check(root: str) -> int:
    """Run a few ops of each workload and check them against copies of the
    reference: one moved by 1e-8, where every op must fail, and one moved
    by 1e-12, within the tolerance, where every op must pass."""
    ok = True
    for workload, count in (("search", 1), ("audit", 20), ("analyse", 36)):
        records = run_worker(root, workload, 0, 1e9, count, False)["ops"]
        inputs = pool_inputs(workload)
        failed = {}
        for label, delta in (("reference", 0.0), ("moved 1e-12", 1e-12), ("moved 1e-8", 1e-8)):
            reference = check.load_reference(root, workload)
            for key, _seconds, _output in records:
                entry = reference["entries"][key]
                entry["output"] = _moved(entry["output"], delta)
            failed[label] = len(check.check_ops(records, reference, inputs))
        good = failed["reference"] == failed["moved 1e-12"] == 0 and failed["moved 1e-8"] == len(records)
        ok = ok and good
        print(
            f"{workload}: {len(records)} ops; failed against "
            + ", ".join(f"{label}: {n}" for label, n in failed.items())
            + (" -> ok" if good else " -> BROKEN")
        )
    return 0 if ok else 1


_FLOAT_TOKEN = re.compile(r"-?\d+\.\d+(?:e-?\d+)?")


def _moved(value, delta: float):
    """value with its first float moved by delta (relative). With no float
    in it, its first integer or string is changed instead, when delta is
    large enough that the change must fail."""
    moved = _move_float(value, delta)
    if moved is not None:
        return moved
    if delta < check.ROOT_TOL:
        return value
    return _change_leaf(value)


def _move_float(value, delta):
    if isinstance(value, float):
        return value + delta * max(1.0, abs(value))
    if isinstance(value, dict):
        for key in sorted(value):
            new = _move_float(value[key], delta)
            if new is not None:
                return {**value, key: new}
    elif isinstance(value, list):
        for i, item in enumerate(value):
            new = _move_float(item, delta)
            if new is not None:
                return value[:i] + [new] + value[i + 1:]
    elif isinstance(value, str) and value.startswith("{"):
        new = _move_float(json.loads(value), delta)
        if new is not None:
            return json.dumps(new)
    elif isinstance(value, str):
        match = _FLOAT_TOKEN.search(value)
        if match:
            x = float(match.group())
            return value[: match.start()] + repr(x + delta * max(1.0, abs(x))) + value[match.end():]
    return None


def _change_leaf(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, dict):
        for key in sorted(value):
            new = _change_leaf(value[key])
            if new is not None:
                return {**value, key: new}
    elif isinstance(value, list):
        for i, item in enumerate(value):
            new = _change_leaf(item)
            if new is not None:
                return value[:i] + [new] + value[i + 1:]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0, help="run exactly this many ops")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        if args.self_check:
            return self_check(root)
        if args.workload is None:
            parser.error("--workload is required")
        seconds = 1e9 if args.ops else args.seconds
        report = run_benchmark(root, args.workload, args.seed, seconds, bool(args.trace), args.ops)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
