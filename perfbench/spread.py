"""Repeat the benchmark over seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--out FILE] [WORKLOAD ...]

Run from the repository root. Each run is `run.py --trace 0` with its own
seed, one after another. For every workload and metric it prints the
median, the quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json, and
with --out it writes the same numbers as JSON.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return result


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "note": "measured on a shared VM: other tenants' load moves timings",
    }


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / statistics.median(values),
        "runs": len(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, spec["run_seconds"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(
                f"{workload} seed {seed}: "
                + "  ".join(f"{n} {m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True,
            )
        summary[workload] = {name: summarise(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            flag = "" if s["iqr_share"] <= bounds[name] / 3 else "  (above a third of the bound)"
            print(
                f"{workload:<8} {name:<13} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                f"q3 {s['q3']:<12.6g} spread {s['iqr_share']:.4f} of bound {bounds[name]}{flag}",
                flush=True,
            )
    if args.out:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        with open(args.out, "w") as handle:
            json.dump(
                {"environment": environment(), "run_seconds": spec["run_seconds"],
                 "seeds": seeds, "workloads": summary},
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
