"""One workload run in a fresh interpreter, so the program's caches start cold.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS MAX_OPS TRACE RESULT_PATH

Runs the seeded op sequence until its ops have taken SECONDS, scaled to
the reference speed (the op running then completes), or MAX_OPS ops are
done (0: no limit). Then it writes the key, time, wall-clock window and
output of every op to RESULT_PATH as JSON, with the calibration kernel's
times (see calibrate.py) and the peak resident memory once
workloads.MEMORY_AT_OP ops have completed. With TRACE=1 the package's
functions are wrapped first and the per-layer totals are written too. There is no warm-up pass: filling the caches is part of the
measured work, as it is for every user of the CLI.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter


# A run stops once its ops have taken SECONDS at the reference speed (see
# calibrate.py), so that it does the same work in a slow phase of the
# machine as in a fast one; it stops anyway after WALL_CAP * SECONDS of wall
# time, to end within its time limit on a machine this much slower.
WALL_CAP = 2.0


def main(argv: list[str]) -> int:
    root, workload, seed, seconds, max_ops, trace, result_path = argv
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import calibrate
    import ops  # binds the wrapped functions when tracing

    run = ops.RUNNERS[workload]
    limit = int(max_ops)
    budget = float(seconds)
    items = workloads.schedule(workload, int(seed))
    records = []
    windows = []
    rss_mib = None
    start = perf_counter()
    scaled = 0.0
    with calibrate.Sampler() as sampler:
        for item in items:
            t0, spent = perf_counter(), sampler.spent
            try:
                if tracer is None:
                    output = run(item["input"])
                else:
                    output = tracer.timed("bench", "op", run, item["input"])
            except Exception as exc:  # an unexpected error is a failed op, not a crash
                output = {"unexpected_error": f"{type(exc).__name__}: {exc}"}
            t1 = perf_counter()
            # the calibration handler's time is not the op's
            seconds_op = t1 - t0 - (sampler.spent - spent)
            records.append([item["key"], seconds_op, output])
            windows.append([t0, t1])
            scaled += seconds_op * sampler.factor_since(t0)
            if len(records) == workloads.MEMORY_AT_OP[workload]:
                rss_mib = _peak_rss_mib()
            if len(records) == limit or scaled >= budget or t1 - start >= WALL_CAP * budget:
                break
    result = {
        "ops": records,
        "windows": windows,
        "calibration": sampler.points,
        "peak_rss_mib": rss_mib if rss_mib is not None else _peak_rss_mib(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(result_path.replace(".result.json", ".spans.jsonl"))
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
