"""Regenerate the stored reference outputs from the program as it is now.

    python3 perfbench/make_reference.py WORKLOAD [WORKLOAD ...]

Run from the repository root. Every item of the workload's pool runs once
and its output is stored, keyed by the item's key, with a hash of the input
it was made for. An unexpected error aborts: the workloads are chosen so
that no op fails. Only regenerate when the pools change; a change to the
program is checked against the reference, not written into it.
"""

from __future__ import annotations

import os
import sys

import check
import workloads


def build(root: str, workload: str) -> int:
    sys.path.insert(0, os.path.join(root, "src"))
    import ops

    run = ops.RUNNERS[workload]
    entries = {}
    for _stratum, items in sorted(workloads.POOLS[workload]().items()):
        for item in items:
            output = run(item["input"])
            if not _as_designed(workload, item["key"], output):
                raise SystemExit(f"{item['key']}: unexpected output {output}")
            entries[item["key"]] = {"input_sha": check.input_sha(item["input"]), "output": output}
    check.save_reference(
        root, workload, {"pool_seed": workloads.POOL_SEED, "entries": entries}
    )
    return len(entries)


def _as_designed(workload: str, key: str, output: dict) -> bool:
    """Only the ops built to be rejected are rejected, each in its expected way."""
    kind = key.split(":", 1)[0].split("/")[0]
    if workload == "analyse":
        return output["exit"] == (2 if kind == "invalid" else 0)
    if workload == "audit":
        return bool(output["row_errors"]) == (kind == "malformed")
    return ("infeasible" in output) == key.endswith("nmax=30")


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if not names or unknown:
        sys.exit(f"usage: make_reference.py {{{','.join(workloads.WORKLOADS)}}} ...")
    for name in names:
        print(name, build(os.getcwd(), name), "entries")
