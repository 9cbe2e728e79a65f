"""Output checking against the stored reference, and the output digest.

Designs, integers, decisions, exit codes and strings must match exactly;
floats may differ by the root tolerance, 1e-10 relative to max(1, |x|).
Numbers printed by the CLI's table and csv formats carry ten significant
digits, so they may also differ by one unit in the tenth digit.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import re

ROOT_TOL = 1e-10

_INT = re.compile(r"-?\d+")
_TOKEN = re.compile(r"[^\s,]+")


def reference_path(root: str, workload: str) -> str:
    return os.path.join(root, "perfbench", "reference", f"{workload}.json.gz")


def input_sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def load_reference(root: str, workload: str) -> dict:
    with gzip.open(reference_path(root, workload), "rt") as handle:
        return json.load(handle)


def save_reference(root: str, workload: str, reference: dict) -> None:
    data = json.dumps(reference, sort_keys=True, separators=(",", ":")).encode()
    # mtime=0: the same reference always gives the same bytes
    with open(reference_path(root, workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", compresslevel=9, mtime=0) as handle:
            handle.write(data)


def mismatch(expected, actual, text: bool = False, where: str = "$"):
    """None when actual matches expected, else a description of the first difference."""
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        tol = ROOT_TOL * max(1.0, abs(expected))
        if text and expected != 0.0 and math.isfinite(expected):
            tol += 10.0 ** (math.floor(math.log10(abs(expected))) - 9)
        if abs(actual - expected) <= tol:
            return None
        return f"{where}: {actual!r} != {expected!r}"
    if type(expected) is not type(actual):
        return f"{where}: {type(actual).__name__} != {type(expected).__name__}"
    if isinstance(expected, dict):
        if sorted(expected) != sorted(actual):
            return f"{where}: keys {sorted(actual)} != {sorted(expected)}"
        for key in expected:
            found = mismatch(expected[key], actual[key], text, f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{where}: length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, text, f"{where}[{i}]")
            if found:
                return found
        return None
    if isinstance(expected, str) and where.endswith(".stdout"):
        return _printed_mismatch(expected, actual, where)
    return None if expected == actual else f"{where}: {actual!r} != {expected!r}"


def _printed_mismatch(expected: str, actual: str, where: str):
    """Compare CLI output: parsed JSON, or table/csv tokens."""
    if expected.startswith("{"):
        try:
            return mismatch(json.loads(expected), json.loads(actual), False, where + "<json>")
        except ValueError:
            return f"{where}: output is not JSON"
    exp_tokens, act_tokens = _TOKEN.findall(expected), _TOKEN.findall(actual)
    if len(exp_tokens) != len(act_tokens):
        return f"{where}: {len(act_tokens)} tokens != {len(exp_tokens)}"
    for i, (e, a) in enumerate(zip(exp_tokens, act_tokens)):
        found = mismatch(_token_value(e), _token_value(a), True, f"{where}<token {i}>")
        if found:
            return found
    return None


def _token_value(token: str):
    if _INT.fullmatch(token):
        return int(token)
    try:
        return float(token)
    except ValueError:
        return token


def check_ops(records: list, reference: dict, inputs: dict) -> list[str]:
    """One message per op whose output differs from the reference.

    inputs maps each op key to the input the generator made for it; an
    entry stored for a different input counts as a failure too.
    """
    entries = reference["entries"]
    failures = []
    for key, _seconds, output in records:
        entry = entries.get(key)
        if entry is None:
            failures.append(f"{key}: no reference output")
            continue
        if entry["input_sha"] != input_sha(inputs[key]):
            failures.append(f"{key}: reference was made for another input")
            continue
        found = mismatch(entry["output"], output)
        if found:
            failures.append(f"{key}: {found}")
    return failures


def digest(records: list) -> str:
    """sha256 over every op's key and exact output, in run order."""
    h = hashlib.sha256()
    for key, _seconds, output in records:
        h.update(f"{key}\t{json.dumps(output, sort_keys=True)}\n".encode())
    return h.hexdigest()
