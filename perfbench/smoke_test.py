#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny length, untraced and
traced, and checks the result line: exactly the keys correct,
attempted, failed and metrics; all output checks passed; and every
metric BENCHMARK.json names for the mode printed once, finite, with
its declared unit. Exits 1 on the first problem.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    cmd += ["--workload", workload, "--seed", "1", "--seconds", "0.2",
            "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return f"{where}: exit {out.returncode}: {out.stderr[-2000:]}"
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return f"{where}: last stdout line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{where}: result keys {sorted(result)}"
    if result["correct"] is not True or result["failed"] != 0:
        return f"{where}: output checks failed: {out.stdout[-2000:]}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return f"{where}: attempted must be a whole number >= 1"
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(result["metrics"]) != names:
        return (f"{where}: metrics differ from BENCHMARK.json: missing "
                f"{sorted(names - set(result['metrics']))}, extra "
                f"{sorted(set(result['metrics']) - names)}")
    for m in wanted:
        got = result["metrics"][m["name"]]
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{where}: {m['name']} is not a finite number"
        if got.get("unit") != m["unit"]:
            return f"{where}: {m['name']} unit {got.get('unit')!r}"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            problem = check_run(spec, w["name"], trace)
            if problem:
                print(f"FAIL {problem}")
                return 1
            print(f"ok   {w['name']} --trace {trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
