#!/usr/bin/env python3
"""Self-test of the served-pipeline benchmark.

    python3 servebench/test_counts.py

Runs the cheapest workload (durable-tiny) through run.py, briefly:
  - twice with --trace 1 on one seed: the exact counts (EXACT_COUNTS,
    from the reference renderer) must repeat bit for bit;
  - once with --trace 1 on another seed: every one of them must change;
  - durable.state_bytes, taken right after the first checkpoint, must
    also repeat on one seed, however far each run got;
  - once with --trace 0: it must report every end-to-end metric.
Every run must pass the correctness gate and print each metric that
BENCHMARK.json names, with its unit. Exit status 0 means all passed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOAD = "durable-tiny"
SECONDS = "1"
# Exact counts from the reference renderer: a speed-only change must
# leave them unchanged.
EXACT_COUNTS = (
    "gs.visible_per_frame",
    "core.instances_per_frame",
    "core.incoming_per_frame",
    "core.retention",
)


def bench(seed, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOAD,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise AssertionError(f"seed {seed} trace {trace}: exit {r.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        raise AssertionError(f"seed {seed} trace {trace}: gate {result}")
    _, end_to_end, per_layer = run.load_spec()
    table = per_layer if trace else end_to_end
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != table:
        raise AssertionError(f"metrics {got} != {table}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    checks = []
    a = bench(7, 1)
    b = bench(7, 1)
    c = bench(8, 1)
    for name in EXACT_COUNTS:
        if a[name] != b[name]:
            raise AssertionError(f"{name}: {a[name]} != {b[name]} (same seed)")
        if a[name] == c[name]:
            raise AssertionError(f"{name}: {a[name]} unchanged by the seed")
        checks.append(f"{name}: seed 7 {a[name]} twice, seed 8 {c[name]}")
    name = "durable.state_bytes"
    if a[name] != b[name]:
        raise AssertionError(f"{name}: {a[name]} != {b[name]} (same seed)")
    checks.append(f"{name}: seed 7 {a[name]} twice")
    bench(7, 0)
    checks.append("trace 0 reports every end-to-end metric")
    for line in checks:
        print("ok  " + line)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}")
        sys.exit(1)
