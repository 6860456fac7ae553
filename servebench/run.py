#!/usr/bin/env python3
"""Served-pipeline benchmark: build it, run one workload, report.

    python3 servebench/run.py --workload fleet-dense --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and
builds servebench/ (which pulls in the neo library tree) into
$CARGO_TARGET_DIR/servebench, default .bench_build/servebench; later
runs only re-check the build. The servebench program then hosts a NeoServer
behind its socket front end and drives it closed-loop over loopback (see
servebench.cpp and METRICS.md).

stdout ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (a separate traced in-process run; its Chrome trace-event
JSON lands in the build directory under traces/). The lines before it
record the machine, the configuration and the request counts of every
phase. The exit status is non-zero when the correctness gate fails (a
served frame hash differs from a solo reference render) or nothing can
be built.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The servebench program is stopped after this, so a run ends within 180 s.
PROGRAM_TIMEOUT_S = 170


def load_spec():
    """Workload names and the end-to-end / per-layer metric tables
    (name -> unit, in the order printed) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return workloads, end_to_end, per_layer


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "servebench")


def build(bdir):
    """Configure once, then (re)build servebench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        raise RuntimeError(f"no neo source tree next to {HERE}")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr,
            check=True,
        )
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", bdir, "--target", "servebench", "-j", jobs],
        stdout=sys.stderr,
        check=True,
    )
    return os.path.join(bdir, "servebench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the library sources and this benchmark's files, so a
    result names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(ROOT, "cmake"), HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            files += [os.path.join(d, n) for n in names]
    for p in sorted(files):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    r = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def machine_record():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "kernel": platform.release(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def run_servebench(exe, args, bdir):
    """Run servebench with a private TMPDIR inside the build directory
    (durable state lives there and is removed with it)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NEO_")}
    tmp = os.path.join(bdir, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=PROGRAM_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"servebench exited {r.returncode} without a report")
    return json.loads(lines[-1])


def main():
    try:
        workloads, end_to_end, per_layer = load_spec()
    except (OSError, ValueError, KeyError) as e:
        log(f"servebench: cannot read BENCHMARK.json: {e}")
        return 1
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    machine = machine_record()
    try:
        bdir = build_dir()
        exe = build(bdir)
        report = run_servebench(exe, args, bdir)
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"servebench: {e}")
        return 1

    phases = report["phases"]
    ref = report["reference"]
    print("# machine " + json.dumps(machine))
    print("# config " + json.dumps(report["config"]))
    print(f"# workload {report['workload']} seed {report['seed']} "
          f"seconds {report['seconds']} trace {int(report['trace'])}")
    for name, c in phases.items():
        print(f"# phase {name}: sent {c['sent']} succeeded {c['succeeded']} "
              f"failed {c['failed']}")
    print(f"# reference: {ref['frames']} frames rendered, {ref['checked']} "
          f"replies checked, {ref['mismatches']} mismatches")

    table, source = (per_layer, "per_layer") if args.trace else (
        end_to_end, "end_to_end")
    metrics = {}
    for name, unit in table.items():
        if name not in report[source]:
            log(f"servebench: the report lacks metric {name}")
            return 1
        value = report[source][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"# {name} = {value} {unit}")
    samples = report["end_to_end"]["latency_samples"]
    if samples < 100:
        log(f"servebench: warning: only {samples} timed replies; "
            "frame_p90_ms wants at least 100")

    correct = bool(report["correct"])
    if not correct:
        log(f"servebench: correctness gate failed: {ref['first_mismatch']}")
    attempted = sum(c["sent"] for c in phases.values())
    failed = sum(c["failed"] for c in phases.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
