#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload rpc|storm|apps --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The first run builds the benchmark (and
the runtime it measures) from source into .bench_build/; later runs only
check the build is current.  Build output goes to stderr.  Standard output
ends with one JSON object: {"correct", "attempted", "failed", "metrics"}.
The line before it, prefixed "provenance ", records what was measured and
how noisy the host was (see README.md).
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("rpc", "storm", "apps")
# A run that exceeds this is killed; the contract allows 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runtime.hpp")):
        fail("runtime sources not found under %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench")


def cpu_times():
    """(steal, total) jiffies of the host, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already inside user, so it is not added again.
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the measured sources, stable outside a git checkout."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def spec_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    tmp = os.path.join(ROOT, ".bench_build", "tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp]

    steal0, total0 = cpu_times()
    csw0 = resource.getrusage(resource.RUSAGE_CHILDREN).ru_nivcsw
    started = time.monotonic()
    # Own process group, so a run cut by the timeout takes its ranks with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    wall = time.monotonic() - started
    steal1, total1 = cpu_times()
    csw1 = resource.getrusage(resource.RUSAGE_CHILDREN).ru_nivcsw
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        fail("benchmark exited with %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    raw = json.loads(lines[-1])

    metrics = {}
    missing = []
    for m in spec_metrics(args.trace):
        if m["name"] in raw["metrics"]:
            metrics[m["name"]] = {"value": raw["metrics"][m["name"]],
                                  "unit": m["unit"]}
        else:
            missing.append(m["name"])
    if missing:
        print("perfbench: no value for " + ", ".join(missing), file=sys.stderr)

    provenance = dict(raw["detail"])
    provenance.update({
        "workload": args.workload,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "wall_s": round(wall, 3),
        # Noise of the host over the run: recorded to tell a noisy run from
        # a slow program, never used to drop runs.
        "host_steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "involuntary_context_switches": csw1 - csw0,
    })
    print("provenance " + json.dumps(provenance, sort_keys=True))
    failed = int(raw["failed"])
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": int(raw["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
