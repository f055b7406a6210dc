#!/usr/bin/env python3
"""Builds and runs the secure-query-path benchmark.

    python3 pathbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 pathbench/run.py compare <result.json> <result.json>

A run builds the benchmark binary from source into .bench_build/ (CMake,
Release), runs one workload, prints the binary's report, saves the full
result with its run metadata under .bench_out/, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. It exits 1 when the build fails, a metric is
missing, or any answer disagreed with the benchmark's own A*x.

`compare` prints two saved results side by side and warns when they were
measured on a different GF(2^61-1) kernel tier or processor count.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "pathbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "pathbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("net_loopback", "serve_tenants", "durable_journal")


def log(msg):
    print(f"pathbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "pathbench",
                      "-j", "4"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return True


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_binary(workload, seed, seconds, trace):
    """Runs one workload; returns (report lines, result dict, exit code)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", git_commit()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return [], None, 1
    lines = done.stdout.splitlines()
    result = None
    report = []
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            report.append(line)
    return report, result, done.returncode


def metric_spec(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def warn_if_incomparable(a, b, label_a, label_b):
    """Warns on stderr when two results differ in kernel tier or nproc."""
    warned = False
    for key in ("gf61_tier", "nproc"):
        if a["meta"].get(key) != b["meta"].get(key):
            log(f"WARNING: {key} differs: {label_a}={a['meta'].get(key)} "
                f"{label_b}={b['meta'].get(key)}; the numbers are not "
                f"comparable")
            warned = True
    return warned


def save(result, workload, seed, trace):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)


def run(args):
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; "
            f"one of {', '.join(WORKLOADS)}")
        return 2
    if not build():
        return 1
    report, result, code = run_binary(args.workload, args.seed, args.seconds,
                                      args.trace)
    for line in report:
        print(line)
    if result is None:
        log(f"{args.workload} printed no result (exit code {code})")
        return 1
    save(result, args.workload, args.seed, args.trace)
    metrics = {}
    for entry in metric_spec(args.trace):
        got = result["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            log(f"metric {entry['name']} [{entry['unit']}] missing from "
                f"{args.workload}: {got}")
            return 1
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = result["wrong"] == 0 and code == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    warned = warn_if_incomparable(a, b, path_a, path_b)
    print(f"{'metric':40s} {'A':>14s} {'B':>14s} {'B/A':>8s}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:40s} {ma['value']:14.6g} {mb['value']:14.6g} "
              f"{ratio:8.3f}  {ma['unit']}")
    return 1 if warned else 0


def main(argv):
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
