#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark of the real-thread cluster stack.

Usage (from the repository root):

  python3 e2e_bench/run.py --workload olap_streams --seed 1 --seconds 25 --trace 0
  python3 e2e_bench/run.py    # all three workloads, seed 1, 25 s each

The first run configures and compiles e2e_bench/ (which compiles the
repository's src/) in Release mode into the build directory
($CARGO_TARGET_DIR if set, else .bench_build); later runs only rebuild
what changed. Build output goes to stderr. The benchmark's last stdout
line is one JSON object {correct, attempted, failed, metrics}; the exit
status is non-zero when the build fails or any answer is wrong.
`--workload all` runs the three workloads one after another and ends
with one combined JSON line whose metric names are prefixed by the
workload.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["olap_streams", "mixed_refresh", "point_lookup"]
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def commit():
    """The checkout's commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2e_bench: the repository's src/ is missing; nothing to build",
              file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "e2e_bench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "e2e_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("e2e_bench: build failed", file=sys.stderr)
            return None
    return os.path.join(out, "e2e_bench")


def run_one(binary, args, workload, capture):
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", ".bench_out", "--commit", commit()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print(f"e2e_bench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.workload != "all":
        code, _ = run_one(binary, args, args.workload, capture=False)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, out = run_one(binary, args, w, capture=True)
        worst = worst or code
        lines = (out or "").rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            return code or 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
