#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; later runs rebuild only what changed. The binary runs the workload on
one thread and checks its output. This script prints the run manifest, a
one-line summary and, last, the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exit code 0 when the output check passed,
1 when it failed (the result line is still printed), 2 on a usage or build
error (nothing is printed on stdout).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    """SHA-256 over the simulator and benchmark code, docs and recorded
    numbers excluded (the checkout a run is made from need not be a git
    repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".py", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configures (once) and builds perfbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", "3"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        die(f"build produced no {binary}")
    return binary


def main():
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps
    # the build or benchmark process it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {spec_path}: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runtime.hpp")):
        die(f"simulator sources not found under {ROOT}/src")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spill-dir", run_dir]
    if args.trace == 1:
        cmd += ["--spans-out",
                os.path.join(run_dir, f"spans-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        die("benchmark binary timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"benchmark binary failed with exit code {proc.returncode}")
    detail = json.loads(lines[-1])

    declared = spec["per_layer" if args.trace else "end_to_end"]
    got = detail["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if {k: v["unit"] for k, v in got.items()} != want:
        die("metrics printed by the binary do not match BENCHMARK.json: "
            f"extra {sorted(set(got) - set(want))}, "
            f"missing {sorted(set(want) - set(got))}")

    manifest = dict(detail["manifest"])
    manifest["git_revision"] = git_revision()
    manifest["source_hash"] = source_hash()
    print(json.dumps({"manifest": manifest}))
    reps = detail["reps"]
    print(f"{args.workload} seed={args.seed} reps={len(reps)} "
          f"host_slowdown={detail['host_slowdown']:.4f} "
          f"fingerprint: {detail['fingerprint']}"
          + ("" if detail["correct"] else f" ERRORS: {detail['errors']}"))
    result = {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: got[m["name"]] for m in declared},
    }
    print(json.dumps(result))
    sys.exit(0 if detail["correct"] else 1)


if __name__ == "__main__":
    main()
