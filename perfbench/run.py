#!/usr/bin/env python3
"""Event -> restored benchmark for the restoration service.

Builds restore_bench (this directory's CMake package, which compiles the
libraries from ../src) and runs one workload:

    python3 perfbench/run.py --workload isp_flap --seed 1 --seconds 25 --trace 0

Run it from the repository root. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of the separate traced run (and writes a
Chrome trace under the build directory). The last line of stdout is the
JSON result; restore_bench's human-readable table goes to stderr.

--selfcheck runs the traced workload twice with the same seed and fails
unless the work counts (reroutes, installs, WAL appends per event, oracle
SPF runs, ...) are identical; only timings may differ.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("isp_flap", "as_flap", "isp_durable")
RUN_TIMEOUT_S = 170
# Counts a closed loop makes a pure function of the seed.
DETERMINISTIC = (
    "service.reroutes_per_event",
    "service.installs_per_event",
    "service.revalidations",
    "service.deferred",
    "persist.wal_appends_per_event",
    "persist.wal_bytes_per_event",
    "core.oracle_spf_runs",
    "spf.tree_pool.views_created",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds restore_bench; returns its path or None."""
    build_dir = os.path.join(build_root, "perfbench")
    cmd_cfg = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    cmd_build = ["cmake", "--build", build_dir, "--target", "restore_bench",
                 "-j", str(min(4, os.cpu_count() or 1))]
    for cmd in (cmd_cfg, cmd_build):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "restore_bench")


def run_once(binary, out_dir, workload, seed, seconds, trace):
    """Runs restore_bench; returns its parsed result line or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: restore_bench exceeded %d s" % RUN_TIMEOUT_S)
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: restore_bench printed no result (exit %d)" % proc.returncode)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: unparsable result line: " + lines[-1])
        return None
    if proc.returncode not in (0, 1):
        log("perfbench: restore_bench exited %d" % proc.returncode)
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(build_root)
    if binary is None:
        return 2
    out_dir = os.path.join(build_root, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.selfcheck:
        runs = [run_once(binary, out_dir, args.workload, args.seed,
                         args.seconds, 1) for _ in range(2)]
        if None in runs:
            return 2
        a, b = (r["metrics"] for r in runs)
        diff = [k for k in DETERMINISTIC if a[k]["value"] != b[k]["value"]]
        for k in DETERMINISTIC:
            log("%-32s %16r %16r%s" % (k, a[k]["value"], b[k]["value"],
                                       "  DIFFERS" if k in diff else ""))
        ok = not diff and all(r["correct"] for r in runs)
        log("determinism self-check: " + ("pass" if ok else "FAIL"))
        return 0 if ok else 1

    result = run_once(binary, out_dir, args.workload, args.seed, args.seconds,
                      args.trace)
    if result is None:
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
