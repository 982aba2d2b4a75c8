#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sort-rand --seed 1 --seconds 25 --trace 0

Run from the repository root.  The first run configures and builds the oem
library, oem-server and the perfbench harness (Release) into .bench_build/
(or $CARGO_TARGET_DIR when set); later runs only rebuild what changed.  Build
output goes to stderr, so the harness's JSON result stays the last line of
stdout.  The harness's scratch files (the ORAM's block file) and, with
--trace 1, its trace file stay under the build directory.

Exit status: the harness's own (0 only when every output was correct), 1 when
the build fails or the sources are missing, 124 when the run times out.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sort-rand", "sort-remote", "oram-file")
RUN_TIMEOUT_S = 170


def build(build_dir):
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (cmd, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(1)


def run_harness(cmd, env):
    # The harness spawns oem-server; a new session lets a timeout stop both.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=work_dir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace]
    if args.trace:
        cmd.append("--trace-out=" + os.path.join(build_dir, "trace-%s.json" % args.workload))
    sys.stdout.flush()
    sys.exit(run_harness(cmd, env))


if __name__ == "__main__":
    main()
