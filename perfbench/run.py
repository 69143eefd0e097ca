#!/usr/bin/env python3
"""Build and run one workload of the Dike repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and compiles the
library from ``src/`` together with the harness in ``perfbench/src`` into
``.bench_build/perfbench`` (RelWithDebInfo); later calls only re-check the
build. The harness's standard output is passed through, so the last line is
the result object. Every run uses the shared task pool's ``DIKE_JOBS`` knob,
set to nproc - 1 so that the pool's workers plus the calling thread fill
nproc threads (an explicit ``DIKE_JOBS`` in the environment wins). Exit code
0 when a result was printed, non-zero otherwise (build failure, bad
arguments, or a run that outlived its time limit).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_dike")
WORKLOADS = ("paper_eval", "cluster_4096", "ckpt_supervised")
# A run must end within 180 s; stop a stuck one a little before that.
RUN_TIMEOUT_S = 170


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure once, then build the harness; returns True on success."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no Dike source tree next to perfbench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_dike",
                  "-j", str(nproc())])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--tail-samples", type=int, default=None,
                        help="samples behind each p99 (default 1000)")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one checkpoint before restoring it")
    args = parser.parse_args()

    if not build():
        return 1

    env = dict(os.environ)
    env.setdefault("DIKE_JOBS", str(max(1, nproc() - 1)))
    work_dir = os.path.join(BUILD_ROOT, "perfbench-work",
                            "%s-%d" % (args.workload, os.getpid()))
    trace_dir = os.path.join(BUILD_ROOT, "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir,
           "--trace-out", os.path.join(
               trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.tail_samples is not None:
        cmd += ["--tail-samples", str(args.tail_samples)]
    if args.tamper:
        cmd += ["--tamper", "1"]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
