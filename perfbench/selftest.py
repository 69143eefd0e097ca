#!/usr/bin/env python3
"""Self-test of the Dike repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Short runs (1 s, p99s on 100 samples) of
every workload, traced and untraced, on two seeds, assert that:

* each run exits 0, every output check passes, and no operation failed;
* the untraced run prints exactly the end_to_end metrics of BENCHMARK.json,
  with their units, each finite and above zero;
* the traced run prints exactly the per_layer metrics, with their units, and
  leaves a Chrome trace the benchmark's validator accepted;

and that a tampered checkpoint is counted as one failed restore while the
run still completes and prints every metric. Exit code 0 when all hold.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tail-samples", "100", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check_metrics(result, expected, positive):
    problems = []
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))
    for name, unit in expected.items():
        if name not in got:
            continue
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            problems.append("%s: unit %s, expected %s" % (name, got[name]["unit"], unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: not a finite number" % name)
        elif positive and value <= 0:
            problems.append("%s: %r is not above zero" % (name, value))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    for seed in SEEDS:
        for workload in workloads:
            for trace in (0, 1):
                label = "%s seed %d trace %d" % (workload, seed, trace)
                code, result, stderr = run(workload, seed, trace)
                if code != 0 or result is None:
                    failures.append("%s: exit %d\n%s" % (label, code, stderr[-2000:]))
                    continue
                problems = check_metrics(result, per_layer if trace else end_to_end,
                                         positive=not trace)
                if not result["correct"] or result["failed"] != 0:
                    problems.append("checks failed (%d of %d operations)\n%s" % (
                        result["failed"], result["attempted"], stderr[-2000:]))
                if trace:
                    path = os.path.join(ROOT, ".bench_build", "perfbench-traces",
                                        "%s-seed%d.json" % (workload, seed))
                    with open(path) as f:
                        if not json.load(f).get("traceEvents"):
                            problems.append("empty trace " + path)
                failures += ["%s: %s" % (label, p) for p in problems]
                print("%-40s %s (%d operations)" % (
                    label, "ok" if not problems else "FAILED", result["attempted"]))

    code, result, stderr = run("ckpt_supervised", SEEDS[0], 0, "--tamper")
    label = "ckpt_supervised tampered checkpoint"
    if code != 0 or result is None:
        failures.append("%s: exit %d\n%s" % (label, code, stderr[-2000:]))
    else:
        problems = check_metrics(result, end_to_end, positive=True)
        if result["failed"] != 1 or result["correct"]:
            problems.append("expected exactly one failed restore, got %d failed, correct=%s"
                            % (result["failed"], result["correct"]))
        if "tampered" not in stderr:
            problems.append("the failure was not the tampered restore:\n" + stderr[-2000:])
        failures += ["%s: %s" % (label, p) for p in problems]
        print("%-40s %s (1 failed of %d operations)" % (
            label, "ok" if not problems else "FAILED", result["attempted"]))

    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    print("selftest: %s" % ("PASS" if not failures else "FAIL (%d)" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
