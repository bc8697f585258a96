#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (CMake, Release) into the
directory named by CARGO_TARGET_DIR, or .bench_build, then runs the
workload. The program's report goes to stdout; its last line is one JSON
object with the keys correct, attempted, failed and metrics (every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer metric
with --trace 1; per-layer metrics of layers the workload does not exercise
read 0). A traced run also writes its spans, one JSON object per
line, to <build dir>/spans-<workload>-<seed>.jsonl.

Exits non-zero without a result when the program cannot be built (for
instance when the repository's sources are absent), and non-zero with a
result whose "correct" is false when an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_suite", "serve_mixed", "ingest_churn")
BUILD_TIMEOUT_S = 850
RUN_MARGIN_S = 110


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "parlib", "scheduler.cc")):
        fail("the program's sources (src/) are not in " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def spec_metrics(trace):
    """BENCHMARK.json's metrics of the run's kind: {name: unit}."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def complete(result, trace):
    """Checks the program's metrics against BENCHMARK.json and fills in
    per-layer metrics of layers the workload does not exercise as 0.
    Returns False when an end-to-end metric is missing or not positive."""
    spec = spec_metrics(trace)
    got = result["metrics"]
    for name, m in got.items():
        if spec.get(name) != m["unit"]:
            fail("metric %s (%s) is not in BENCHMARK.json with that unit"
                 % (name, m["unit"]))
    ok = True
    for name, unit in spec.items():
        if name in got:
            if not trace and not got[name]["value"] > 0:
                print("perfbench: end-to-end metric %s is %r"
                      % (name, got[name]["value"]), file=sys.stderr)
                ok = False
        elif trace:
            got[name] = {"value": 0, "unit": unit}
        else:
            print("perfbench: end-to-end metric %s was not measured" % name,
                  file=sys.stderr)
            ok = False
    result["metrics"] = {name: got[name] for name in spec if name in got}
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    # A run measures for --seconds (a traced one in two halves); set-up
    # and output checks add up to about a minute more.
    timeout_s = 2 * args.seconds + RUN_MARGIN_S
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish in %d s" % (args.workload, timeout_s))
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("no result line (exit code %d)" % done.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    code = done.returncode
    if not complete(result, args.trace):
        result["correct"] = False
        code = code or 1
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
