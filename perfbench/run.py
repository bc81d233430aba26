#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload kv_mixed --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the repository libraries it links) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, runs the statistics
self-test, then runs one workload (its parameters are the constants of
perfbench/src; perfbench/workloads.json pins the open-loop offered rate of
the kv workloads and describes each workload). The server, the load generator and the checks all
run in one process.

With --trace 0 it prints every end-to-end metric of BENCHMARK.json, with
--trace 1 every per-layer metric (a layer a workload does not exercise
reads 0, as do the metrics a workload lists as not_measured). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only for
a correct, valid run: wrong output, a generator that fell behind its
schedule or a failed build all exit non-zero.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170  # the whole command, build included, ends within this


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {os.path.relpath(path, ROOT)}: {e}")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir, started):
    """Configure once, then build incrementally; serialized by a lock file."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(os.path.join(out_dir, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j", str(min(4, os.cpu_count() or 1)),
                      "--target", "perfbench", "perfbench_stats_test"])
        for step in steps:
            left = DEADLINE_S - (time.monotonic() - started)
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(left, 1))
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")


def run_self_test(out_dir):
    done = subprocess.run([os.path.join(out_dir, "perfbench_stats_test")],
                          capture_output=True, text=True, timeout=60)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail("statistics self-test failed")
    return done.stdout.strip()


def layer_of(metric):
    return metric.split(".", 1)[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    out_dir = build_dir()
    build(out_dir, started)
    self_test = run_self_test(out_dir)

    workloads = config["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(workloads)}", 2)
    spec = workloads[args.workload]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if seconds < 1:
        fail("--seconds must be at least 1", 2)
    work_dir = os.path.join(out_dir, "work")
    cmd = [os.path.join(out_dir, "perfbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={seconds}", f"--trace={args.trace}",
           f"--work-dir={work_dir}"]
    if "offered_rate" in spec:
        cmd.append(f"--offered-rate={spec['offered_rate']}")
    left = DEADLINE_S - (time.monotonic() - started)
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=max(left, 1),
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("workload run timed out")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"perfbench exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result")

    print(f"workload {args.workload} seed {args.seed} seconds {seconds} trace {args.trace}")
    print(f"why: {spec['why']}")
    print(f"flush policy: {spec['flush_policy']}")
    print("fingerprint: " + " ".join(f"{k}={v}" for k, v in result["fingerprint"].items()))
    print(self_test)
    for line in lines[:-1]:
        print(line)
    if not result["valid"]:
        fail(f"run invalid, not reported: {result['invalid_reason']}", 3)

    # Every metric of the chosen set, with BENCHMARK.json's unit. A layer the
    # workload does not exercise, or a metric it lists as not_measured,
    # reads 0; any other gap is a bug.
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    produced = dict(result["metrics"])
    attempted, failed = result["attempted"], result["failed"]
    wrong = result["mismatches"]
    if args.trace:
        produced["fail_ratio"] = {"value": (failed + wrong) / max(attempted, 1),
                                  "unit": "ratio"}
    unknown = set(produced) - {m["name"] for m in wanted}
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in produced:
            got = produced[name]
            if got["unit"] != m["unit"]:
                fail(f"{name}: unit {got['unit']} but BENCHMARK.json says {m['unit']}")
            value = got["value"]
            note = ""
        elif layer_of(name) not in spec["layers"] or name in spec.get("not_measured", ()):
            value, note = 0, "  (not measured on this workload)"
        else:
            fail(f"metric {name} was not measured")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: not a finite number: {value!r}")
        metrics[name] = {"value": value, "unit": m["unit"]}
        print(f"{name} = {value:.6g} {m['unit']}{note}")
    print(f"outcomes: {failed} failed + {wrong} wrong of {attempted} attempted "
          f"(fail ratio {(failed + wrong) / max(attempted, 1):.6g})")
    correct = wrong == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed + wrong,
                      "metrics": metrics}))
    if not correct:
        fail(f"{wrong} wrong outputs", 4)


if __name__ == "__main__":
    main()
