#!/usr/bin/env python3
"""Run sets of the benchmark and the spreads they show.

    python3 perfbench/runs/collect.py run D 601      # 10 seeds from 601, every workload
    python3 perfbench/runs/collect.py spread D E     # IQR/median per set, medians of E vs D

`run` calls perfbench/run.py once per (workload, seed) with --trace 0 and
BENCHMARK.json's run_seconds, one run at a time, and writes one line per
run to perfbench/runs/<tag>.jsonl: the workload, the seed, the exit code,
the host fingerprint run.py printed, the run's last line of standard
output (null when it printed none) and, for a run that exited non-zero,
the last line of its standard error.

`spread` prints, for each end-to-end metric of each workload, the distance
between the first and third quartile of the set's values as a share of
their median (statistics.quantiles(values, n=4)) next to the metric's
bound, and with a second set how far its median moved from the first's.
Runs whose host fingerprints differ are never compared: `spread` refuses
them.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SEEDS = 10


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(tag, first_seed):
    b = bench()
    path = os.path.join(HERE, f"{tag}.jsonl")
    with open(path, "w") as out:
        for w in b["workloads"]:
            for seed in range(first_seed, first_seed + SEEDS):
                done = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", w["name"], "--seed",
                     str(seed), "--seconds", str(b["run_seconds"]), "--trace", "0"],
                    capture_output=True, text=True, cwd=ROOT)
                lines = done.stdout.strip().splitlines()
                fingerprint = next((l.split(": ", 1)[1] for l in lines
                                    if l.startswith("fingerprint: ")), None)
                try:
                    result = json.loads(lines[-1]) if lines else None
                except ValueError:
                    result = None
                error = done.stderr.strip().splitlines()[-1:] if done.returncode else []
                out.write(json.dumps({"workload": w["name"], "seed": seed,
                                      "rc": done.returncode, "fingerprint": fingerprint,
                                      "result": result, "error": error[0] if error else None})
                          + "\n")
                out.flush()
                print(w["name"], seed, done.returncode, flush=True)


def load(tag):
    by_workload = {}
    with open(os.path.join(HERE, f"{tag}.jsonl")) as f:
        for line in f:
            r = json.loads(line)
            by_workload.setdefault(r["workload"], []).append(r)
    return by_workload


def spread(tags):
    b = bench()
    sets = [load(t) for t in tags]
    fingerprints = {r["fingerprint"] for runs in sets for rs in runs.values() for r in rs
                    if r["rc"] == 0}
    if len(fingerprints) != 1:
        sys.exit(f"runs from different hosts are not compared: {sorted(map(str, fingerprints))}")
    print(f"fingerprint: {fingerprints.pop()}")
    worst = {}
    for w in b["workloads"]:
        name = w["name"]
        for tag, runs in zip(tags, sets):
            ok = [r for r in runs.get(name, []) if r["rc"] == 0 and r["result"]["correct"]]
            print(f"== {name} set {tag}: {len(ok)}/{len(runs.get(name, []))} runs correct")
        for m in b["end_to_end"]:
            medians = []
            cells = []
            for runs in sets:
                values = [r["result"]["metrics"][m["name"]]["value"]
                          for r in runs.get(name, []) if r["rc"] == 0]
                q = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                medians.append(med)
                s = (q[2] - q[0]) / med
                worst[m["name"]] = max(worst.get(m["name"], 0.0), s)
                cells.append(f"med {med:12.6g} spread {s:.3f}")
            moved = ""
            if len(medians) > 1:
                moved = f"  moved {abs(medians[1] - medians[0]) / medians[0]:.3f}"
            print(f"  {m['name']:16s} {'  |  '.join(cells)}  bound {m['bound']}{moved}")
    print("largest spread per metric: " +
          ", ".join(f"{k} {v:.3f}" for k, v in worst.items()))


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "run":
        run(sys.argv[2], int(sys.argv[3]))
    elif len(sys.argv) in (3, 4) and sys.argv[1] == "spread":
        spread(sys.argv[2:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
