#!/usr/bin/env python3
"""Run the benchmark as two interleaved sets of runs and report spread and drift.

Each set runs every workload of BENCHMARK.json once per seed 1..runs; the
two sets alternate run by run, so a slow drift of the host reaches both
alike. For every end-to-end metric the script prints, per set, the median,
the quartiles (Python's statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median beside the metric's bound, flagging spreads above a
third of the bound. It then prints how much worse the second set's median
is than the first's, as a share of the first, flagging drifts above the
bound. With --baseline it also writes both sets' medians and quartiles,
the drifts and a host fingerprint to a JSON file.

Run from the repository root:

    python3 e2ebench/spread.py --runs 10
    python3 e2ebench/spread.py --runs 10 --baseline e2ebench/baseline.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs did not match the reference")
    return result


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(bench):
    rustc = subprocess.run(["rustc", "-V"], stdout=subprocess.PIPE, text=True, check=False)
    traced = run_once(bench, bench["workloads"][0]["name"], 0, trace=True)
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "rustc": rustc.stdout.strip(),
        "simcore.sched.heap_ref_ns": traced["metrics"]["simcore.sched.heap_ref_ns"]["value"],
    }


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "runs": len(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--baseline", help="write both sets, the drifts and a host fingerprint here")
    args = ap.parse_args()

    bench = load_benchmark()
    metrics = bench["end_to_end"]
    sets = [{}, {}]
    drift = {}
    worst_spread = worst_drift = 0.0
    for w in bench["workloads"]:
        name = w["name"]
        values = [{m["name"]: [] for m in metrics} for _ in sets]
        for seed in range(1, args.runs + 1):
            for per_set in values:
                result = run_once(bench, name, seed, trace=False)
                for m in metrics:
                    per_set[m["name"]].append(result["metrics"][m["name"]]["value"])
        drift[name] = {}
        for m in metrics:
            bound = m["bound"]
            rows = [summarize(per_set[m["name"]]) for per_set in values]
            for k, row in enumerate(rows):
                sets[k].setdefault(name, {})[m["name"]] = dict(unit=m["unit"], **row)
                worst_spread = max(worst_spread, row["spread"] / bound)
                flag = "" if row["spread"] < bound / 3 else "  <-- above bound/3"
                print(f"{name:14} {m['name']:18} set {k + 1} median {row['median']:14.6f} "
                      f"{m['unit']:4} q1 {row['q1']:14.6f} q3 {row['q3']:14.6f} "
                      f"spread {row['spread']:7.4f} bound {bound}{flag}", flush=True)
            first, second = rows[0]["median"], rows[1]["median"]
            worse = (second - first) / first
            if m["better"] == "higher":
                worse = -worse
            drift[name][m["name"]] = worse
            worst_drift = max(worst_drift, worse / bound)
            flag = "" if worse <= bound else "  <-- above bound"
            print(f"{name:14} {m['name']:18} set 2 worse than set 1 by {worse:+.4f} "
                  f"(bound {bound}){flag}", flush=True)
    print(f"worst spread / bound: {worst_spread:.3f}")
    print(f"worst drift / bound: {worst_drift:.3f}")
    if args.baseline:
        out = {
            "note": "Medians and quartiles of the end-to-end metrics in two interleaved "
                    f"sets of {args.runs} runs per workload, seeds 1..{args.runs}, "
                    f"run_seconds {bench['run_seconds']}; drift is how much worse "
                    "set 2's median is than set 1's, as a share of set 1's.",
            "host": fingerprint(bench),
            "sets": sets,
            "drift": drift,
        }
        with open(args.baseline, "w") as f:
            json.dump(out, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
