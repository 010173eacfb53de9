#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the regression gate
computes it.

    python3 perfbench/spread.py [--seeds 1-10] [--workloads a,b] [--seconds S]

For each workload, runs perfbench/run.py --trace 0 once per seed
(sequentially, one process at a time), then prints each metric's median, quartiles
(statistics.quantiles(values, n=4)) and interquartile range as a share
of the median, next to the metric's bound in BENCHMARK.json.  Spreads
above a third of the bound are flagged.  Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            result = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                ok = False
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            share = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and share > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {workload:18} {name:14} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {share:.4f}  bound {bound}{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
