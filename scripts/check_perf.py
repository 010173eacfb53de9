#!/usr/bin/env python3
"""Speed and allocation gate over perfbench's workloads.

Reads perfbench logs, each the output of

    python3 perfbench/run.py --workload W --seed 42 --seconds S --trace T

(a log whose last line is perfbench's result JSON), and compares them
with the checked-in baseline.  perfbench's result line does not name
its workload, so every log is passed as a WORKLOAD=LOG pair.  A
workload may have more than one log: `--trace 0` reports `sim_s_per_s`,
`--trace 1` the per-layer rows such as `gc.alloc_mb_per_sim_s`.

Exit status is non-zero when
  - a baseline workload has no log, or a log names a workload the
    baseline does not list;
  - a log's last line is not perfbench's result JSON;
  - any log is not `correct` or reports a failed iteration;
  - a baseline metric is missing from every log of its workload;
  - a higher-is-better metric is below 75% of its baseline, or a
    lower-is-better metric above 150% of it.

perfbench scales `sim_s_per_s` by its calibration kernel, so a slower
machine does not trip the gate; `gc.alloc_mb_per_sim_s` is
deterministic per seed.  A failure means the simulator got slower or
allocates more.  If a change is meant to move a number, re-record the
baseline with the command in its `command` field and check it in.

Usage: check_perf.py BASELINE.json WORKLOAD=LOG [WORKLOAD=LOG ...]
"""

import json
import sys

FLOOR = 0.75  # higher-is-better metrics fail below 75% of the baseline
CEILING = 1.50  # lower-is-better metrics fail above 150% of the baseline


def last_json_line(path):
    with open(path) as f:
        lines = [line.strip() for line in f if line.strip()]
    if not lines:
        raise ValueError("empty log")
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        doc = None
    if not isinstance(doc, dict):
        raise ValueError("last line is not perfbench's result JSON")
    return doc


def check_metric(workload, name, base, cur):
    ratio = cur / base["value"]
    if base["better"] == "higher":
        bad, bound = ratio < FLOOR, f"floor {FLOOR:.2f}x"
    else:
        bad, bound = ratio > CEILING, f"ceiling {CEILING:.2f}x"
    print(
        f"{'FAIL' if bad else 'ok  '} {workload} {name}: "
        f"{cur:.6g} {base['unit']} vs baseline {base['value']:.6g} "
        f"({ratio:.2f}x, {bound})"
    )
    return bad


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__.strip())
    with open(sys.argv[1]) as f:
        baseline = json.load(f)["workloads"]
    failed = False
    runs = {}
    for arg in sys.argv[2:]:
        workload, _, path = arg.partition("=")
        if not workload or not path:
            sys.exit(f"expected WORKLOAD=LOG, got {arg!r}\n\n" + __doc__.strip())
        if workload not in baseline:
            print(f"FAIL {workload}: not in the baseline ({path})")
            failed = True
            continue
        try:
            run = last_json_line(path)
        except (OSError, ValueError) as e:
            print(f"FAIL {workload}: {path}: {e}")
            failed = True
            continue
        if run.get("correct") is not True or run.get("failed") != 0:
            print(
                f"FAIL {workload}: {path}: correct={run.get('correct')}"
                f" failed={run.get('failed')}"
            )
            failed = True
        runs.setdefault(workload, []).append(run)
    for workload, metrics in baseline.items():
        if workload not in runs:
            print(f"FAIL {workload}: no log given")
            failed = True
            continue
        for name, base in metrics.items():
            values = [
                r["metrics"][name]["value"]
                for r in runs[workload]
                if name in r.get("metrics", {})
            ]
            if not values:
                print(f"FAIL {workload} {name}: missing from every log")
                failed = True
                continue
            for cur in values:
                failed = check_metric(workload, name, base, cur) or failed
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
