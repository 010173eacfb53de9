#!/usr/bin/env python3
"""Speed gate for the 100-router Waxman scale cell.

Reads the output of

    python3 perfbench/run.py --workload scale-waxman-r100 --seed 42 \\
        --seconds S --trace 0

(a log file whose last line is perfbench's result JSON) and compares its
`sim_s_per_s` with the checked-in baseline.  perfbench already scales
that figure by its calibration kernel, so a slower machine does not
trip the gate; a failure means the simulator got slower.

Exit status is non-zero when the run is not `correct`, when any
iteration failed, or when `sim_s_per_s` is more than 25% below the
baseline.  If a change is meant to move the number, re-record the
baseline with the command in its `command` field and check it in.

Usage: check_scale_perf.py PERFBENCH_LOG BASELINE.json
"""

import json
import sys

MAX_DROP = 0.25  # fail below 75% of the baseline


def last_json_line(path):
    with open(path) as f:
        lines = [line.strip() for line in f if line.strip()]
    if not lines:
        sys.exit(f"{path}: empty log")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: last line is not perfbench's result JSON: {e}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    run = last_json_line(sys.argv[1])
    with open(sys.argv[2]) as f:
        base = json.load(f)
    metric = base["metric"]
    failed = False
    if run.get("correct") is not True or run.get("failed", 1) != 0:
        print(f"FAIL run: correct={run.get('correct')} failed={run.get('failed')}")
        failed = True
    cur = run.get("metrics", {}).get(metric, {}).get("value")
    if cur is None:
        print(f"FAIL {metric}: missing from the run's metrics")
        sys.exit(1)
    ratio = cur / base["value"]
    bad = ratio < 1.0 - MAX_DROP
    print(
        f"{'FAIL' if bad else 'ok  '} {base['workload']} {metric}: "
        f"{cur:.1f} {base['unit']} vs baseline {base['value']:.1f} "
        f"({ratio:.2f}x, floor {1.0 - MAX_DROP:.2f}x)"
    )
    sys.exit(1 if failed or bad else 0)


if __name__ == "__main__":
    main()
