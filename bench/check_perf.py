#!/usr/bin/env python3
"""Compare a fresh BENCH_perf.json against the checked-in baseline.

Scenario throughput is normalized by the calibration spin (a slower CI
machine has a larger calibration ns, which scales events/s back up), so
the check tracks the code, not the hardware.  Allocation per simulated
second is machine-independent already and is compared raw.

Exit status is non-zero if any scenario row regresses beyond the
thresholds: normalized throughput below 75% of baseline, or allocation
growth beyond 150% of baseline.

The structural and wire_exact rows run with lineage tracing OFF, and
the checked-in baseline predates the lineage instrumentation, so this
comparison is also the gate that the tracing-disabled checks on the
hot paths cost nothing beyond measurement noise.

Usage: check_perf.py CURRENT.json BASELINE.json
"""

import json
import sys

MAX_THROUGHPUT_REGRESSION = 0.75  # fail below 75% of baseline throughput
MAX_ALLOC_GROWTH = 1.50  # fail above 150% of baseline alloc/sim-s


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "mmcast-bench-perf/4":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    calib = doc["calibration"]["ns"]
    rows = {}
    for row in doc["scenario"]["rows"]:
        rows[row["name"]] = {
            "normalized_throughput": row["events_per_s"] * calib,
            "alloc_per_sim_s": row["alloc_per_sim_s"],
        }
    return rows


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    current = load(sys.argv[1])
    baseline = load(sys.argv[2])
    failed = False
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            print(f"FAIL {name}: row missing from current report")
            failed = True
            continue
        tput = cur["normalized_throughput"] / base["normalized_throughput"]
        alloc = cur["alloc_per_sim_s"] / base["alloc_per_sim_s"]
        tput_bad = tput < MAX_THROUGHPUT_REGRESSION
        alloc_bad = alloc > MAX_ALLOC_GROWTH
        verdict = "FAIL" if tput_bad or alloc_bad else "ok"
        print(
            f"{verdict:4s} {name}: {tput:.2f}x baseline throughput (normalized),"
            f" {alloc:.2f}x baseline alloc/sim-s"
        )
        failed = failed or tput_bad or alloc_bad
    if failed:
        print(
            "perf regression beyond thresholds"
            f" (throughput < {MAX_THROUGHPUT_REGRESSION:.0%}"
            f" or alloc > {MAX_ALLOC_GROWTH:.0%} of bench/baseline_perf.json);"
            " if the change is intentional, regenerate the baseline with"
            " `dune exec bench/main.exe` and check it in."
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
