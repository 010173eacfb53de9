#!/usr/bin/env python3
"""Build the benchmark driver from this checkout's sources and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload fig1-wire --seed 1 --seconds 20 --trace 0

The arguments go to perfbench/driver.exe unchanged (see driver.ml); the
pins file is added.  The build writes only under _build/ and runs with
dune's shared cache disabled, so nothing outside the checkout changes.
"""

import os
import subprocess
import sys

PINS = os.path.join("perfbench", "pins.txt")
DRIVER = os.path.join("_build", "default", "perfbench", "driver.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no simulator sources here (dune-project and lib/ are missing); "
              "run from the root of the repository", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/driver.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([DRIVER, *sys.argv[1:], "--pins", PINS]).returncode


if __name__ == "__main__":
    sys.exit(main())
