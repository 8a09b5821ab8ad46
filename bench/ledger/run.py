#!/usr/bin/env python3
"""Build m3d_ledger from this checkout, then run it.

Run from the repository root:

    python3 bench/ledger/run.py --workload search_grid_cold --seed 7 \
        --seconds 16 --trace 0

Every argument passes through to m3d_ledger (so `record` and `compare`
work too).  The package builds into $CARGO_TARGET_DIR/ledger (default
.bench_build/ledger); build output goes to stderr, so the result stays
the last line of stdout.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no m3d sources under %s\n" % root)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        root, ".bench_build")
    build = os.path.join(os.path.abspath(target), "ledger")

    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        if not step(["cmake", "-S", here, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]):
            return 2
    if not step(["cmake", "--build", build, "--target", "m3d_ledger",
                 "-j", "4"]):
        return 2
    rc = subprocess.run([os.path.join(build, "m3d_ledger")] +
                        sys.argv[1:]).returncode
    return rc if rc >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
