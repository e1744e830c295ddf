#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <analyze|serve|serve-sat|server-tcp> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR when
it is set, else to perfbench/target; build output goes to standard error,
so the last line of standard output is the benchmark's JSON verdict. The
exit code is the benchmark's (non-zero on a failed build, a failed run or
a failed output check).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "eo-perfbench")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
