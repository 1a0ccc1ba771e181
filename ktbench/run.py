#!/usr/bin/env python3
"""Build the ktrace benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 ktbench/run.py --workload <flood|sdet|replay> --seed <n> \
        --seconds <s> --trace <0|1>

The benchmark is built into $CARGO_TARGET_DIR (default: .bench_build at the
checkout root) against the checkout's own crates. The run's JSON result is
the last line of standard output; build output and diagnostics go to
standard error. The exit status is the benchmark's: 0 when every check
passed, 1 when one failed, 2 when the run could not be carried out.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("ktbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "ktbench")
    return subprocess.run([exe, "--root", root, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
