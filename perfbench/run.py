#!/usr/bin/env python3
"""Build the webevo crawl benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload durable-served --seed 1 --seconds 20 --trace 0

Builds `perfbench` in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), runs it, and passes its exit code on. The benchmark prints
its result as the last line of standard output; build output and progress
go to standard error. Checkpoint directories and span files go under
`<target dir>/perfbench-work`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    sys.exit(subprocess.run([exe, *sys.argv[1:], "--work-dir", work]).returncode)


if __name__ == "__main__":
    main()
