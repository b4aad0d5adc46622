#!/usr/bin/env python3
"""Build the migration benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cold-array --seed 1 --seconds 20 --trace 0

Everything the build and the run write stays under .bench_build/perfbench
in the repository: the Go build cache, the binary, and the checkpoint
stores of the warm-shards workload. A build failure exits with code 1
before any result is printed.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, ".bench_build", "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
    )
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--workdir", os.path.join(out, "work")] + sys.argv[1:]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
