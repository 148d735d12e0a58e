#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload hm1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build); build output goes to standard
error. `--workload all` runs every workload in its own process, one after
the other, so no workload's peak memory leaks into the next.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def main(argv):
    binary = build()
    args = list(argv)
    workloads = [None]
    if "--workload" in args:
        i = args.index("--workload")
        if i + 1 < len(args) and args[i + 1] == "all":
            del args[i:i + 2]
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                workloads = [w["name"] for w in json.load(f)["workloads"]]
    code = 0
    for workload in workloads:
        extra = [] if workload is None else ["--workload", workload]
        done = subprocess.run([binary, *args, *extra], cwd=ROOT)
        code = code or done.returncode
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
