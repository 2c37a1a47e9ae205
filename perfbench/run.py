#!/usr/bin/env python3
"""Build the SIEVE benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <selective-warm|consent-churn|analytics-scan> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) built
against the repository's crates by path, into $CARGO_TARGET_DIR
(default: .bench_build). Its last line of standard output is the JSON
result; see perfbench/README.md. With --trace 1 the spans of the traced
replay are also written to <target dir>/perfbench/spans-<workload>-<seed>.jsonl.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run takes about a minute at most; a hung run is stopped before three.
RUN_TIMEOUT_S = 175


def flag(args, name):
    """The value following `name` in `args`, or None."""
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    command = [os.path.join(target, "release", "sieve-perfbench")] + args
    if flag(args, "--trace") not in (None, "0"):
        spans = os.path.join(
            target, "perfbench",
            "spans-{}-{}.jsonl".format(flag(args, "--workload"), flag(args, "--seed")))
        command += ["--spans", spans]
    try:
        # subprocess.run kills and reaps the child when the timeout fires.
        return subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded {} s".format(RUN_TIMEOUT_S), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
