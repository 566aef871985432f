#!/usr/bin/env python3
"""Build the release `ftbar-cli` and the benchmark binary, then run one workload.

Run from the root of an ftbar checkout:

    python3 perfbench/run.py --workload cli-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test   # unit tests, then tiny passes

Both builds go to $CARGO_TARGET_DIR (default `.bench_build` in the checkout);
cargo's output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Without the repository's sources next to this directory the build
cannot run, and the command exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "cli"))):
        print("run.py: run from the root of an ftbar checkout "
              "(Cargo.toml and crates/cli are missing here)", file=sys.stderr)
        return 2
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "ftbar-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return done.returncode
    if "--self-test" in sys.argv[1:]:
        tests = ["cargo", "test", "--release", "--offline", "-q",
                 "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
        done = subprocess.run(tests, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            return done.returncode
    bench = os.path.join(target, "release", "perfbench")
    cli = os.path.join(target, "release", "ftbar-cli")
    return subprocess.run([bench, "--cli", cli] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
