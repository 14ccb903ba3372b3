#!/usr/bin/env python3
"""Builds the server and the benchmark client from source, then runs one
workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Build products go to $CARGO_TARGET_DIR
(default: .bench_build); sockets, persisted state and span dumps go to
.bench_run. The last line on stdout is the JSON result; build output goes
to stderr.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    """Builds a release target offline; exits without a result on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    server_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(server_manifest):
        sys.exit("perfbench: no Cargo.toml at the repository root; run from a full checkout")
    # The server is the shipped binary, built by the repository's own
    # manifest and release profile.
    build(server_manifest, "-p", "rect-addr-cli", "--bin", "rect-addr")
    build(os.path.join(HERE, "Cargo.toml"))
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--server", os.path.join(release, "rect-addr"), *sys.argv[1:]]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
