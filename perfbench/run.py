#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the release `tibfit-daemon` binary
and the benchmark binary from source (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the binary, whose last stdout line is the
result object. Exits non-zero without a result when anything is missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "tibfit-daemon", "--bin", "tibfit-daemon"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        if not os.path.isfile(manifest):
            sys.exit(f"run.py: missing {manifest}; run from a full checkout")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        # Build output goes to stderr so the result stays the last stdout line.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "tibfit-perfbench"),
        *sys.argv[1:],
        "--daemon-bin", os.path.join(release, "tibfit-daemon"),
        "--golden", os.path.join(ROOT, "results", "golden"),
    ]
    sys.stdout.flush()
    os.chdir(ROOT)
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
