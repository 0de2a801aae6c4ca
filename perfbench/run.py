#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `repro` (the daemon `serve-mixed`
drives) from the repository workspace and the `perfbench` binary from its
own workspace, both in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then hands the arguments to that binary. Its
last stdout line is the JSON result; its exit code is passed through.
"""

import os
import subprocess
import sys


def build(args):
    # Cargo's progress goes to stderr so stdout stays the benchmark's report.
    result = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *args],
                            stdout=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: build failed: cargo build {' '.join(args)}")


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(["-p", "cc-bench", "--bin", "repro"])
    build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench"),
               "--repro", os.path.join(release, "repro"),
               "--scratch", ".perfbench", *sys.argv[1:]]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
