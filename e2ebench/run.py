#!/usr/bin/env python3
"""Builds and runs the hematch end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload batch_exact --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark in Release mode under $CARGO_TARGET_DIR (default
.bench_build)/e2ebench; later runs only rebuild what changed. Build output
goes to stderr; the benchmark's stdout is passed through unchanged, so its
last line is the result object. Records and traces land in .bench_out/.

Exits nonzero, without a result line, when the build fails (for instance
when the library sources are missing) or the benchmark does.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "e2ebench"


def build(directory):
    """Configures (once) and builds the benchmark binary; returns its path."""
    steps = []
    if not (directory / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(directory),
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release",
                      "-DE2EBENCH_BUILD_TESTS=OFF"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(directory), "--target",
                  "hematch_e2ebench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return directory / "hematch_e2ebench"


def source_digest():
    """SHA-256 over the library sources and build files: identifies the
    measured code where no git metadata is available."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch_exact", "batch_ingest"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        binary = build(build_dir())
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        log(str(error))
        return 1
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", str(ROOT / ".bench_out"),
               "--git-commit", git_commit(),
               "--source-digest", source_digest()]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
