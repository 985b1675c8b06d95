#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload trace_eq7 --seed 1 --seconds 15 --trace 0

Run from the root of the repository. Every argument is passed through
to the benchmark binary (see perfbench/README.md); the binary prints a
readable report and, as its last line, one JSON result. Cargo's output
goes to standard error. Build artefacts go to $CARGO_TARGET_DIR, by
default .bench_build/ in the current directory.

Exit status: the benchmark's, or 1 when the build fails or the run
exceeds its time limit (no result line is printed then).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
# Sources whose digest identifies the measured program.
SOURCE_DIRS = ["crates", "third_party", "perfbench/src"]
SOURCE_FILES = ["Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock"]


def command_output(args):
    try:
        done = subprocess.run(
            args, cwd=ROOT, capture_output=True, text=True, timeout=30, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    files = [ROOT / f for f in SOURCE_FILES if (ROOT / f).is_file()]
    for d in SOURCE_DIRS:
        files += [p for p in (ROOT / d).rglob("*") if p.is_file()]
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(
            build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    # Only a repository rooted here names the measured commit.
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    commit = top and Path(top).resolve() == ROOT and command_output(["git", "rev-parse", "HEAD"])
    env["VFC_BENCH_GIT_COMMIT"] = commit or "none (not a git checkout)"
    env["VFC_BENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"
    env["VFC_BENCH_SOURCE_DIGEST"] = source_digest()
    binary = target / "release" / "vfc-perfbench"
    args = sys.argv[1:]
    if "--golden" not in args:
        args += ["--golden", str(ROOT / "perfbench" / "golden.txt")]
    try:
        done = subprocess.run(
            [str(binary), *args], env=env, timeout=RUN_TIMEOUT_S, check=False
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark did not finish: {e}", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
