#!/usr/bin/env python3
"""Builds the iTag library and benchmark from this checkout, then runs one workload.

    python3 perfbench/run.py --workload monitor|tagging|crowd --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run it from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); scratch databases and per-run result files (stamp,
metrics and spans) go below it. The last line of stdout is the result
object; build output goes to stderr.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over the sources the benchmark builds, for the result stamp."""
    h = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += sorted(p for p in (root / sub).rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   check=True, stdout=log, stderr=log)
    return build_dir / "itag_perfbench"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["monitor", "tagging", "crowd"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    root = pathlib.Path.cwd()
    for needed in ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt"):
        if not (root / needed).exists():
            fail(f"{needed} is missing: run from the root of a full checkout")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size,
           "--work-dir", str(build_dir / "perfbench-work"),
           "--results-dir", str(build_dir / "perfbench-results"),
           "--git-sha", git_sha(root), "--src-digest", source_digest(root)]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
