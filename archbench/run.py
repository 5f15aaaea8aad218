#!/usr/bin/env python3
"""Builds and runs the archive benchmark (see README.md beside this file).

    python3 archbench/run.py --workload mixed-small --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
`archbench` CMake package (the repository's library plus the archbench program) into
$CARGO_TARGET_DIR (default .bench_build); later runs only check that the
build is current. Archives live on tmpfs when it has room (see
archive_root). Build output goes to stderr, so the last stdout line is the
JSON result of archbench.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("mixed-small", "stream-large", "node-loss")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
TMPFS = "/dev/shm"
TMPFS_MIN_FREE = 6 << 30  # the largest workload peaks near 3 GiB


def archive_root(build_dir):
    """Where the archives live: tmpfs when it has room, so the timings are
    the program's and not the disk's (on an ext4 disk identical runs varied
    up to 2x); otherwise inside the build directory. The name is unique per
    run."""
    try:
        st = os.statvfs(TMPFS)
        if os.access(TMPFS, os.W_OK) and st.f_bavail * st.f_frsize >= TMPFS_MIN_FREE:
            return os.path.join(TMPFS, f"archbench-{os.getpid()}")
    except OSError:
        pass
    return os.path.join(build_dir, f"archbench-run-{os.getpid()}")


def src_digest():
    """SHA-256 over the library sources: identifies the code measured when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(REPO, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, REPO).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def build(build_dir):
    """Configures (once) and builds archbench; returns its path."""
    pkg_build = os.path.join(build_dir, "archbench")
    steps = []
    if not os.path.exists(os.path.join(pkg_build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", pkg_build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", pkg_build, "--target", "archbench",
                  "-j", "4"])
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(pkg_build, "archbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")

    build_dir = os.path.join(
        REPO, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
        digest = src_digest()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"archbench: build failed: {e}", file=sys.stderr)
        return 1

    root = archive_root(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", root, "--git-sha", git_sha(), "--src-digest", digest]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("archbench: run timed out", file=sys.stderr)
        return 1
    finally:
        # archbench removes the archives itself; this catches a run that
        # was killed or failed half-way (tmpfs holds them in memory).
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
