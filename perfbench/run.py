#!/usr/bin/env python3
"""perfbench entry point.

Builds the benchmark (and the middleware library it measures) from the
sources in this checkout, runs one workload and passes the program's output
through.  The last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload steady --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR if set (relative paths are taken from
the repository root), else to .bench_build.  Build output goes to standard
error.  Exit status: the program's (0 = every correctness check passed), or 1
when the build fails or the run times out.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady", "switch", "campaign")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def source_digest():
    """Commit id when this is a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base) for f in files)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        print("perfbench: build step timed out: %s" % " ".join(cmd),
              file=sys.stderr)
        return False


def build(out):
    if not os.path.isfile(os.path.join(out, "Makefile")):
        if not run_checked(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_checked(["cmake", "--build", out, "--target", "perfbench",
                        "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = "spans-%s-%d.jsonl" % (args.workload, args.seed)
        cmd += ["--spans-out", os.path.join(out, spans)]
    env = dict(os.environ, PERFBENCH_COMMIT=source_digest())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
