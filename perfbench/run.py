#!/usr/bin/env python3
"""Builds the GeoSIR benchmark from source and runs one workload.

    python3 perfbench/run.py --workload static_20k --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to .bench_build/ (override
with CARGO_TARGET_DIR);
storage files and span dumps go to .bench_build/work/. The binary's
notes and its final JSON line are passed through on stdout; build output
goes to stderr. Exits non-zero when the build fails, the run fails, or
an answer is wrong. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("static_20k", "serve_4k")
BUILD_BUDGET_S = 800  # Configure + build; the first run in a checkout builds.
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_quiet(cmd, deadline):
    """Runs a build step with its output on stderr; True when it succeeded."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False).returncode == 0
    except subprocess.TimeoutExpired:
        print(f"timed out: {' '.join(cmd)}", file=sys.stderr)
        return False


def build():
    """Configures once, then brings the binary up to date (a no-op build
    takes about a second). Returns the binary's path, or None."""
    deadline = time.monotonic() + BUILD_BUDGET_S
    out = build_dir()
    binary = os.path.join(out, "geosir_perfbench")
    if not os.path.exists(os.path.join(out, "Makefile")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], deadline):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", out, "--target", "geosir_perfbench",
                      "-j", jobs], deadline):
        return None
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    proc = subprocess.Popen(cmd, cwd=ROOT)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
