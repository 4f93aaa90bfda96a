#!/usr/bin/env python3
"""Build and run the Tiera end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild only what changed. The last line of stdout is the result as one JSON
object; build output goes to stderr. Any failure exits non-zero without
printing a result.

The instance's data directory is .bench_build/perfbench-data. Where the
host allows an unprivileged mount namespace, the benchmark runs in one with
a private tmpfs mounted on that directory: a synced journal then measures
the program's own fsync path, not the noise of a shared disk. Otherwise the
directory stays on the checkout's filesystem; the report's data_dir_fs line
says which.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("read_hot", "write_durable")
RUN_TIMEOUT_S = 170
TMPFS_SIZE = "size=1536m"
# sh script: mount a tmpfs with options $1 on directory $2, then exec the rest.
MOUNT_AND_EXEC = 'mount -t tmpfs -o "$1" tmpfs "$2" && shift 2 && exec "$@"'


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    out = os.path.join(build_root(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = os.path.join(out, target)
    return binary if os.path.exists(binary) else None


def in_tmpfs(data_dir, cmd):
    """cmd wrapped to run with a private tmpfs on data_dir, or cmd itself
    when this host allows no unprivileged mount namespace."""
    wrap = ["unshare", "--user", "--map-root-user", "--mount",
            "sh", "-c", MOUNT_AND_EXEC, "sh", TMPFS_SIZE, data_dir]
    try:
        probe = subprocess.run(wrap + ["true"], stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return cmd
    return wrap + cmd if probe.returncode == 0 else cmd


def run(cmd):
    """Runs cmd, forwarding its stdout; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        return 1, []
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        if binary is None:
            return 1
        data = os.path.join(build_root(), "perfbench-selftest-data")
        return subprocess.run([binary, data]).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    binary = build("perfbench")
    if binary is None:
        return 1
    data_dir = os.path.join(build_root(), "perfbench-data")
    os.makedirs(data_dir, exist_ok=True)
    code, lines = run(in_tmpfs(data_dir, [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--data-dir", data_dir]))
    if code != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("\n".join(lines), file=sys.stderr)
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
