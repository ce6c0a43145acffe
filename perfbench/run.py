#!/usr/bin/env python3
"""Build and run the BVF benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the repository's `reproduce`
binary (the root workspace, release, offline, against the committed
lockfile) and the benchmark package in this directory into
$CARGO_TARGET_DIR, or `.bench_build` at the checkout root when that is
unset, then runs one workload. The last line of standard output is the
benchmark's JSON result; everything else goes to standard error. Result
stores live under `.bench_work/` and are removed when the run ends.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("reproduce_cold", "reproduce_sharded", "serve_mixed")
BUILD_TIMEOUT_S = 850  # both builds together


def run_timeout(seconds):
    """A run measures `seconds`, then finishes its last pass and its checks."""
    return 3 * seconds + 60


def run_bounded(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    # Two malloc arenas, one per core of the two-core baseline host: with
    # glibc's default of up to eight per core, how many arenas the server's
    # per-connection threads create depends on timing, and peak RSS moved
    # by about 1 MiB between runs.
    env["MALLOC_ARENA_MAX"] = "2"
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    builds = [
        cargo + ["--locked", "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
                 "-p", "bvf-sim", "--bin", "reproduce"],
        cargo + ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for build in builds:
        try:
            code, _ = run_bounded(build, max(1.0, deadline - time.monotonic()),
                                  cwd=ROOT, env=env, stdout=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"error: build failed: {e}", file=sys.stderr)
            return 1
        if code != 0:
            print(f"error: build failed with exit code {code}", file=sys.stderr)
            return 1

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    cmd = [
        os.path.join(target, "release", "bvf-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
        "--reproduce", os.path.join(target, "release", "reproduce"),
    ]
    # The benchmark and everything it starts share one CPU, the last this
    # process may use, and so does its host-speed calibration loop (see
    # README.md). The builds above use them all.
    cpu = max(os.sched_getaffinity(0))
    try:
        code, out = run_bounded(cmd, run_timeout(args.seconds), cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True,
                                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    if code != 0:
        print(f"error: benchmark exited with code {code}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print("error: benchmark printed no result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
