#!/usr/bin/env python3
"""Build the server and the load generator from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload comb_cold --seed 1 --seconds 10 --trace 0

Workloads: comb_cold, query_hot, dna_near (see perfbench/README.md).
Both programs are built in release mode into $CARGO_TARGET_DIR, or
.bench_build when it is unset. The last line of standard output is the
run's JSON result; build logs go to standard error. Exits non-zero
without a result when the sources are missing, a build fails, an answer
is wrong or the run overruns its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys
import threading
import time

# Whole-command limit; the first run in a fresh checkout also builds.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 880


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(args, env, deadline):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("build timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()

    started = time.monotonic()
    root = os.getcwd()
    for needed in ("Cargo.toml", "crates/cli/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} is missing")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    deadline = started + BUILD_LIMIT_S
    build(["--manifest-path", "Cargo.toml", "-p", "slcs-cli", "--bin", "slcs"], env, deadline)
    build(["--manifest-path", "perfbench/Cargo.toml"], env, deadline)

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", opts.workload,
        "--seed", str(opts.seed),
        "--seconds", str(opts.seconds),
        "--trace", str(opts.trace),
        "--server", os.path.join(target, "release", "slcs"),
        "--root", root,
    ]
    # A session of its own, so a timeout or a signal takes the load
    # generator and the server it started down together.
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()

    def on_signal(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    timed_out = threading.Event()

    def overrun():
        timed_out.set()
        kill_group()

    watchdog = threading.Timer(RUN_LIMIT_S, overrun)
    watchdog.daemon = True
    watchdog.start()
    try:
        for line in child.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
        child.wait()
    finally:
        watchdog.cancel()
        # The server is the load generator's child; none may outlive it.
        kill_group()
    if timed_out.is_set():
        fail(f"run exceeded {RUN_LIMIT_S} s", 3)
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
