#!/usr/bin/env python3
"""Build gqd and the benchmark from this checkout, then run the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is interactive, analytic or mixed_writes, or "all" to run the three in
turn (one result line each).  Run it from the root of a gqd source checkout.
It builds into .bench_build (release profile, dune cache off) and hands its
arguments to the benchmark executable, whose last line of standard output
is the JSON result.  See perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("interactive", "analytic", "mixed_writes")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    missing = [p for p in ("dune-project", "bin/gqd.ml", "lib", "perfbench/dune")
               if not os.path.exists(p)]
    if missing:
        print("perfbench: run from the root of a gqd source checkout "
              "(missing: %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, "./bin/gqd.exe", "./perfbench/gqbench.exe"],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        i = args.index("--workload") + 1
        return max(run(args[:i] + [w] + args[i + 1:]) for w in WORKLOADS)
    return run(args)


def run(args):
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "gqbench.exe")
    gqd = os.path.join(BUILD_DIR, "default", "bin", "gqd.exe")
    # Own process group, so a timeout or a signal stops the benchmark and
    # every server it started.
    proc = subprocess.Popen([exe, "--gqd", gqd] + args, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
