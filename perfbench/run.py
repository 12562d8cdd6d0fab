#!/usr/bin/env python3
"""Build and run the LittleTable benchmark.

    python3 perfbench/run.py --workload <ingest|dashboard|fleet> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The benchmark program is built
from source with dune into .bench_build/ (build output goes to standard
error; dune's shared cache is off, so nothing is written outside the
checkout), then run with the arguments given; its last line of standard
output is the JSON result. The workloads and metrics are described in
BENCHMARK.json and perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def pin_to_one_cpu():
    """Run the benchmark on one CPU. The OCaml runtime runs one thread at
    a time anyway; spread over two virtual CPUs, every request's handoffs
    between the in-process client, router and server threads waited on
    whichever CPU the host had descheduled, and service times swung by
    several times from run to run on a busy host."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv):
    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no LittleTable source tree (dune-project, lib/) here",
              file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--cache", "disabled", "--profile", "release",
             "./perfbench/main.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        return build.returncode
    proc = subprocess.Popen([EXE] + argv, preexec_fn=pin_to_one_cpu)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
