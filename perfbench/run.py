#!/usr/bin/env python3
"""Build the benchmark program (vpbench) in Release and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ideal_sweep --seed 1 --seconds 20 --trace 0

vpbench (perfbench/vpbench.cpp) is configured from perfbench/CMakeLists.txt
into .bench_build/perfbench, so the first run of a checkout also builds it.
Build output and vpbench's diagnostics go to stderr; the last line of
stdout is the result object {"correct", "attempted", "failed", "metrics"}.
Options other than the four below are passed to vpbench unchanged
(--insts N, --dump-cells FILE, ...).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ideal_sweep", "pipeline_sweep", "streamed_scale")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, ".bench_build", "perfbench")


def build(targets=("vpbench",)):
    """Configure (once) and build @targets; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources next to perfbench/; "
                 "run from a full source checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] +
                   list(targets), check=True, stdout=sys.stderr)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    try:
        exe = os.path.join(build(), "vpbench")
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit("perfbench: build failed: %s" % error)

    bench_build = os.path.join(ROOT, ".bench_build")
    workdir = os.path.join(bench_build, "work-%d" % os.getpid())
    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir,
               "--expected", os.path.join(HERE, "expected",
                                          args.workload + ".txt")]
    if args.trace:
        spans = os.path.join(bench_build, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(spans, args.workload + ".jsonl")]
    command += extra
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: vpbench exited with %d" % proc.returncode)
    json.loads(lines[-1])  # vpbench's last line must be the result
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
