#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark, run from the checkout root:

    python3 perfbench/selftest.py [--insts 20000]

For every workload it runs vpbench twice untraced and twice traced at
a tiny trace length and checks that
  - every run is correct (no failed cell or check);
  - every end-to-end metric of BENCHMARK.json is printed with its unit
    by the untraced runs, and every per-layer metric by the traced runs;
  - the deterministic results repeat exactly across all four runs: every
    cell's cycles, counters and arcs, and the per-layer counts and
    ratios that depend only on the traces.
It then cross-checks the benchmark against the figure benches at the same
--insts: the Fig 3.1 cells of ideal_sweep must equal what
fig3_1_fetch_rate --csv prints, and the Fig 5.2 cells of pipeline_sweep
what fig5_2_taken_branches_2level_btb --csv prints. Exits 0 when all
checks pass.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402  (after the bytecode switch)

ROOT = bench.ROOT
DETERMINISTIC = (
    "vm.insts_captured", "trace.v3_bytes_per_record", "trace.cache_hits",
    "trace.cache_misses", "trace.stream_blocks", "predictor.accuracy",
    "predictor.coverage", "core.ideal_useful_ratio",
    "core.ideal_stalling_uses_per_inst", "core.pipeline_ipc",
    "fetch.tc_hit_rate", "bpred.accuracy", "vptable.denied_ratio",
    "analysis.arcs",
)

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what, file=sys.stderr)


def run_workload(workload, seed, trace, insts, cells_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
         "--trace", str(trace), "--insts", str(insts),
         "--dump-cells", cells_path],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    check(proc.returncode == 0,
          "%s trace=%d exited %d: %s" % (workload, trace, proc.returncode,
                                          proc.stderr[-500:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(cells_path) as cells:
        return result, cells.read()


def parse_cells(text):
    cells = {}
    for line in text.splitlines():
        cell_id, canon = line.split("\t")
        cells[cell_id] = dict(field.split("=") for field in canon.split())
    return cells


def check_metrics(workload, result, expected, kind):
    printed = result["metrics"]
    for metric in expected:
        name = metric["name"]
        check(name in printed,
              "%s: %s metric %s not printed" % (workload, kind, name))
        if name in printed:
            check(printed[name]["unit"] == metric["unit"],
                  "%s: %s printed in %s, not %s" % (
                      workload, name, printed[name]["unit"], metric["unit"]))


def read_csv(path):
    values = {}
    with open(path) as csv:
        for line in csv:
            _, benchmark, column, value = line.strip().split(",")
            values[(benchmark, column)] = value
    return values


def speedup(cells, benchmark, base, vp):
    """The figure benches' cell: cycles(VP off) / cycles(VP on) - 1."""
    off = int(cells["%s/%s" % (benchmark, base)]["cycles"])
    on = int(cells["%s/%s" % (benchmark, vp)]["cycles"])
    return "%.9g" % (off / on - 1.0)


def cross_check(build, out, insts, ideal_cells, pipeline_cells):
    runs = {
        "fig3_1_fetch_rate": [
            (("BW=%d" % rate), "ideal.bw%d.none" % rate,
             "ideal.bw%d.stride" % rate) for rate in (4, 8, 16, 32, 40)],
        "fig5_2_taken_branches_2level_btb": [
            (column, "pipe.%s.2lev.novp" % family,
             "pipe.%s.2lev.vp" % family)
            for column, family in (("n=1", "seq1"), ("n=2", "seq2"),
                                   ("n=4", "seq4"),
                                   ("unlimited", "sequnl"))],
    }
    for figure, columns in runs.items():
        csv = os.path.join(out, figure + ".csv")
        if os.path.exists(csv):
            os.remove(csv)
        subprocess.run([os.path.join(build, figure), "--insts", str(insts),
                        "--csv", csv], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        printed = read_csv(csv)
        cells = ideal_cells if figure.startswith("fig3") else pipeline_cells
        benchmarks = sorted({b for b, _ in printed})
        compared = 0
        for benchmark in benchmarks:
            for column, base, vp in columns:
                ours = speedup(cells, benchmark, base, vp)
                theirs = printed[(benchmark, column)]
                check(ours == theirs, "%s %s %s: benchmark %s, figure %s"
                      % (figure, benchmark, column, ours, theirs))
                compared += 1
        print("%s: %d cells compared" % (figure, compared), file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--insts", type=int, default=20000)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    build = bench.build(("vpbench", "fig3_1_fetch_rate",
                         "fig5_2_taken_branches_2level_btb"))
    out = os.path.join(ROOT, ".bench_build", "selftest")
    os.makedirs(out, exist_ok=True)

    cells_by_workload = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for trace in (0, 0, 1, 1):
            cells_path = os.path.join(out, "%s-%d-%d.cells"
                                      % (workload, trace, len(runs)))
            result, cells = run_workload(workload, 0, trace, args.insts,
                                         cells_path)
            check(result["correct"] and result["failed"] == 0,
                  "%s trace=%d: %d of %d checks failed" % (
                      workload, trace, result["failed"],
                      result["attempted"]))
            runs.append((trace, result, cells))
            check_metrics(workload, result,
                          spec["per_layer"] if trace else spec["end_to_end"],
                          "per-layer" if trace else "end-to-end")
        check(all(cells == runs[0][2] for _, _, cells in runs),
              "%s: cell results differ between runs" % workload)
        traced = [result["metrics"] for trace, result, _ in runs if trace]
        for name in DETERMINISTIC:
            values = [metrics.get(name, {}).get("value") for metrics in traced]
            check(values[0] == values[1],
                  "%s: %s differs between runs: %s" % (workload, name,
                                                       values))
        cells_by_workload[workload] = parse_cells(runs[0][2])
        print("%s: 4 runs checked" % workload, file=sys.stderr)

    cross_check(build, out, args.insts, cells_by_workload["ideal_sweep"],
                cells_by_workload["pipeline_sweep"])
    if failures:
        print("selftest: %d check(s) failed" % len(failures), file=sys.stderr)
        return 1
    print("selftest: all checks passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
