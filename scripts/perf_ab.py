#!/usr/bin/env python3
"""Same-runner A/B performance gate over the repository benchmark.

    python3 scripts/perf_ab.py BASE_REF [HEAD_REF]

Checks out BASE_REF and HEAD_REF (default HEAD) of this repository as
detached git worktrees under one temporary directory, at paths of equal
length, and runs `perfbench/run.py --workload W --seed 1 --seconds 4`
in each for every workload of BENCHMARK.json. It runs PAIRS pairs,
alternating which side goes first, and takes each side's median of
every end-to-end metric. The first run of each side also builds that
side's vpbench (outside the timed rounds).

stdout is a Markdown table of the medians. The exit status is 1 when a
run is not `correct`, a run fails a cell or produces no result, a
metric is missing on either side, or a head median is worse than the
base median by more than the metric's BENCHMARK.json bound, read in
its `better` direction. Bounds and workloads come from the
BENCHMARK.json next to this script. Progress goes to stderr.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 15
SECONDS = 4
SEED = 1
# Equal-length names, so both worktrees sit at equal-length paths:
# vpbench's peak RSS has been seen to step with its work-dir path length.
SIDES = ("base", "head")


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as handle:
        return json.load(handle)


def compare(spec, runs):
    """Judge @runs, {side: {workload: [result or None, ...]}}.

    A result is run.py's last stdout line, parsed; None stands for a run
    that produced none. Returns (rows, failures): one row per workload
    and end-to-end metric, (workload, metric, base median, head median,
    signed change, verdict), and one message per reason to fail."""
    rows, failures = [], []
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for side in SIDES:
            for index, result in enumerate(runs[side][workload], 1):
                where = "%s %s run %d" % (side, workload, index)
                if result is None:
                    failures.append("%s: no result" % where)
                    continue
                if result.get("correct") is not True:
                    failures.append("%s: not correct" % where)
                if result.get("failed", 1) != 0:
                    failures.append("%s: %s failed cells"
                                    % (where, result.get("failed")))
                metrics = result.get("metrics", {})
                for metric in spec["end_to_end"]:
                    name = metric["name"]
                    if name not in metrics:
                        failures.append("%s: no %s" % (where, name))
                        continue
                    values.setdefault((side, name), []).append(
                        metrics[name]["value"])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = values.get(("base", name))
            head = values.get(("head", name))
            if not base or not head:
                rows.append((workload, metric, None, None, None, "FAIL"))
                continue
            base, head = statistics.median(base), statistics.median(head)
            change = (head - base) / base
            # How much worse head is, in the metric's `better` direction.
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok"
            if worse > metric["bound"]:
                verdict = "FAIL"
                failures.append(
                    "%s %s: %.4g -> %.4g is %.1f%% worse (bound %.0f%%)"
                    % (workload, name, base, head, 100 * worse,
                       100 * metric["bound"]))
            rows.append((workload, metric, base, head, change, verdict))
    return rows, failures


def table(rows):
    lines = ["| workload | metric | better | bound | base | head | change "
             "| verdict |",
             "|---|---|---|---:|---:|---:|---:|---|"]
    for workload, metric, base, head, change, verdict in rows:
        cells = ("%.4g" % base, "%.4g" % head, "%+.1f%%" % (100 * change)) \
            if base is not None else ("-", "-", "-")
        lines.append("| %s | `%s` | %s | %.0f%% | %s | %s | %s | %s |" % (
            (workload, metric["name"], metric["better"],
             100 * metric["bound"]) + cells + (verdict,)))
    return "\n".join(lines)


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def run_once(tree, workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    sys.stderr.write("\n".join(proc.stderr.splitlines()[-20:]) + "\n")
    return None


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit("usage: " + __doc__.strip().splitlines()[2].strip())
    refs = dict(zip(SIDES, (argv[0], argv[1] if len(argv) > 1 else "HEAD")))
    commits = {side: git("rev-parse", "--verify", refs[side] + "^{commit}")
               for side in SIDES}
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    # A terminated run still removes its worktrees (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    scratch = tempfile.mkdtemp(prefix="perf-ab.")
    trees = {side: os.path.join(scratch, side) for side in SIDES}
    runs = {side: {w: [] for w in workloads} for side in SIDES}
    try:
        for side in SIDES:
            git("worktree", "add", "--detach", "--quiet", trees[side],
                commits[side])
        for pair in range(PAIRS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    result = run_once(trees[side], workload)
                    runs[side][workload].append(result)
                    mips = (result or {}).get("metrics", {}).get(
                        "sim_mips", {}).get("value")
                    print("perf_ab: pair %d/%d %s %s: sim_mips %s"
                          % (pair + 1, PAIRS, workload, side, mips),
                          file=sys.stderr, flush=True)
    finally:
        for side in SIDES:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", trees[side]],
                           stderr=subprocess.DEVNULL)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"])

    rows, failures = compare(spec, runs)
    print("base %s (%s), head %s (%s): %d pairs, --seed %d --seconds %d,"
          " medians\n" % (refs["base"], commits["base"][:10], refs["head"],
                          commits["head"][:10], PAIRS, SEED, SECONDS))
    print(table(rows))
    for failure in failures:
        print("perf_ab: FAIL: %s" % failure, file=sys.stderr)
    print("perf_ab: %s after %.0f s" % ("FAIL" if failures else "pass",
                                        time.monotonic() - start),
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
