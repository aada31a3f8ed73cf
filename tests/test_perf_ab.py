#!/usr/bin/env python3
"""Self-test of the A/B perf gate's decisions (ctest `perf_ab_selftest`).

Feeds scripts/perf_ab.py's comparison canned perfbench/run.py result
lines, judged against the repository's BENCHMARK.json bounds. Needs no
build and no git history.

    python3 tests/test_perf_ab.py
"""

import importlib.util
import json
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "perf_ab", os.path.join(ROOT, "scripts", "perf_ab.py"))
perf_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_ab)

BASE = {"wall_s": 0.5, "setup_s": 0.05, "sim_mips": 300.0,
        "peak_rss_mib": 350.0}


def line(correct=True, failed=0, drop=(), **values):
    """A run.py result line: BASE's metrics overridden by @values,
    without the metrics named in @drop."""
    metrics = {name: {"value": value, "unit": "-"}
               for name, value in dict(BASE, **values).items()
               if name not in drop}
    return json.dumps({"correct": correct, "attempted": 100,
                       "failed": failed, "metrics": metrics})


class Gate(unittest.TestCase):
    def judge(self, head_line, base_line=None):
        """Every workload gets PAIRS base runs of @base_line and PAIRS
        head runs of @head_line; returns the failure messages."""
        spec = perf_ab.load_spec()
        base_line = base_line or line()
        runs = {side: {w["name"]: [json.loads(text)] * perf_ab.PAIRS
                       for w in spec["workloads"]}
                for side, text in (("base", base_line), ("head", head_line))}
        rows, failures = perf_ab.compare(spec, runs)
        self.assertEqual(len(rows),
                         len(spec["workloads"]) * len(spec["end_to_end"]))
        return failures

    def test_unchanged_passes(self):
        self.assertEqual(self.judge(line()), [])

    def test_sim_mips_drop_of_30_percent_fails_and_20_passes(self):
        failures = self.judge(line(sim_mips=210.0))
        self.assertTrue(failures)
        self.assertTrue(all("sim_mips" in f for f in failures))
        self.assertEqual(self.judge(line(sim_mips=240.0)), [])
        self.assertEqual(self.judge(line(sim_mips=600.0)), [])

    def test_wall_s_is_lower_is_better(self):
        self.assertTrue(self.judge(line(wall_s=0.65)))
        self.assertEqual(self.judge(line(wall_s=0.2)), [])

    def test_peak_rss_mib_is_lower_is_better_at_10_percent(self):
        self.assertTrue(self.judge(line(peak_rss_mib=399.0)))
        self.assertEqual(self.judge(line(peak_rss_mib=378.0)), [])
        self.assertEqual(self.judge(line(peak_rss_mib=100.0)), [])

    def test_incorrect_run_fails_on_either_side(self):
        self.assertTrue(self.judge(line(correct=False)))
        self.assertTrue(self.judge(line(), base_line=line(correct=False)))

    def test_failed_cells_fail(self):
        self.assertTrue(self.judge(line(failed=1)))

    def test_metric_missing_from_one_side_fails(self):
        self.assertTrue(self.judge(line(drop=("setup_s",))))
        self.assertTrue(self.judge(line(),
                                   base_line=line(drop=("peak_rss_mib",))))

    def test_run_without_a_result_fails(self):
        spec = perf_ab.load_spec()
        runs = {side: {w["name"]: [json.loads(line())] * perf_ab.PAIRS
                       for w in spec["workloads"]}
                for side in perf_ab.SIDES}
        runs["head"][spec["workloads"][0]["name"]][0] = None
        self.assertTrue(perf_ab.compare(spec, runs)[1])


if __name__ == "__main__":
    unittest.main()
