#!/usr/bin/env python3
"""Self-test of the CI perf-regression gate: proves, with doctored bench
JSONs, that the gate passes on unchanged results and demonstrably fails on a
>25% simulated-cost regression, a shared-scan fetch-ratio regression, a
dropped row, and a parallel Smooth Scan row above its same-run ceiling. Run directly (CI) or via ctest.
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as gate  # noqa: E402

BASELINE = {
    "bench": "shared_scan",
    "rows": [
        {"series": "shared", "sel_pct": 1.0, "sim_time": 1000.0,
         "clients": 4.0, "pages_vs_solo": 1.0, "wall_ms": 5.0},
        {"series": "full unshared", "sel_pct": 1.0, "sim_time": 4000.0,
         "clients": 4.0, "pages_vs_solo": 4.0, "wall_ms": 9.0},
    ],
}


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base_dir = os.path.join(self.tmp.name, "base")
        self.fresh_dir = os.path.join(self.tmp.name, "fresh")
        os.makedirs(self.base_dir)
        os.makedirs(self.fresh_dir)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, dirname, payload):
        with open(os.path.join(dirname, "BENCH_shared_scan.json"), "w") as f:
            json.dump(payload, f)

    def run_gate(self):
        return gate.main(["--baseline-dir", self.base_dir,
                          "--fresh-dir", self.fresh_dir, "shared_scan"])

    def test_identical_results_pass(self):
        self.write(self.base_dir, BASELINE)
        self.write(self.fresh_dir, BASELINE)
        self.assertEqual(self.run_gate(), 0)

    def test_wall_clock_jitter_is_ignored(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["rows"][0]["wall_ms"] = 500.0  # 100x wall noise: irrelevant.
        fresh["rows"][0]["sim_time"] = 1100.0  # +10%: inside threshold.
        self.write(self.base_dir, BASELINE)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 0)

    def test_sim_time_regression_fails(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["rows"][0]["sim_time"] = 1300.0  # +30% > 25% threshold.
        self.write(self.base_dir, BASELINE)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 1)

    def test_sim_time_improvement_passes(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["rows"][0]["sim_time"] = 100.0
        self.write(self.base_dir, BASELINE)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 0)

    def test_fetch_ratio_regression_fails(self):
        fresh = copy.deepcopy(BASELINE)
        # Sharing quietly stopped collapsing passes: 1.0 -> 1.5 pages/solo,
        # even though sim_time is unchanged.
        fresh["rows"][0]["pages_vs_solo"] = 1.5
        self.write(self.base_dir, BASELINE)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 1)

    def test_dropped_row_fails(self):
        fresh = copy.deepcopy(BASELINE)
        del fresh["rows"][1]
        self.write(self.base_dir, BASELINE)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 1)

    def test_new_row_without_baseline_passes(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["rows"].append({"series": "shared", "sel_pct": 2.0,
                              "sim_time": 2000.0, "clients": 8.0})
        self.write(self.base_dir, BASELINE)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 0)

    def test_rows_differing_only_in_threads_gate_independently(self):
        base = copy.deepcopy(BASELINE)
        # A parallel leg of the same series/sel_pct: distinct by threads.
        base["rows"].append({"series": "shared", "sel_pct": 1.0,
                             "sim_time": 1000.0, "clients": 4.0,
                             "threads": 4.0})
        fresh = copy.deepcopy(base)
        fresh["rows"][-1]["sim_time"] = 2000.0  # Only the parallel leg.
        self.write(self.base_dir, base)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 1)  # Not shadowed by the serial leg.

    def test_duplicate_row_keys_fail(self):
        base = copy.deepcopy(BASELINE)
        base["rows"].append(copy.deepcopy(base["rows"][0]))  # True shadow.
        self.write(self.base_dir, base)
        self.write(self.fresh_dir, base)
        self.assertEqual(self.run_gate(), 1)

    def test_timing_dependent_rows_not_gated(self):
        base = copy.deepcopy(BASELINE)
        base["rows"][0]["timing_dependent"] = 1.0
        fresh = copy.deepcopy(base)
        fresh["rows"][0]["sim_time"] = 9000.0     # Way past threshold...
        fresh["rows"][0]["pages_vs_solo"] = 3.0   # ...and ratio: advisory.
        self.write(self.base_dir, base)
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 0)
        del fresh["rows"][0]                      # But presence still gates.
        self.write(self.fresh_dir, fresh)
        self.assertEqual(self.run_gate(), 1)

    def test_parallel_smooth_over_serial_ceiling(self):
        def fig05(par_sim):
            rows = [{"series": "SmoothScan", "sel_pct": 20.0,
                     "sim_time": 1000.0, "threads": 1.0}]
            for dop in (1, 8):
                rows.append({"series": f"ParSmoothScan dop={dop}",
                             "sel_pct": 20.0, "sim_time": par_sim,
                             "threads": float(dop)})
            return {"bench": "fig05_selectivity", "rows": rows}

        def gate_fig05(baseline, fresh):
            for dirname, payload in ((self.base_dir, baseline),
                                     (self.fresh_dir, fresh)):
                with open(os.path.join(dirname,
                                       "BENCH_fig05_selectivity.json"),
                          "w") as f:
                    json.dump(payload, f)
            return gate.main(["--baseline-dir", self.base_dir,
                              "--fresh-dir", self.fresh_dir,
                              "fig05_selectivity"])

        self.assertEqual(gate_fig05(fig05(1100.0), fig05(1100.0)), 0)
        # 1.2x serial in the same run fails, even blessed as the baseline.
        self.assertEqual(gate_fig05(fig05(1200.0), fig05(1200.0)), 1)
        # ... and so does a parallel row left without its serial reference.
        orphan = fig05(1000.0)
        del orphan["rows"][0]
        self.assertEqual(gate_fig05(orphan, orphan), 1)

    def test_missing_baseline_file_is_skipped(self):
        self.write(self.fresh_dir, BASELINE)
        self.assertEqual(self.run_gate(), 0)

    def test_missing_fresh_file_fails(self):
        self.write(self.base_dir, BASELINE)
        self.assertEqual(self.run_gate(), 1)


if __name__ == "__main__":
    unittest.main()
