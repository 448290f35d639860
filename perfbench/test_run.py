#!/usr/bin/env python3
"""Tests of the verdict benchmark's own arithmetic and gates.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The integration test runs a built verdict_bench and is skipped when the
benchmark has not been built yet (python3 perfbench/run.py builds it).
"""

import json
import re
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

# The alphabet BENCHMARK.json allows for metric and workload names.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics_module(self):
        values = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]
        self.assertEqual(run.median(values), 4.5)
        self.assertEqual(run.quartiles(values), (2.25, 6.75))
        q = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartiles(values), (q[0], q[2]))

    def test_single_sample_quartiles(self):
        self.assertEqual(run.quartiles([3.0]), (3.0, 3.0))

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([5, 1, 3, 2, 4], 50), 3)
        self.assertAlmostEqual(run.percentile(range(1, 101), 90), 90.1)
        self.assertEqual(run.percentile([7.0], 99), 7.0)

    def test_supported_percentile_needs_ten_samples_beyond(self):
        cases = {1: None, 10: None, 19: None, 20: 50, 39: 50, 40: 75,
                 99: 75, 100: 90, 199: 90, 200: 95, 1000: 99, 9999: 99,
                 10000: 99.9}
        for n, p in cases.items():
            self.assertEqual(run.supported_percentile(n), p, n)

    def test_timing_summary_reports_count_and_percentile(self):
        t = run.timing_summary([float(i) for i in range(1, 41)])
        self.assertEqual((t["n"], t["median"], t["percentile"]),
                         (40, 20.5, 75))
        self.assertAlmostEqual(t["percentile_value"], 30.25)
        self.assertNotIn("percentile_value", run.timing_summary([1.0, 2.0]))


def op(i, answer):
    return {"kind": "op", "op": i, "traced": False, "wall_s": 0.1,
            "cpu_s": 0.1, "answer": dict(answer)}


class GateTest(unittest.TestCase):
    def test_correct_answers_pass(self):
        records = [op(i, run.FIG1_ANSWER) for i in range(4)]
        self.assertEqual(run.check_ops("fig1_ref", records), (4, 0, []))

    def test_wrong_expected_answer_fails_every_operation(self):
        records = [op(i, run.FIG1_ANSWER) for i in range(5)]
        wrong = dict(run.FIG1_ANSWER, states=1)
        attempted, failed, log = run.check_ops("fig1_ref", records, wrong)
        self.assertEqual(failed / attempted, 1.0)
        self.assertEqual(len(log), 5)
        self.assertIn("states 342886 != 1", log[0])

    def test_parallel_ops_are_compared_with_the_in_run_reference(self):
        dup = dict(run.FIG1_ANSWER, states=342889)
        records = [op(0, run.FIG1_ANSWER), op(1, dup),
                   {"kind": "reference", "answer": dict(run.FIG1_ANSWER)}]
        attempted, failed, log = run.check_ops("fig1_ref_par", records)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("342889", log[0])
        self.assertIn("in-run sequential", log[0])

    def test_sweep_totals_are_gated(self):
        ok = run.WORKLOADS["sweep_m5"]["answer"]
        records = [op(0, ok), op(1, dict(ok, incomplete=1))]
        self.assertEqual(run.check_ops("sweep_m5", records)[:2], (2, 1))


def span(i, parent, start, end, name="layer", op_id=0):
    return {"name": name, "id": i, "parent": parent, "op": op_id,
            "start": start, "end": end}


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            span(0, -1, 0.0, 10.0, "w.op"),
            span(1, 0, 1.0, 4.0),   # overlaps span 2 on [3, 4]
            span(2, 0, 3.0, 6.0),
            span(3, 1, 2.0, 3.0),   # grandchild of the root
            span(4, 0, 8.0, 12.0),  # runs past its parent's end
        ]
        selfs = run.self_times(spans)
        # Root: children cover [1, 6] and [8, 10] -> 7 of 10.
        self.assertAlmostEqual(selfs[0], 3.0)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 1.0)
        self.assertAlmostEqual(selfs[4], 4.0)
        self.assertEqual(run.attribution(spans), {0: (10.0, 3.0)})

    def test_layer_self_times_sum_per_operation(self):
        spans = [span(0, -1, 0.0, 5.0, "w.op", 1),
                 span(1, 0, 0.0, 2.0, "explorer.explore", 1),
                 span(2, 0, 2.0, 3.0, "explorer.explore", 1),
                 span(3, -1, 10.0, 11.0, "w.op", 2)]
        per = run.layer_self_times(spans, {1})
        self.assertEqual(per["explorer.explore"], [3.0])
        self.assertEqual(per["w.op"], [2.0])

    def test_covered_ignores_empty_and_disjoint_intervals(self):
        self.assertEqual(run.covered([], 0.0, 1.0), 0.0)
        self.assertEqual(run.covered([(2.0, 3.0), (0.5, 0.5)], 0.0, 1.0), 0.0)
        self.assertAlmostEqual(run.covered([(0.0, 0.4), (0.6, 2.0)], 0.0, 1.0),
                               0.8)


class NamesTest(unittest.TestCase):
    def test_every_name_uses_the_allowed_alphabet(self):
        names = (list(run.WORKLOADS) + list(run.END_TO_END)
                 + list(run.PER_LAYER))
        for name in names:
            self.assertRegex(name, NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_agrees_with_the_runner(self):
        spec = run.load_benchmark_json()
        if spec is None:
            self.skipTest("no BENCHMARK.json")
        for w in spec["workloads"]:
            self.assertRegex(w["name"], NAME_RE)
            self.assertIn(w["name"], run.WORKLOADS)
        for m in spec["end_to_end"]:
            self.assertEqual(run.END_TO_END[m["name"]], m["unit"])
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])
        for m in spec["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertEqual(run.PER_LAYER[m["name"]], m["unit"])


class IntegrationTest(unittest.TestCase):
    def test_wrong_expected_answer_does_not_abort_a_real_run(self):
        binary = run.build_dir() / "perfbench" / "verdict_bench"
        if not binary.is_file():
            self.skipTest("verdict_bench not built")
        records, _ = run.run_child(binary, run.build_dir(), "fa_n4_sym", 1,
                                   0, 0)
        wrong = dict(run.WORKLOADS["fa_n4_sym"]["answer"], verdict="DEADLOCK")
        attempted, failed, _ = run.check_ops("fa_n4_sym", records, wrong)
        self.assertGreaterEqual(attempted, 3)
        self.assertEqual(failed, attempted)
        self.assertEqual(run.check_ops("fa_n4_sym", records)[1], 0)
        json.dumps(run.end_to_end(records))


if __name__ == "__main__":
    unittest.main()
