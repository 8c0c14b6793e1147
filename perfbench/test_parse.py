"""Tests of the benchmark's `repro` output parsers and checks.

    python3 -m unittest discover -s perfbench

The fixtures in `testdata/` are `repro` output captured at the default seed:
`fig14 --jobs 2`, `sweep-qd --queue-depth 1,16,256 --jobs 1`, the gc-array
`sweep-qd`, `fig5` and `fig11`. A drift in `repro`'s format must raise
`ParseError` rather than read as zero.
"""

import json
import os
import unittest

import paper
import parse
import run

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")


def fixture(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as f:
        return f.read()


class Fig14(unittest.TestCase):
    def setUp(self):
        self.out = fixture("fig14.stdout")

    def test_rows_and_reductions(self):
        p = parse.fig14(self.out)
        self.assertEqual(sorted(p["norm"]), sorted(run.FIG14_ROWS))
        self.assertEqual(p["norm"]["stg_0/1000/0"], ["1.000", "0.990", "0.992", "0.988", "0.964"])
        self.assertEqual(p["p99"]["YCSB-F/2000/12"], ["14707.6", "8558.8", "10864.5", "6135.9", "326.0"])
        self.assertEqual(p["reductions"], {"PR2": (23.8, 37.2), "AR2": (17.7, 25.6), "PnAR2": (35.3, 52.8)})
        self.assertEqual(p["check"]["reduction/PnAR2"], ["35.3%", "52.8%"])

    def test_fidelity_at_default_seed(self):
        errors = paper.fig14_errors(parse.fig14(self.out)["reductions"])
        self.assertEqual(len(errors), 6)
        self.assertAlmostEqual(paper.mae(errors), 4.65, places=9)

    def test_evaluation_counts_every_request(self):
        completed, problems, _, _ = run.eval_fig14([self.out])
        self.assertEqual(problems, [])
        self.assertEqual(completed, run.WORKLOADS["fig14"].attempted)

    def test_missing_row_counts_as_failed(self):
        out = "\n".join(l for l in self.out.splitlines() if not l.startswith("| hm_0     | 2000 | 6 mo"))
        completed, problems, _, _ = run.eval_fig14([out])
        self.assertEqual(problems, ["fig14 row hm_0/2000/6 missing"])
        self.assertEqual(completed, run.WORKLOADS["fig14"].attempted - 5 * run.TRACE_LEN)

    def test_baseline_not_one_is_flagged(self):
        out = self.out.replace("| stg_0    | 1000 | 0 mo  | 1.000 ", "| stg_0    | 1000 | 0 mo  | 0.999 ", 1)
        _, problems, _, _ = run.eval_fig14([out])
        self.assertEqual(len(problems), 1)

    def test_format_drift_fails_loudly(self):
        drifts = [
            self.out.replace("PR2 vs Baseline: avg", "PR2 vs Baseline avg"),
            self.out.replace("| workload | PEC  | t_RET |", "| trace | PEC  | t_RET |"),
            self.out.replace("read p99 (µs", "read p95 (µs"),
            self.out.replace("0.952", "0,952", 1),
        ]
        for out in drifts:
            with self.assertRaises(parse.ParseError):
                parse.fig14(out)


class Timing(unittest.TestCase):
    def test_stderr_split(self):
        self.assertEqual(parse.timing(fixture("fig14.stderr")), (8.3, 7554.7))

    def test_missing_split(self):
        with self.assertRaises(parse.ParseError):
            parse.timing("fig14: replay 7554.7 ms\n")


class SweepQd(unittest.TestCase):
    def test_n_columns_and_means(self):
        p = parse.sweep_qd(fixture("sweep-qd.stdout"))
        self.assertEqual(len(p["cells"]), 12)
        cell = p["cells"]["mds_1/Baseline/256"]
        self.assertEqual((cell["reads"]["n"], cell["writes"]["n"]), (4624, 376))
        self.assertEqual(p["avg"]["YCSB-C/PnAR2/16"], "2085.2")
        self.assertEqual(p["check"]["mds_1/PnAR2/1"], ["4624", "3282.4", "376", "1385.1"])
        self.assertEqual(p["redundancy"], {})

    def test_evaluation(self):
        evaluate = run.WORKLOADS["sweep-qd"].evaluate
        completed, problems, errors, _ = evaluate([fixture("sweep-qd.stdout")])
        self.assertEqual(problems, [])
        self.assertEqual(completed, run.WORKLOADS["sweep-qd"].attempted)
        self.assertEqual(len(errors), 6)

    def test_lost_requests_count_as_failed(self):
        out = fixture("sweep-qd.stdout").replace(
            "| mds_1 / Baseline / QD=1    | writes        | 376 ",
            "| mds_1 / Baseline / QD=1    | writes        | 370 ",
        )
        completed, problems, _, _ = run.WORKLOADS["sweep-qd"].evaluate([out])
        self.assertEqual(completed, run.WORKLOADS["sweep-qd"].attempted - 6)
        self.assertEqual(problems, ["mds_1/Baseline/1: reads + writes = 4994, submitted 5000"])

    def test_format_drift_fails_loudly(self):
        out = fixture("sweep-qd.stdout")
        for drift in (out.replace("| n    |", "| cnt  |", 1), out.replace("throughput and means:", "means:")):
            with self.assertRaises(parse.ParseError):
                parse.sweep_qd(drift)


class GcArray(unittest.TestCase):
    def setUp(self):
        self.out = fixture("gc-array.stdout")

    def test_redundancy_table(self):
        p = parse.sweep_qd(self.out)
        self.assertEqual(
            p["redundancy"]["gc_stress/PnAR2/16"],
            {"scheme": "replicate:2", "reads": 2500, "rescued": 568, "failed": "—"},
        )
        self.assertEqual(p["check"]["gc_stress/Baseline/16"], ["2500", "3790.0", "2500", "6428.4", "2500"])

    def test_evaluation_and_fidelity(self):
        completed, problems, errors, _ = run.WORKLOADS["gc-array"].evaluate([self.out])
        self.assertEqual(problems, [])
        self.assertEqual(completed, run.WORKLOADS["gc-array"].attempted)
        # PnAR2 reduction 1 - 5074.5 / 6428.4 = 21.06 %, against 35.2 %.
        self.assertAlmostEqual(paper.mae(errors), 35.2 - 100 * (1 - 5074.5 / 6428.4), places=9)

    def test_wait_for_k_mismatch_counts_as_failed(self):
        out = self.out.replace("| replicate:2 | 2500  | 1125.0", "| replicate:2 | 2490  | 1125.0")
        completed, problems, _, _ = run.WORKLOADS["gc-array"].evaluate([out])
        self.assertEqual(completed, run.WORKLOADS["gc-array"].attempted - 10)
        self.assertEqual(problems, ["gc_stress/PnAR2/16: wait-for-k reads 2490 != logical reads 2500"])


class Charact(unittest.TestCase):
    def test_tables_and_fidelity(self):
        fig5 = parse.fig5(fixture("fig5.stdout"))
        fig11 = parse.fig11(fixture("fig11.stdout"))
        self.assertEqual(len(fig5), 15)
        self.assertEqual(fig5["fig5/0/6"], ["6.6", "53.6%"])
        self.assertEqual(fig11["fig11/2000/12"], ["40.0%"])
        self.assertEqual(paper.mae(paper.fig11_errors(fig11)), 0.0)

    def test_evaluation(self):
        completed, problems, _, _ = run.eval_charact([fixture("fig5.stdout"), fixture("fig11.stdout")])
        self.assertEqual(problems, [])
        self.assertEqual(completed, run.WORKLOADS["charact"].attempted)

    def test_format_drift_fails_loudly(self):
        drift = fixture("fig11.stdout").replace("| 40.0%", "| 0.40 ")
        with self.assertRaises(parse.ParseError):
            parse.fig11(drift)
        with self.assertRaises(parse.ParseError):
            parse.fig5(fixture("fig5.stdout").replace("mean steps", "avg steps"))


class BenchmarkJson(unittest.TestCase):
    def test_matches_the_metrics_run_reports(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
