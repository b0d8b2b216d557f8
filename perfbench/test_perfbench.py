#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Statistics tests run instantly. The build-backed tests build perfbench/
(as run.py does) and check that the benchmark's copy of corpus_campaign's
Table I apportionment writes the same corpus and stats digest as the tool,
and that a tiny traced run of every workload passes its output checks.
"""

import json
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
import metrics  # noqa: E402
import run  # noqa: E402


class StatisticsTest(unittest.TestCase):
    def test_percentiles_are_nearest_rank_with_sample_count(self):
        values = [i / 1000.0 for i in range(100, 0, -1)]  # 0.1 s .. 0.001 s
        t = metrics.timing("x.call_ms", values)
        self.assertAlmostEqual(t["x.call_ms.p50"], 50.0)
        self.assertAlmostEqual(t["x.call_ms.p99"], 99.0)
        self.assertEqual(t["x.call_ms.n"], 100)
        self.assertEqual(metrics.percentile([7.0], 99), 7.0)
        self.assertEqual(metrics.percentile([1.0, 2.0], 50), 1.0)

    def test_timing_units_and_max_tail(self):
        t = metrics.timing("y.call_us", [1e-6, 3e-6, 2e-6], tail="max")
        self.assertAlmostEqual(t["y.call_us.p50"], 2.0)
        self.assertAlmostEqual(t["y.call_us.max"], 3.0)
        self.assertEqual(t["y.call_us.n"], 3)
        empty = metrics.timing("z.call_s", [])
        self.assertEqual(empty, {"z.call_s.p50": 0.0, "z.call_s.p99": 0.0, "z.call_s.n": 0})

    def test_failed_share(self):
        self.assertEqual(metrics.failed_share(6000, 0), 0.0)
        self.assertAlmostEqual(metrics.failed_share(2000, 5), 0.0025)
        self.assertEqual(metrics.failed_share(0, 0), 1.0)

    def test_tracing_overhead_compares_medians(self):
        self.assertAlmostEqual(metrics.tracing_overhead([100.0, 110.0, 90.0], [95.0]), 0.05)
        self.assertAlmostEqual(metrics.tracing_overhead([100.0], [104.0]), -0.04)
        self.assertEqual(metrics.tracing_overhead([100.0], []), 0.0)

    def test_quartile_spread(self):
        values = [float(v) for v in range(1, 11)]
        q1, _, q3 = [2.75, 5.5, 8.25]
        self.assertAlmostEqual(metrics.quartile_spread(values), (q3 - q1) / 5.5)

    def test_report_round_trip_and_end_to_end(self):
        text = "\n".join([
            "setup 0.5", "setup 0.3", "setup 0.4",
            "iter U 2.0 100 1000 30.0", "iter T 4.0 100 1000 40.0", "iter U 1.0 100 3000 20.0",
            "attempt 300 0", "info flows 100", "count sim.events 5000",
            "count cell.flows 100",
            "span 1 workload.run_multi_flow 0 0 3000000000",
            "span 1 shared_cell.total 0 0 4000000000",
        ])
        rep = metrics.parse_report(text)
        self.assertEqual(rep["attempted"], 300)
        self.assertEqual(rep["info"], {"flows": "100"})
        e2e = metrics.end_to_end(rep, 12.5)
        self.assertEqual(set(e2e), set(metrics.END_TO_END))
        self.assertAlmostEqual(e2e["flows_per_s"], 75.0)  # untraced units only
        self.assertAlmostEqual(e2e["setup_s"], 0.4)
        self.assertAlmostEqual(e2e["corpus_bytes_per_flow"], 20.0)
        self.assertAlmostEqual(e2e["peak_rss_mb"], 25.0)  # per-unit peaks win
        rep["iters"][0]["peak_rss_mb"] = 0.0  # a unit the driver could not reset
        self.assertAlmostEqual(metrics.end_to_end(rep, 12.5)["peak_rss_mb"], 12.5)
        layers = metrics.per_layer("shared_cell", rep, {})
        self.assertEqual(list(layers), [name for name, _, _ in metrics.PER_LAYER])
        self.assertAlmostEqual(layers["workload.sim_busy_share"], 0.75)
        self.assertAlmostEqual(layers["workload.run_multi_flow_s.p50"], 3.0)
        self.assertAlmostEqual(layers["sim.events_per_flow"], 50.0)
        self.assertAlmostEqual(layers["bench.tracing_overhead"], 1.0 - 25.0 / 75.0)
        self.assertEqual(layers["trace.decode_ms.n"], 0)  # never called here
        self.assertEqual(layers["failed_share"], 0.0)
        rep["failed"] = 30
        self.assertAlmostEqual(metrics.per_layer("shared_cell", rep, {})["failed_share"], 0.1)

    def test_campaign_worker_timeline(self):
        # Two workers; worker 1 finishes at 3 s, worker 2 at 5 s, the
        # campaign (4 threads) ends at 6 s.
        text = "\n".join([
            "setup 1", "iter U 6.0 3 30 80", "iter T 6.0 3 30 80", "attempt 6 0",
            "count workload.chunks_total 8", "count sim.events 300",
            "count engine.flows 3",
            "span 1 workload.generate_dataset_streaming 0 0 6000000000",
            "span 1 workload.run_flow 1 0 1000000000",
            "span 1 workload.run_flow 1 1000000000 3000000000",
            "span 1 workload.run_flow 2 0 5000000000",
        ])
        layers = metrics.per_layer("campaign", metrics.parse_report(text), {"threads": 4})
        self.assertAlmostEqual(layers["workload.sim_busy_share"], 8.0 / 24.0)
        self.assertAlmostEqual(layers["workload.worker_finish_spread_s"], 2.0)
        self.assertAlmostEqual(layers["workload.post_sim_tail_s"], 1.0)
        self.assertAlmostEqual(layers["workload.chunks_per_worker"], 2.0)
        self.assertAlmostEqual(layers["sim.events_per_s"], 300.0 / 8.0)
        self.assertEqual(layers["workload.run_flow_ms.n"], 3)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         metrics.PER_LAYER)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        setup_bound = [m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup_bound, max(m["bound"] for m in bench["end_to_end"]))


class BuiltBenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise unittest.SkipTest("perfbench build failed")
        cls.work = run.ROOT / ".bench_build" / "test"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def hsrbench(self, *args):
        out = subprocess.run([str(self.binary), *map(str, args)], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        return metrics.parse_report(out)

    def test_table1_apportionment_matches_corpus_campaign(self):
        tool = self.binary.parent / "corpus_campaign" / "corpus_campaign"
        for flows in (1, 7, 8, 40):
            with self.subTest(flows=flows):
                work = self.work / f"shape{flows}"
                subprocess.run([str(tool), "--flows", str(flows), "--duration", "3",
                                "--threads", "2", "--seed", "11",
                                "--out", str(work / "tool.hsrb"),
                                "--stats-out", str(work / "tool.stats"),
                                "--work-dir", str(work / "tool.work")],
                               stdout=subprocess.DEVNULL, check=True)
                rep = self.hsrbench("scan_setup", "--work", work, "--seed", 11,
                                    "--flows", flows, "--duration", 3, "--threads", 2)
                self.assertEqual(rep["errors"], [])
                self.assertEqual((work / "scan_corpus.hsrb").read_bytes(),
                                 (work / "tool.hsrb").read_bytes())
                self.assertEqual((work / "scan_corpus.stats").read_text(),
                                 (work / "tool.stats").read_text())

    def test_tiny_traced_runs_pass_their_checks(self):
        common = ["--seed", 5, "--seconds", 0.2, "--trace", 1]
        work = self.work / "tiny"
        runs = {
            "campaign": self.hsrbench("campaign", "--work", work, *common, "--flows", 300,
                                      "--duration", 5, "--threads", 2),
            "shared_cell": self.hsrbench("shared_cell", "--work", work, *common, "--flows", 8,
                                         "--duration", 10),
        }
        setup = self.hsrbench("scan_setup", "--work", work, *common, "--flows", 40,
                              "--duration", 5, "--threads", 2)
        scan = self.hsrbench("corpus_scan", "--work", work, *common, "--flows", 40,
                             "--duration", 5)
        runs["corpus_scan"] = metrics.merge_setup(setup, scan)
        params = {"campaign": {"threads": 2}, "corpus_scan": {}, "shared_cell": {}}
        for workload, rep in runs.items():
            with self.subTest(workload=workload):
                self.assertEqual(rep["errors"], [])
                self.assertEqual(rep["failed"], 0)
                self.assertGreater(rep["attempted"], 0)
                self.assertTrue(any(it["traced"] for it in rep["iters"]))
                self.assertTrue(all(it["peak_rss_mb"] > 0 for it in rep["iters"]))
                self.assertGreaterEqual(len(rep["setup"]), 3)
                layers = metrics.per_layer(workload, rep, params[workload])
                self.assertGreater(layers["analysis.analyze_flow_ms.n"]
                                   + layers["workload.run_multi_flow_s.n"], 0)
        campaign = metrics.per_layer("campaign", runs["campaign"], {"threads": 2})
        self.assertEqual(campaign["workload.chunks_per_worker"], 1.0)  # 2 chunks, 2 workers
        self.assertEqual(campaign["trace.chunk_commit_ms.n"], 2)
        self.assertEqual(campaign["workload.manifest_save_ms.n"], 3)
        self.assertGreater(campaign["trace.merge_mb_per_s"], 0)


if __name__ == "__main__":
    unittest.main()
