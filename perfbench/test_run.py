#!/usr/bin/env python3
"""Tests for perfbench/run.py and the runner, on shortened workloads.

    python3 perfbench/test_run.py

Builds the runner the same way run.py does (into .bench_build, or
$CARGO_TARGET_DIR), then checks metric names against BENCHMARK.json, the
1-vs-4-worker fingerprint identity, the failure accounting and which layers
report non-zero counters on which workload.
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SMALL = {
    "fattree_dctcp": 300,
    "fattree_dctcp_w4": 300,
    "threetier_pase": 300,
    "flow_churn": 3000,
}


def small(workload):
    return ["--flows", str(SMALL[workload])]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("benchmark runner failed to build")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.traced = {}
        for w in run.WORKLOADS:
            tally, out = run.run_workload(cls.binary, w, 3, 0, True, small(w))
            cls.traced[w] = (tally, out)

    def test_spec_matches_run_py(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.PER_LAYER)

    def test_every_name_is_well_formed(self):
        names = list(run.WORKLOADS) + list(run.END_TO_END) + list(run.PER_LAYER)
        for section in ("workloads", "end_to_end", "per_layer"):
            names += [e["name"] for e in self.spec[section]]
        for name in names:
            self.assertRegex(name, NAME)

    def test_untraced_run_emits_end_to_end_metrics(self):
        tally, out = run.run_workload(self.binary, "fattree_dctcp_w4", 3, 0,
                                      False, small("fattree_dctcp_w4"))
        self.assertEqual(tally.failed, 0)
        self.assertGreaterEqual(tally.attempted, run.MIN_RUNS + 1)
        self.assertEqual(set(out), set(run.END_TO_END))
        for name, m in out.items():
            self.assertRegex(name, NAME)
            self.assertGreater(m["value"], 0.0, name)
            self.assertEqual(m["unit"], run.END_TO_END[name])

    def test_traced_run_emits_every_per_layer_metric(self):
        for w, (tally, out) in self.traced.items():
            self.assertEqual(tally.failed, 0, w)
            self.assertEqual(set(out), set(run.PER_LAYER), w)
            for name, m in out.items():
                self.assertRegex(name, NAME)
                self.assertEqual(m["unit"], run.PER_LAYER[name])

    def test_layers_report_only_where_they_work(self):
        def value(w, name):
            return self.traced[w][1][name]["value"]

        for w in run.WORKLOADS:
            parallel = w == "fattree_dctcp_w4"
            for name in ("sim.parallel.rounds", "sim.parallel.cross_posts",
                         "sim.parallel.speedup", "sim.parallel.rss_ratio"):
                self.assertEqual(value(w, name) != 0, parallel, (w, name))
            for name in ("core.ctrl_msgs", "core.arbitrations"):
                self.assertEqual(value(w, name) != 0, w == "threetier_pase",
                                 (w, name))
            fattree = w.startswith("fattree")
            for name in ("net.path_cache_hit_rate", "net.path_cache_misses"):
                self.assertEqual(value(w, name) != 0, fattree, (w, name))
            self.assertGreater(value(w, "sim.events"), 0, w)
            self.assertGreater(value(w, "topo.build_s"), 0, w)

    def test_fingerprint_is_identical_at_one_and_four_workers(self):
        shortened = ["--flows", "400"]
        seq = run.run_once(self.binary, "fattree_dctcp", 5, extra=shortened)
        par = run.run_once(self.binary, "fattree_dctcp_w4", 5, extra=shortened)
        self.assertEqual(seq["workers_used"], 1)
        self.assertEqual(par["workers_used"], 4)
        self.assertEqual(par["parallel_fallback_reason"], "")
        self.assertEqual(seq["fingerprint_text"], par["fingerprint_text"])
        self.assertEqual(seq["fingerprint"], par["fingerprint"])

    def test_unfinished_run_counts_as_failed(self):
        extra = small("flow_churn") + ["--max-duration", "0.0005"]
        tally = run.Tally(self.binary, 3, extra)
        self.assertIsNone(tally.run("flow_churn"))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        tally, out = run.run_workload(self.binary, "flow_churn", 3, 0, False,
                                      extra)
        self.assertIsNone(out)
        self.assertEqual(tally.failed, tally.attempted)

    def test_fingerprint_mismatch_counts_as_failed(self):
        tally = run.Tally(self.binary, 3, small("flow_churn"))
        tally.fingerprints["flow_churn"] = "not-a-fingerprint"
        self.assertIsNone(tally.run("flow_churn"))
        self.assertEqual(tally.failed, 1)


if __name__ == "__main__":
    unittest.main()
