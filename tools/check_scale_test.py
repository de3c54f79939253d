#!/usr/bin/env python3
"""Every bound in check_scale.py holds where it says and fails one step past.

For each grid a small passing document is built. For each bound, the test
sets one value just inside the bound (check_scale.py must pass) and then one
step past it (check_scale.py must exit non-zero and name the bound).

    python3 tools/check_scale_test.py
"""

import copy
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "check_scale.py")
sys.path.insert(0, HERE)
import check_scale  # noqa: E402

MB = 1024 * 1024


def up(x):
    return math.nextafter(x, math.inf)


def down(x):
    return math.nextafter(x, -math.inf)


def row(label, topology, workers, **fields):
    r = {"label": label, "protocol": "DCTCP", "topology": topology,
         "load": 0.6, "num_flows": 1000, "seed": 1, "afct_s": 1.5e-4,
         "fct_p99_s": 5.5e-4, "app_throughput": 1, "loss_rate": 0,
         "unfinished": 0, "flows": 1002, "fabric_drops": 0,
         "data_packets_sent": 100000, "probes_sent": 0,
         "control_messages_sent": 0, "end_time_s": 0.25,
         "workers_used": workers, "parallel_fallback_reason": "",
         "metrics": {}, "hosts": 32, "workers": workers, "wall_s": 1.0,
         "setup_s": 0.01, "loop_s": 0.99, "peak_rss_bytes": 10 * MB,
         "barrier_wait_s": 0.0}
    r.update(fields)
    return r


def doc(name, rows):
    return {"name": name, "scenarios": rows}


def partitioned(domains, rounds=1000, drains=400):
    return {"parallel.domains": domains, "parallel.rounds": rounds,
            "parallel.drains": drains, "parallel.quiet_rounds": 7,
            "parallel.cross_posts": 5000,
            "parallel.max_domain_event_share": 1.0 / domains}


def hotpath_doc():
    return doc("hotpath", [
        row(f"dctcp/{t}/w4", t.replace("-", "_"), 4)
        for t in ("single-rack", "three-tier")])


# num_flows, flows, peak live, slab grows, peak RSS (MB) at 1 worker
CAPACITY = [(1000, 1002, 1002, 8, 8), (10000, 10002, 10002, 80, 20),
            (100000, 100002, 11343, 90, 28)]


def capacity_doc():
    rows = []
    for n, flows, live, grows, rss in CAPACITY:
        for w in (1, 2):
            rows.append(row(
                f"dctcp/{n}-flows/w{w}", "single_rack", w, num_flows=n,
                flows=flows, peak_rss_bytes=rss * MB,
                metrics={"endpoint.peak_live_flows": live,
                         "endpoint.slab_grow_events": grows,
                         **(partitioned(w) if w > 1 else {})}))
    return doc("capacity", rows)


def cap(d, n, w):
    return next(r for r in d["scenarios"]
                if r["num_flows"] == n and r["workers"] == w)


# k, route bytes per switch, loop seconds at 1 worker and at 4
FATTREE = [(4, 378.0, 0.5, 0.2), (8, 906.0, 5.0, 1.5), (16, 3306.0, 100.0, 20.0)]


def fattree_rows(workers=(1, 4), metrics=None):
    rows = []
    for k, bps, loop1, loop4 in FATTREE:
        for w in workers:
            switches = 5 * k * k // 4
            m = {"fabric.switches": switches, "fabric.core_links": k ** 3 // 2,
                 "fabric.route_table_bytes": bps * switches,
                 "fabric.core_link_imbalance": 1.663}
            if w > 1:
                m.update(partitioned(k))
                m["parallel.max_domain_event_share"] = 0.26
            m.update(metrics(k) if metrics else {})
            loop = loop1 if w == 1 else loop4
            rows.append(row(f"dctcp/k{k}/w{w}", "fat_tree", w, k=k,
                            hosts=k ** 3 // 4, metrics=m, loop_s=loop,
                            wall_s=loop + 0.01, peak_rss_bytes=(k + 4) * MB))
    return rows


def fattree_doc():
    return doc("fattree", fattree_rows())


def profile_metrics(k):
    return {"profile.engine.dispatch.raw": 1_400_000,
            "profile.engine.scan_mean": 1.5, "profile.engine.scan_max": 40,
            "profile.engine.peak_pending": 3000,
            "profile.switch.path_cache_hit_rate": 0.9937,
            "telemetry.samples": 250}


def profiled_doc():
    return doc("fattree", fattree_rows(workers=(1,), metrics=profile_metrics))


def ft(d, k, w):
    return next(r for r in d["scenarios"] if r["k"] == k and r["workers"] == w)


def parallel_doc():
    rows = []
    for topo, k in (("three_tier", None), ("fat_tree", 8)):
        for proto in ("PASE", "DCTCP"):
            for w in (1, 2, 4):
                extra = {"k": k} if k else {}
                m = partitioned(k if k else w) if w > 1 else {}
                rows.append(row(f"{proto.lower()}/{topo}/w{w}", topo, w,
                                protocol=proto, metrics=m, **extra))
    return doc("parallel", rows)


def par(d, topo, proto, w):
    return next(r for r in d["scenarios"] if r["topology"] == topo and
                r["protocol"] == proto and r["workers"] == w)


def trace_lines(events):
    head = {"schema": "pase-trace", "version": 1}
    return [head] + [{"t": 1e-3 * i, "type": "engine.round", **e}
                     for i, e in enumerate(events)]


def trace_events():
    return [{"rounds": 10, "posts": 3, "horizon": 2.5e-5, "drains": 4},
            {"rounds": 20, "posts": 0, "horizon": 2.5e-5, "drains": 9}]


def set_metric(r, name, v):
    r["metrics"][name] = v


# Each case: (bound named in the failure, document builder, setter taking the
# document and a value, a value inside the bound, a value one step past it).
CASES = [
    ("hotpath: rows > 0", hotpath_doc,
     lambda d, v: d.__setitem__("scenarios", d["scenarios"][:v]), 2, 0),
    ("hotpath: workers_used > 1", hotpath_doc,
     lambda d, v: d["scenarios"][1].__setitem__("workers_used", v), 2, 1),
    ("hotpath: data_packets_sent > 0", hotpath_doc,
     lambda d, v: d["scenarios"][0].__setitem__("data_packets_sent", v), 1, 0),
    ("hotpath: wall_s > 0", hotpath_doc,
     lambda d, v: d["scenarios"][0].__setitem__("wall_s", v), 1e-9, 0.0),

    ("capacity: rows at 1 worker and at more", capacity_doc,
     lambda d, v: d.__setitem__("scenarios", [r for r in d["scenarios"]
                                              if r["workers"] <= v]), 2, 1),
    ("capacity: flows == 1002, 10002, 100002 (, 1000002)", capacity_doc,
     lambda d, v: cap(d, 1000, 2).__setitem__("flows", v), 1002, 1003),
    ("capacity: unfinished == 0", capacity_doc,
     lambda d, v: cap(d, 10000, 1).__setitem__("unfinished", v), 0, 1),
    ("capacity: 0 < afct_s < fct_p99_s", capacity_doc,
     lambda d, v: [cap(d, 10000, w).__setitem__("afct_s", v) for w in (1, 2)],
     5.4e-4, 5.5e-4),
    ("capacity: peak_rss_bytes < 256 MB", capacity_doc,
     lambda d, v: cap(d, 1000, 2).__setitem__("peak_rss_bytes", v),
     256 * MB - 1, 256 * MB),
    ("capacity: 10^5 peak live < flows/2", capacity_doc,
     lambda d, v: set_metric(cap(d, 100000, 1), "endpoint.peak_live_flows", v),
     50000, 50001),
    ("capacity: 10^5 slab grows <= 2x 10^4", capacity_doc,
     lambda d, v: set_metric(cap(d, 100000, 1), "endpoint.slab_grow_events",
                             v), 160, 161),
    ("capacity: RSS(10^5)/RSS(10^4) <= 1.7", capacity_doc,
     lambda d, v: [cap(d, 100000, w).__setitem__("peak_rss_bytes", v)
                   for w in (1, 2)], 34 * MB, 34 * MB + 1),
    ("capacity: workers_used == workers", capacity_doc,
     lambda d, v: cap(d, 1000, 2).__setitem__("workers_used", v), 2, 1),
    ("capacity: data_packets_sent equal to 1 worker", capacity_doc,
     lambda d, v: cap(d, 10000, 2).__setitem__("data_packets_sent", v),
     100000, 100001),
    ("capacity: afct_s equal to 1 worker", capacity_doc,
     lambda d, v: cap(d, 10000, 2).__setitem__("afct_s", v),
     1.5e-4, up(1.5e-4)),
    ("capacity: fct_p99_s equal to 1 worker", capacity_doc,
     lambda d, v: cap(d, 100000, 2).__setitem__("fct_p99_s", v),
     5.5e-4, up(5.5e-4)),
    ("capacity: end_time_s equal to 1 worker", capacity_doc,
     lambda d, v: cap(d, 1000, 2).__setitem__("end_time_s", v),
     0.25, up(0.25)),
    ("capacity: 10^5 RSS vs 1 worker <= 1.5x", capacity_doc,
     lambda d, v: [cap(d, n, 2).__setitem__("peak_rss_bytes", v)
                   for n in (10000, 100000)], 42 * MB, 42 * MB + 1),

    ("fattree: rows at k = 4, 8, 16 and workers 1 and 4", fattree_doc,
     lambda d, v: d.__setitem__("scenarios", [r for r in d["scenarios"]
                                              if r["k"] <= v]), 16, 8),
    ("fattree: switches == 5k^2/4", fattree_doc,
     lambda d, v: set_metric(ft(d, 8, 4), "fabric.switches", v), 80, 81),
    ("fattree: hosts == k^3/4", fattree_doc,
     lambda d, v: ft(d, 16, 1).__setitem__("hosts", v), 1024, 1023),
    ("fattree: core links == k^3/2", fattree_doc,
     lambda d, v: set_metric(ft(d, 4, 1), "fabric.core_links", v), 32, 33),
    ("fattree: data_packets_sent > 0", fattree_doc,
     lambda d, v: [ft(d, 4, w).__setitem__("data_packets_sent", v)
                   for w in (1, 4)], 1, 0),
    ("fattree: peak_rss_bytes < 256 MB (k <= 16)", fattree_doc,
     lambda d, v: [ft(d, 16, w).__setitem__("peak_rss_bytes", v)
                   for w in (1, 4)], 256 * MB - 1, 256 * MB),
    ("fattree: k=4 core-link imbalance <= 2.0", fattree_doc,
     lambda d, v: set_metric(ft(d, 4, 4), "fabric.core_link_imbalance", v),
     2.0, up(2.0)),
    ("fattree: k=16/k=4 route bytes per switch <= host growth / 2",
     fattree_doc,
     lambda d, v: [set_metric(ft(d, 16, w), "fabric.route_table_bytes", v)
                   for w in (1, 4)], 32 * 378 * 320, 32 * 378 * 320 + 1),
    ("fattree: k=16 setup_s < 1.0", fattree_doc,
     lambda d, v: ft(d, 16, 4).__setitem__("setup_s", v), 0.999, 1.0),
    ("fattree: workers_used == workers", fattree_doc,
     lambda d, v: ft(d, 8, 4).__setitem__("workers_used", v), 4, 3),
    ("fattree: domains == k", fattree_doc,
     lambda d, v: set_metric(ft(d, 16, 4), "parallel.domains", v), 16, 15),
    ("fattree: largest domain share x workers <= 1.15", fattree_doc,
     lambda d, v: set_metric(ft(d, 8, 4), "parallel.max_domain_event_share",
                             v), 0.2875, up(0.2875)),
    ("fattree: data_packets_sent equal to 1 worker", fattree_doc,
     lambda d, v: ft(d, 16, 4).__setitem__("data_packets_sent", v),
     100000, 99999),
    ("fattree: afct_s equal to 1 worker", fattree_doc,
     lambda d, v: ft(d, 4, 4).__setitem__("afct_s", v),
     1.5e-4, up(1.5e-4)),
    ("fattree: fct_p99_s equal to 1 worker", fattree_doc,
     lambda d, v: ft(d, 8, 4).__setitem__("fct_p99_s", v),
     5.5e-4, up(5.5e-4)),
    ("fattree: end_time_s equal to 1 worker", fattree_doc,
     lambda d, v: ft(d, 16, 4).__setitem__("end_time_s", v),
     0.25, up(0.25)),
    ("fattree: RSS vs 1 worker <= 1.3x", fattree_doc,
     lambda d, v: ft(d, 4, 4).__setitem__("peak_rss_bytes", v),
     int(10.4 * MB), int(10.4 * MB) + 1),

    ("parallel: workers_used > 1 at > 1 worker", parallel_doc,
     lambda d, v: par(d, "three_tier", "PASE", 2).__setitem__(
         "workers_used", v), 2, 1),
    ("parallel: no fallback", parallel_doc,
     lambda d, v: par(d, "fat_tree", "PASE", 4).__setitem__(
         "parallel_fallback_reason", v), "", "single domain"),
    ("parallel: rounds > 0", parallel_doc,
     lambda d, v: set_metric(par(d, "three_tier", "DCTCP", 4),
                             "parallel.rounds", v), 1, 0),
    ("parallel: drains > 0", parallel_doc,
     lambda d, v: set_metric(par(d, "three_tier", "DCTCP", 2),
                             "parallel.drains", v), 1, 0),
    ("parallel: domains == pods on a fat-tree, else workers", parallel_doc,
     lambda d, v: [set_metric(par(d, "fat_tree", "DCTCP", w),
                              "parallel.domains", v) for w in (2, 4)], 8, 4),
    ("parallel: workers_used == 1 at 1 worker", parallel_doc,
     lambda d, v: par(d, "fat_tree", "PASE", 1).__setitem__("workers_used", v),
     1, 2),
    ("parallel: rounds == 0 at 1 worker", parallel_doc,
     lambda d, v: set_metric(par(d, "three_tier", "PASE", 1),
                             "parallel.rounds", v), 0, 1),
    ("parallel: data_packets_sent equal to 1 worker", parallel_doc,
     lambda d, v: par(d, "three_tier", "PASE", 4).__setitem__(
         "data_packets_sent", v), 100000, 100001),
    ("parallel: afct_s equal to 1 worker", parallel_doc,
     lambda d, v: par(d, "fat_tree", "DCTCP", 2).__setitem__("afct_s", v),
     1.5e-4, up(1.5e-4)),
    ("parallel: fct_p99_s equal to 1 worker", parallel_doc,
     lambda d, v: par(d, "fat_tree", "PASE", 4).__setitem__("fct_p99_s", v),
     5.5e-4, up(5.5e-4)),
    ("parallel: end_time_s equal to 1 worker", parallel_doc,
     lambda d, v: par(d, "three_tier", "DCTCP", 2).__setitem__(
         "end_time_s", v), 0.25, up(0.25)),
    ("parallel: fat-tree rows at 2 and 4 workers", parallel_doc,
     lambda d, v: d.__setitem__("scenarios", [
         r for r in d["scenarios"] if r["topology"] != "fat_tree" or
         r["workers"] != 2 or r["protocol"] != v]), "none", "PASE"),
] + [
    (f"parallel: fat-tree {key} equal at every worker count > 1", parallel_doc,
     (lambda key: lambda d, v: set_metric(
         par(d, "fat_tree", "DCTCP", 4), "parallel." + key, v))(key),
     value, value + 1)
    for key, value in (("rounds", 1000), ("drains", 400), ("quiet_rounds", 7),
                       ("cross_posts", 5000))
]

PROFILE_CASES = [
    ("fattree-profile: k=16 row at 1 worker",
     lambda d, v: d.__setitem__("scenarios", [r for r in d["scenarios"]
                                              if r["k"] <= v]), 16, 8),
    ("fattree-profile: profile and telemetry metrics present",
     lambda d, v: [ft(d, 8, 1)["metrics"].pop("profile.engine.scan_max")
                   for _ in range(v)], 0, 1),
    ("fattree-profile: dispatch.raw > 0",
     lambda d, v: set_metric(ft(d, 4, 1), "profile.engine.dispatch.raw", v),
     1, 0),
    ("fattree-profile: peak_pending > 0",
     lambda d, v: set_metric(ft(d, 4, 1), "profile.engine.peak_pending", v),
     1, 0),
    ("fattree-profile: 0 <= path-cache hit rate <= 1",
     lambda d, v: set_metric(ft(d, 8, 1), "profile.switch.path_cache_hit_rate",
                             v), 1.0, up(1.0)),
    ("fattree-profile: telemetry.samples > 0",
     lambda d, v: set_metric(ft(d, 8, 1), "telemetry.samples", v), 1, 0),
    ("fattree-profile: a plain row for every profiled row",
     lambda d, v: ft(d, 8, 1).__setitem__("workers", v), 1, 2),
    ("fattree-profile: data_packets_sent equal to the plain run",
     lambda d, v: ft(d, 8, 1).__setitem__("data_packets_sent", v),
     100000, 100001),
    ("fattree-profile: afct_s equal to the plain run",
     lambda d, v: ft(d, 4, 1).__setitem__("afct_s", v),
     1.5e-4, up(1.5e-4)),
    ("fattree-profile: fct_p99_s equal to the plain run",
     lambda d, v: ft(d, 16, 1).__setitem__("fct_p99_s", v),
     5.5e-4, up(5.5e-4)),
    ("fattree-profile: end_time_s equal to the plain run",
     lambda d, v: ft(d, 4, 1).__setitem__("end_time_s", v),
     0.25, up(0.25)),
    ("fattree-profile: k=16 dispatches per packet <= 15.0",
     lambda d, v: set_metric(ft(d, 16, 1), "profile.engine.dispatch.raw", v),
     1_500_000, 1_500_001),
    ("fattree-profile: k=16 path-cache hit rate >= 0.98",
     lambda d, v: set_metric(ft(d, 16, 1), "profile.switch.path_cache_hit_rate",
                             v), 0.98, down(0.98)),
    ("fattree-profile: k=16 pkts/s on / off >= 0.95",
     lambda d, v: ft(d, 16, 1).__setitem__("wall_s", v),
     100.01 / 0.95 * (1 - 1e-12), 100.01 / 0.95 * (1 + 1e-12)),
]

# Each case: (bound that reads the metric, document builder, the row to drop
# it from, the metric). Only a 1-worker row's parallel.rounds has a default.
MISSING_CASES = [
    ("capacity: 10^5 peak live < flows/2", capacity_doc,
     lambda d: cap(d, 100000, 1), "endpoint.peak_live_flows"),
    ("capacity: 10^5 slab grows <= 2x 10^4", capacity_doc,
     lambda d: cap(d, 10000, 2), "endpoint.slab_grow_events"),
    ("fattree: switches == 5k^2/4", fattree_doc,
     lambda d: ft(d, 8, 4), "fabric.switches"),
    ("fattree: core links == k^3/2", fattree_doc,
     lambda d: ft(d, 16, 1), "fabric.core_links"),
    ("fattree: k=4 core-link imbalance <= 2.0", fattree_doc,
     lambda d: ft(d, 4, 4), "fabric.core_link_imbalance"),
    ("fattree: k=16/k=4 route bytes per switch <= host growth / 2",
     fattree_doc, lambda d: ft(d, 4, 1), "fabric.route_table_bytes"),
    ("fattree: domains == k", fattree_doc,
     lambda d: ft(d, 8, 4), "parallel.domains"),
    ("fattree: largest domain share x workers <= 1.15", fattree_doc,
     lambda d: ft(d, 16, 4), "parallel.max_domain_event_share"),
    ("parallel: rounds > 0", parallel_doc,
     lambda d: par(d, "three_tier", "PASE", 2), "parallel.rounds"),
    ("parallel: drains > 0", parallel_doc,
     lambda d: par(d, "fat_tree", "DCTCP", 4), "parallel.drains"),
    ("parallel: domains == pods on a fat-tree, else workers", parallel_doc,
     lambda d: par(d, "fat_tree", "PASE", 4), "parallel.domains"),
    ("parallel: fat-tree cross_posts equal at every worker count > 1",
     parallel_doc, lambda d: par(d, "fat_tree", "DCTCP", 2),
     "parallel.cross_posts"),
]

TRACE_CASES = [
    ("trace: engine.round events > 0", lambda e, v: e[v:], 0, 2),
    ("trace: rounds >= drains",
     lambda e, v: e[0].__setitem__("drains", v) or e, 10, 11),
    ("trace: drains >= 0",
     lambda e, v: e[1].__setitem__("drains", v) or e, 0, -1),
    ("trace: horizon >= 0",
     lambda e, v: e[0].__setitem__("horizon", v) or e, 0.0, -1e-12),
]


class CheckScaleTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, obj):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            if isinstance(obj, list):
                f.write("".join(json.dumps(line) + "\n" for line in obj))
            else:
                json.dump(obj, f)
        return path

    def run_check(self, *args):
        return subprocess.run([sys.executable, SCRIPT, *args],
                              capture_output=True, text=True)

    def expect(self, bound, args, passes):
        p = self.run_check(*args)
        if passes:
            self.assertEqual(p.returncode, 0, f"{bound}: {p.stderr}")
        else:
            self.assertNotEqual(p.returncode, 0, f"{bound} did not fail")
            self.assertIn(f"FAIL {bound}:", p.stderr)

    def test_grid_bounds(self):
        for bound, build, setter, inside, past in CASES:
            for value, passes in ((inside, True), (past, False)):
                with self.subTest(bound=bound, value=value):
                    d = build()
                    setter(d, value)
                    self.expect(bound, [self.write("doc.json", d)], passes)

    @unittest.skipIf((os.cpu_count() or 1) < 4,
                     "the loop-ratio gate is only enforced on 4+ cores")
    def test_loop_ratio_bound(self):
        bound = "fattree: k=16 loop_s 1 worker / 4 workers >= 3.0"
        for value, passes in ((100.0 / 3.0, True), (up(100.0 / 3.0), False)):
            with self.subTest(value=value):
                d = fattree_doc()
                ft(d, 16, 4)["loop_s"] = value
                self.expect(bound, [self.write("doc.json", d)], passes)

    def test_profile_bounds(self):
        plain = self.write("plain.json", fattree_doc())
        for bound, setter, inside, past in PROFILE_CASES:
            for value, passes in ((inside, True), (past, False)):
                with self.subTest(bound=bound, value=value):
                    d = profiled_doc()
                    setter(d, value)
                    self.expect(bound, [self.write("doc.json", d),
                                        "--plain", plain], passes)

    def test_missing_metric_fails_its_bound(self):
        for bound, build, where, name in MISSING_CASES:
            with self.subTest(bound=bound, metric=name):
                d = build()
                del where(d)["metrics"][name]
                self.expect(bound, [self.write("doc.json", d)], False)

    def test_trace_bounds(self):
        for bound, setter, inside, past in TRACE_CASES:
            for value, passes in ((inside, True), (past, False)):
                with self.subTest(bound=bound, value=value):
                    events = setter(copy.deepcopy(trace_events()), value)
                    path = self.write("trace.jsonl", trace_lines(events))
                    self.expect(bound, ["--trace", path], passes)

    def test_every_bound_is_tested(self):
        tested = {c[0] for c in CASES + PROFILE_CASES + TRACE_CASES}
        tested.add("fattree: k=16 loop_s 1 worker / 4 workers >= 3.0")
        g = check_scale.Gates()
        check_scale.check_hotpath(hotpath_doc()["scenarios"], g)
        check_scale.check_capacity(capacity_doc()["scenarios"], g)
        check_scale.check_fattree(fattree_doc()["scenarios"], g)
        check_scale.check_parallel(parallel_doc()["scenarios"], g)
        check_scale.check_fattree_profiled(profiled_doc()["scenarios"],
                                           fattree_doc()["scenarios"], g)
        trace = self.write("trace.jsonl", trace_lines(trace_events()))
        check_scale.check_trace(trace, g)
        self.assertEqual(g.failures, [])
        untested = set(g.values) - tested
        if (os.cpu_count() or 1) < 4:
            untested.discard("fattree: k=16 loop_s 1 worker / 4 workers >= 3.0")
        self.assertEqual(untested, set())


if __name__ == "__main__":
    unittest.main()
