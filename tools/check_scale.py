#!/usr/bin/env python3
"""Gates for the scale bench's output (bench/scale.cpp).

Usage:
  check_scale.py BENCH_<grid>.json                 the gates of that grid
  check_scale.py BENCH_fattree.json --plain PLAIN  the --profile --telemetry
                                                   gates, against the rows of
                                                   a plain run from the same
                                                   job
  check_scale.py --trace TRACE.jsonl               engine.round gates of a
                                                   partitioned traced run

A row is the scenario record the figure benches write, plus the cell's grid
coordinates (hosts; k on a fat-tree; workers requested) and a host block
(wall_s, setup_s, loop_s, peak_rss_bytes, barrier_wait_s). One-domain rows
carry no parallel.* metrics, so a 1-worker row reads as zero rounds; any other
metric a gate reads must be present, or that gate fails.

Prints every gate with the values it read. Exits 1 if any gate fails; each
failure line names its bound.
"""

import argparse
import json
import os
import sys

MB = 1024 * 1024
# Simulated output that must not depend on the worker count, compared
# exactly: the documents print doubles shortest round-trip.
SAME = ("data_packets_sent", "afct_s", "fct_p99_s", "end_time_s")


class Gates:
    def __init__(self):
        self.values = {}  # bound -> [(value, where)]
        self.failures = []

    def check(self, bound, ok, value, where=""):
        self.values.setdefault(bound, []).append((value, where))
        if not ok:
            self.failures.append(f"FAIL {bound}: {fmt(value)} {where}".rstrip())

    def report(self):
        for bound, seen in self.values.items():
            shown = ", ".join(f"{fmt(v)}{' ' + w if w else ''}"
                              for v, w in seen[:6])
            more = f", ... ({len(seen)} checks)" if len(seen) > 6 else ""
            print(f"{bound}: {shown}{more}")
        for line in self.failures:
            print(line, file=sys.stderr)
        return 1 if self.failures else 0


def fmt(v):
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.4g}"
    return str(int(v)) if isinstance(v, float) else str(v)


class Missing(Exception):
    """A metric that a gate reads is absent from a row."""


def metric(row, name, bound, default=None):
    """The row's metric `name`. If it is absent, `bound` fails unless a
    default is given."""
    if name in row["metrics"]:
        return row["metrics"][name]
    if default is None:
        raise Missing(f"FAIL {bound}: no {name} in {row['label']}")
    return default


def pkts_per_s(row):
    return row["data_packets_sent"] / row["wall_s"] if row["wall_s"] > 0 else 0


def same_output(g, bound, row, base):
    for key in SAME:
        g.check(f"{bound}: {key} equal to 1 worker", row[key] == base[key],
                row[key], row["label"])


def check_hotpath(rows, g):
    g.check("hotpath: rows > 0", len(rows) > 0, len(rows))
    for r in rows:
        # Every profile, PASE's sharded arbitration plane included, must
        # partition.
        g.check("hotpath: workers_used > 1", r["workers_used"] > 1,
                r["workers_used"], r["label"])
        g.check("hotpath: data_packets_sent > 0", r["data_packets_sent"] > 0,
                r["data_packets_sent"], r["label"])
        g.check("hotpath: wall_s > 0", r["wall_s"] > 0, r["wall_s"],
                r["label"])


def check_capacity(rows, g):
    by_w = {}
    for r in rows:
        by_w.setdefault(r["workers"], []).append(r)
    g.check("capacity: rows at 1 worker and at more",
            1 in by_w and len(by_w) > 1, sorted(by_w))
    if 1 not in by_w:
        return
    for w, rs in sorted(by_w.items()):
        flows = [r["flows"] for r in rs]
        g.check("capacity: flows == 1002, 10002, 100002 (, 1000002)",
                flows in ([1002, 10002, 100002],
                          [1002, 10002, 100002, 1000002]),
                flows, f"w{w}")
    for r in rows:
        g.check("capacity: unfinished == 0", r["unfinished"] == 0,
                r["unfinished"], r["label"])
        g.check("capacity: 0 < afct_s < fct_p99_s",
                0 < r["afct_s"] < r["fct_p99_s"],
                f"{r['afct_s']!r} vs {r['fct_p99_s']!r}", r["label"])
        # Memory tracks concurrency, not flow count: a regression to
        # per-flow state blows through this.
        g.check("capacity: peak_rss_bytes < 256 MB",
                r["peak_rss_bytes"] < 256 * MB,
                round(r["peak_rss_bytes"] / MB, 1), r["label"])
    seq = {r["num_flows"]: r for r in by_w[1]}
    for w, rs in sorted(by_w.items()):
        at = {r["num_flows"]: r for r in rs}
        if 10000 not in at or 100000 not in at:
            continue
        s4, s5 = at[10000], at[100000]
        # Recycling shows once the run outlives the retire quarantine: the
        # 10^5 row reclaims slots (peak live plateaus near 10^4) and mostly
        # reuses the 10^4 row's slabs.
        bound = "capacity: 10^5 peak live < flows/2"
        live = metric(s5, "endpoint.peak_live_flows", bound)
        g.check(bound, live < s5["flows"] // 2, live, f"w{w}")
        bound = "capacity: 10^5 slab grows <= 2x 10^4"
        grows4 = metric(s4, "endpoint.slab_grow_events", bound)
        grows5 = metric(s5, "endpoint.slab_grow_events", bound)
        g.check(bound, grows5 <= 2 * grows4,
                f"{fmt(grows5)} vs {fmt(grows4)}", f"w{w}")
        # Ten times the flows at the same concurrency may add the descriptor
        # table and the longer calendar, not per-flow state. Host demux
        # tables indexed by flow id put it at 1.98x.
        growth = s5["peak_rss_bytes"] / s4["peak_rss_bytes"]
        g.check("capacity: RSS(10^5)/RSS(10^4) <= 1.7", growth <= 1.7, growth,
                f"w{w}")
        if w == 1:
            continue
        for r in rs:
            g.check("capacity: workers_used == workers",
                    r["workers_used"] == w, r["workers_used"], r["label"])
            base = seq.get(r["num_flows"])
            if base is not None:
                same_output(g, "capacity", r, base)
        # Each domain keeps one pending launch, so a partitioned rack's
        # memory tracks its hosts, not its flows; calendars reserved per flow
        # read 1.84x here.
        if 100000 in seq:
            ratio = s5["peak_rss_bytes"] / seq[100000]["peak_rss_bytes"]
            g.check("capacity: 10^5 RSS vs 1 worker <= 1.5x", ratio <= 1.5,
                    ratio, s5["label"])


def fattree_index(rows):
    return {(r["k"], r["workers"]): r for r in rows}


def route_bytes_per_switch(r, bound):
    return (metric(r, "fabric.route_table_bytes", bound) /
            metric(r, "fabric.switches", bound))


def check_fattree(rows, g):
    idx = fattree_index(rows)
    need = [(k, w) for k in (4, 8, 16) for w in (1, 4)]
    g.check("fattree: rows at k = 4, 8, 16 and workers 1 and 4",
            all(c in idx for c in need), sorted(idx))
    if not all(c in idx for c in need):
        return
    for r in rows:
        k = r["k"]
        # 5k^2/4 switches, k^3/4 hosts, k^3/2 directed core links.
        bound = "fattree: switches == 5k^2/4"
        switches = metric(r, "fabric.switches", bound)
        g.check(bound, switches == 5 * k * k // 4, switches, r["label"])
        g.check("fattree: hosts == k^3/4", r["hosts"] == k ** 3 // 4,
                r["hosts"], r["label"])
        bound = "fattree: core links == k^3/2"
        core = metric(r, "fabric.core_links", bound)
        g.check(bound, core == k ** 3 // 2, core, r["label"])
        g.check("fattree: data_packets_sent > 0", r["data_packets_sent"] > 0,
                r["data_packets_sent"], r["label"])
        if k <= 16:
            g.check("fattree: peak_rss_bytes < 256 MB (k <= 16)",
                    r["peak_rss_bytes"] < 256 * MB,
                    round(r["peak_rss_bytes"] / MB, 1), r["label"])
    # Hash quality at k=4: 2000 flows over 32 core links; a structured hash or
    # first-port routing concentrates bytes. Larger k has too few flows per
    # link to gate.
    bound = "fattree: k=4 core-link imbalance <= 2.0"
    for w in (1, 4):
        imb = metric(idx[(4, w)], "fabric.core_link_imbalance", bound)
        g.check(bound, imb <= 2.0, imb, f"w{w}")
    # Per-switch route state is O(pod): k=4 -> 16 multiplies hosts by 64, and
    # per-destination tables would grow per-switch bytes by as much.
    bound = "fattree: k=16/k=4 route bytes per switch <= host growth / 2"
    s4, s16 = idx[(4, 1)], idx[(16, 1)]
    growth = (route_bytes_per_switch(s16, bound) /
              route_bytes_per_switch(s4, bound))
    host_growth = s16["hosts"] / s4["hosts"]
    g.check(bound, growth <= host_growth / 2, growth)
    # Structural synthesis keeps setup O(V+E).
    for w in (1, 4):
        setup = idx[(16, w)]["setup_s"]
        g.check("fattree: k=16 setup_s < 1.0", setup < 1.0, setup, f"w{w}")
    for (k, w), p in sorted(idx.items()):
        if w == 1 or (k, 1) not in idx:
            continue
        s = idx[(k, 1)]
        g.check("fattree: workers_used == workers", p["workers_used"] == w,
                p["workers_used"], p["label"])
        bound = "fattree: domains == k"
        domains = metric(p, "parallel.domains", bound)
        g.check(bound, domains == k, domains, p["label"])
        # The largest domain holds at most 1.15x one worker's even share of
        # the events (every core in one domain read 1.47x at k=16).
        bound = "fattree: largest domain share x workers <= 1.15"
        imb = (metric(p, "parallel.max_domain_event_share", bound) *
               p["workers_used"])
        g.check(bound, imb <= 1.15, imb, p["label"])
        same_output(g, "fattree", p, s)
        ratio = p["peak_rss_bytes"] / s["peak_rss_bytes"]
        g.check("fattree: RSS vs 1 worker <= 1.3x", ratio <= 1.3, ratio,
                p["label"])
    # Same-job wall-clock ratio: both runs share one machine. Fewer than 4
    # cores cannot reach it, so there it is only printed.
    speedup = idx[(16, 1)]["loop_s"] / idx[(16, 4)]["loop_s"]
    cores = os.cpu_count() or 1
    if cores >= 4:
        g.check("fattree: k=16 loop_s 1 worker / 4 workers >= 3.0",
                speedup >= 3.0, speedup)
    else:
        print(f"{cores} cores: k=16 loop ratio {speedup:.2f}x not gated")


def check_fattree_profiled(rows, plain_rows, g):
    plain = fattree_index(plain_rows)
    idx = fattree_index(rows)
    g.check("fattree-profile: k=16 row at 1 worker", (16, 1) in idx,
            sorted(idx))
    for r in rows:
        for key in ("profile.engine.dispatch.raw", "profile.engine.scan_mean",
                    "profile.engine.scan_max", "profile.engine.peak_pending",
                    "profile.switch.path_cache_hit_rate", "telemetry.samples"):
            g.check("fattree-profile: profile and telemetry metrics present",
                    key in r["metrics"], key, r["label"])
        for bound, key, ok in (
                ("fattree-profile: dispatch.raw > 0",
                 "profile.engine.dispatch.raw", lambda v: v > 0),
                ("fattree-profile: peak_pending > 0",
                 "profile.engine.peak_pending", lambda v: v > 0),
                ("fattree-profile: 0 <= path-cache hit rate <= 1",
                 "profile.switch.path_cache_hit_rate", lambda v: 0 <= v <= 1),
                ("fattree-profile: telemetry.samples > 0",
                 "telemetry.samples", lambda v: v > 0)):
            value = metric(r, key, bound)
            g.check(bound, ok(value), value, r["label"])
        base = plain.get((r["k"], r["workers"]))
        g.check("fattree-profile: a plain row for every profiled row",
                base is not None, r["label"])
        if base is not None:
            # Neither the profiler nor telemetry may perturb the simulation.
            for key in SAME:
                g.check(f"fattree-profile: {key} equal to the plain run",
                        r[key] == base[key], r[key], r["label"])
    if (16, 1) not in idx or (16, 1) not in plain:
        return
    on, off = idx[(16, 1)], plain[(16, 1)]
    # Deterministic forwarding costs at k=16: raw dispatches per data packet
    # (14.29 since a hop through an idle link is one event, 23.45 before;
    # the bound is +5%) and the per-flow path cache serving nearly every
    # grouped forwarding decision (0.9937 when the gate came in).
    bound = "fattree-profile: k=16 dispatches per packet <= 15.0"
    per_pkt = (metric(on, "profile.engine.dispatch.raw", bound) /
               on["data_packets_sent"])
    g.check(bound, per_pkt <= 15.0, per_pkt)
    bound = "fattree-profile: k=16 path-cache hit rate >= 0.98"
    hit = metric(on, "profile.switch.path_cache_hit_rate", bound)
    g.check(bound, hit >= 0.98, hit)
    # Telemetry sampling and sketches cost at most 5% of k=16 throughput
    # against the plain run from the same job.
    ratio = pkts_per_s(on) / pkts_per_s(off)
    g.check("fattree-profile: k=16 pkts/s on / off >= 0.95", ratio >= 0.95,
            ratio)


def check_parallel(rows, g):
    for r in rows:
        w, label = r["workers"], r["label"]
        if w > 1:
            g.check("parallel: workers_used > 1 at > 1 worker",
                    r["workers_used"] > 1, r["workers_used"], label)
            g.check("parallel: no fallback", r["parallel_fallback_reason"] == "",
                    repr(r["parallel_fallback_reason"]), label)
            bound = "parallel: rounds > 0"
            rounds = metric(r, "parallel.rounds", bound)
            g.check(bound, rounds > 0, rounds, label)
            bound = "parallel: drains > 0"
            drains = metric(r, "parallel.drains", bound)
            g.check(bound, drains > 0, drains, label)
            # One domain per pod on the fat-tree whatever the worker count;
            # one per worker on the three-tier tree.
            bound = "parallel: domains == pods on a fat-tree, else workers"
            want = r["k"] if r["topology"] == "fat_tree" else w
            domains = metric(r, "parallel.domains", bound)
            g.check(bound, domains == want, domains, label)
        else:
            g.check("parallel: workers_used == 1 at 1 worker",
                    r["workers_used"] == 1, r["workers_used"], label)
            # A one-domain run emits no parallel.* metrics at all.
            bound = "parallel: rounds == 0 at 1 worker"
            rounds = metric(r, "parallel.rounds", bound, default=0)
            g.check(bound, rounds == 0, rounds, label)
    # Any worker count simulates the same thing.
    groups = {}
    for r in rows:
        groups.setdefault((r["protocol"], r["topology"]), []).append(r)
    for rs in groups.values():
        base = min(rs, key=lambda r: r["workers"])
        for r in rs:
            if r is not base:
                same_output(g, "parallel", r, base)
    # The fat-tree has one domain per pod at any worker count, and the window
    # rule reads only their calendars, so its round statistics cannot depend
    # on the number of threads that run them.
    ft = {(r["protocol"], r["workers"]): r for r in rows
          if r["topology"] == "fat_tree"}
    protocols = sorted({p for p, _ in ft})
    g.check("parallel: fat-tree rows at 2 and 4 workers",
            protocols and all((p, w) in ft for p in protocols for w in (2, 4)),
            sorted(ft))
    for p in protocols:
        partitioned = [r for (q, w), r in sorted(ft.items()) if q == p and w > 1]
        for key in ("rounds", "drains", "quiet_rounds", "cross_posts"):
            bound = f"parallel: fat-tree {key} equal at every worker count > 1"
            values = [metric(r, "parallel." + key, bound) for r in partitioned]
            g.check(bound, len(set(values)) <= 1, values, p)


def check_trace(path, g):
    rounds = []
    with open(path) as f:
        for line in f:
            if '"engine.round"' in line:
                rounds.append(json.loads(line))
    g.check("trace: engine.round events > 0", len(rounds) > 0, len(rounds))
    for e in rounds:
        g.check("trace: rounds >= drains", e["rounds"] >= e["drains"],
                f"{e['rounds']} vs {e['drains']}")
        g.check("trace: drains >= 0", e["drains"] >= 0, e["drains"])
        g.check("trace: horizon >= 0", e["horizon"] >= 0.0, e["horizon"])


GRIDS = {
    "hotpath": check_hotpath,
    "capacity": check_capacity,
    "fattree": check_fattree,
    "parallel": check_parallel,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("doc", nargs="?", help="a BENCH_<grid>.json document")
    ap.add_argument("--plain", help="plain fat-tree run to compare a "
                    "--profile --telemetry document with")
    ap.add_argument("--trace", help="JSONL trace of a partitioned run")
    args = ap.parse_args(argv)
    if (args.doc is None) == (args.trace is None):
        ap.error("give a document or --trace")

    g = Gates()
    if args.trace:
        check_trace(args.trace, g)
        return g.report()
    with open(args.doc) as f:
        doc = json.load(f)
    name, rows = doc["name"], doc["scenarios"]
    if args.plain and name != "fattree":
        ap.error("--plain applies to fattree documents")
    if not args.plain and name not in GRIDS:
        ap.error(f"unknown grid {name!r}")
    try:
        if args.plain:
            with open(args.plain) as f:
                check_fattree_profiled(rows, json.load(f)["scenarios"], g)
        else:
            GRIDS[name](rows, g)
    except Missing as e:
        g.failures.append(str(e))
    return g.report()


if __name__ == "__main__":
    sys.exit(main())
