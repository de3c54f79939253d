#!/usr/bin/env python3
"""Host-cost benchmark for the PASE simulator.

Builds perfbench_runner from source (perfbench/CMakeLists.txt compiles ../src
in Release with link-time optimization), then measures one workload:

    python3 perfbench/run.py --workload fattree_dctcp --seed 1 \
        --seconds 25 --trace 0

Every measured run is a fresh runner process, so its peak RSS is that run's
alone. Runs repeat until --seconds have elapsed; each metric is the median
over the runs. Every run is checked (all flows finished, the requested worker
count ran, the simulated fingerprint matches the invocation's other runs and,
for fattree_dctcp_w4, a sequential fattree_dctcp run of the same flows); a run
that fails a check counts as failed and is left out of the medians.

--trace 0 reports the end-to-end metrics. --trace 1 measures untraced runs
for the same time, then one traced run (engine self-profiler on, a timed
topology build, spans around each call into the simulator) and reports the
per-layer metrics; the spans are written under the build directory.

--workload all runs every workload in turn. On success the last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
If the runner does not build, or no run of a workload passes its checks,
it exits 1 without one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The seed used while tuning, and one kept back so a later claim can be
# rechecked on inputs nobody tuned against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# Workload -> the workload whose fingerprint it must reproduce, run once per
# invocation with the same seed. fattree_dctcp_w4 runs fattree_dctcp's flows
# on four workers; the parallel engine must not change the simulated result.
WORKLOADS = {
    "fattree_dctcp": None,
    "fattree_dctcp_w4": "fattree_dctcp",
    "threetier_pase": None,
    "flow_churn": None,
}

END_TO_END = {
    "sim_pkts_per_s": "1/s",
    "flows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit. The end-to-end metric and workload each one
# should move are listed in perfbench/README.md.
PER_LAYER = {
    "workload.flowgen_s": "s",
    "workload.setup_s": "s",
    "workload.loop_s": "s",
    "workload.peak_live_flows": "count",
    "proto.slab_grow_events": "count",
    "topo.build_s": "s",
    "topo.route_table_bytes": "bytes",
    "topo.switches": "count",
    "sim.events": "count",
    "sim.events_per_pkt": "ratio",
    "sim.ns_per_event": "ns",
    "sim.scan_mean": "count",
    "sim.scan_max": "count",
    "sim.peak_pending": "count",
    "sim.calendar_rebuilds": "count",
    "sim.heap_closure_events": "count",
    "sim.parallel.rounds": "count",
    "sim.parallel.cross_posts": "count",
    "sim.parallel.quiet_rounds": "count",
    "sim.parallel.horizon_us": "us",
    "sim.parallel.barrier_wait_frac": "ratio",
    "sim.parallel.speedup": "x",
    "sim.parallel.rss_ratio": "x",
    "net.enqueues": "count",
    "net.drops": "count",
    "net.marks": "count",
    "net.link_deliver": "count",
    "net.link_tx_done": "count",
    "net.path_cache_hit_rate": "ratio",
    "net.path_cache_misses": "count",
    "net.core_link_imbalance": "ratio",
    "transport.data_pkts": "count",
    "transport.probes": "count",
    "transport.unfinished": "count",
    "core.ctrl_msgs": "count",
    "core.arbitrations": "count",
    "core.ctrl_per_data_pkt": "ratio",
    "stats.afct_ms": "ms",
    "stats.fct_p99_ms": "ms",
    "stats.loss_rate": "ratio",
    "stats.sim_end_s": "s",
    "obs.trace_overhead_frac": "ratio",
}

MIN_RUNS = 3          # runs per invocation, however long they take
CHILD_TIMEOUT_S = 150  # one runner process
WALL_LIMIT_S = 170     # stop starting runs past this, whatever --seconds says


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the runner; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4",
                  "--target", "perfbench_runner"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench_runner")


def run_once(binary, workload, seed, trace=False, extra=()):
    """One runner process; returns its parsed result or None if it failed."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] if trace else []
    cmd += list(extra)
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: runner timed out")
        return None
    if p.returncode != 0 or not p.stdout.strip():
        log(f"{workload}: runner exited {p.returncode}: {p.stderr.strip()}")
        return None
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except ValueError as e:
        log(f"{workload}: unreadable runner output: {e}")
        return None


def problems(rec, expected_fingerprint):
    """Why a run counts as failed; empty when it passes every check."""
    found = []
    if rec["completed"] != rec["flows"]:
        found.append(f"{rec['flows'] - rec['completed']} unfinished flows")
    if rec["workers_used"] != rec["workers_requested"]:
        found.append(f"ran on {rec['workers_used']} of "
                     f"{rec['workers_requested']} workers")
    if rec["parallel_fallback_reason"]:
        found.append("parallel fallback: " + rec["parallel_fallback_reason"])
    if expected_fingerprint and rec["fingerprint"] != expected_fingerprint:
        found.append(f"fingerprint {rec['fingerprint']} != "
                     f"{expected_fingerprint} ({rec['fingerprint_text']})")
    return found


class Tally:
    """Runs and checks one workload's invocation."""

    def __init__(self, binary, seed, extra=()):
        self.binary, self.seed, self.extra = binary, seed, list(extra)
        self.attempted = 0
        self.failed = 0
        self.fingerprints = {}  # workload -> first passing fingerprint

    def run(self, workload, trace=False, expect_from=None):
        self.attempted += 1
        rec = run_once(self.binary, workload, self.seed, trace, self.extra)
        if rec is None:
            self.failed += 1
            return None
        expected = self.fingerprints.get(expect_from or workload)
        found = problems(rec, expected)
        if found:
            self.failed += 1
            log(f"{workload} seed {self.seed}: FAILED: " + "; ".join(found))
            return None
        self.fingerprints.setdefault(workload, rec["fingerprint"])
        return rec


def host_s(rec):
    return rec["flowgen_s"] + rec["run_s"]


def loop_s(rec):
    return rec["run_s"] - rec["harness_setup_s"]


def end_to_end(rec):
    return {
        "sim_pkts_per_s": rec["data_packets"] / host_s(rec),
        "flows_per_s": rec["completed"] / host_s(rec),
        "setup_s": rec["flowgen_s"] + rec["harness_setup_s"],
        "peak_rss_mb": rec["peak_rss_bytes"] / 2**20,
    }


def median_of(recs, fn):
    return statistics.median(fn(r) for r in recs)


def measure(tally, workload, seconds, alternate):
    """Repeats untraced runs for `seconds`; returns (runs, reference runs).

    A workload with a reference runs the reference first (its fingerprint is
    the expected one) and, if `alternate`, again before every run, so both
    sides of the speed-up and RSS ratios have medians.
    """
    reference = WORKLOADS[workload]
    start = time.monotonic()
    runs, refs = [], []
    attempts = 0
    while True:
        attempts += 1
        t0 = time.monotonic()
        if reference and (not refs or alternate):
            rec = tally.run(reference)
            if rec:
                refs.append(rec)
        rec = tally.run(workload, expect_from=reference)
        if rec:
            runs.append(rec)
        last = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if elapsed > WALL_LIMIT_S - 2 * last:
            break
        if attempts >= MIN_RUNS and elapsed + last > seconds:
            break
    return runs, refs


def layer_metrics(rec, runs, refs):
    m = rec["metrics"]

    def metric(name):
        return m.get(name, 0.0)

    pkts = rec["data_packets"]
    events = metric("engine.executed_events")
    loop = loop_s(rec)
    workers = rec["workers_used"]
    parallel = workers > 1
    base_loop = median_of(runs, loop_s)
    out = {
        "workload.flowgen_s": rec["flowgen_s"],
        "workload.setup_s": rec["harness_setup_s"],
        "workload.loop_s": loop,
        "workload.peak_live_flows": rec["peak_live_flows"],
        "proto.slab_grow_events": rec["slab_grow_events"],
        "topo.build_s": rec["topo_build_s"],
        "topo.route_table_bytes": metric("fabric.route_table_bytes"),
        "topo.switches": metric("fabric.switches"),
        "sim.events": events,
        "sim.events_per_pkt": events / pkts if pkts else 0.0,
        "sim.ns_per_event": loop * 1e9 / events if events else 0.0,
        "sim.scan_mean": metric("profile.engine.scan_mean"),
        "sim.scan_max": metric("profile.engine.scan_max"),
        "sim.peak_pending": metric("profile.engine.peak_pending"),
        "sim.calendar_rebuilds": metric("engine.calendar_rebuilds"),
        "sim.heap_closure_events": rec["heap_closure_events"],
        "sim.parallel.rounds": metric("parallel.rounds") if parallel else 0.0,
        "sim.parallel.cross_posts":
            metric("parallel.cross_posts") if parallel else 0.0,
        "sim.parallel.quiet_rounds":
            metric("parallel.quiet_rounds") if parallel else 0.0,
        "sim.parallel.horizon_us":
            metric("parallel.horizon_width_mean") * 1e6 if parallel else 0.0,
        "sim.parallel.barrier_wait_frac":
            rec["barrier_wait_s"] / (workers * loop) if parallel else 0.0,
        "sim.parallel.speedup":
            median_of(refs, loop_s) / base_loop if refs else 0.0,
        "sim.parallel.rss_ratio":
            median_of(runs, lambda r: r["peak_rss_bytes"]) /
            median_of(refs, lambda r: r["peak_rss_bytes"]) if refs else 0.0,
        "net.enqueues": metric("fabric.enqueues"),
        "net.drops": rec["drops"],
        "net.marks": rec["marks"],
        "net.link_deliver": metric("profile.engine.dispatch.link.deliver"),
        "net.link_tx_done": metric("profile.engine.dispatch.link.tx_done"),
        "net.path_cache_hit_rate":
            metric("profile.switch.path_cache_hit_rate"),
        "net.path_cache_misses": metric("profile.switch.path_cache_misses"),
        "net.core_link_imbalance": metric("fabric.core_link_imbalance"),
        "transport.data_pkts": pkts,
        "transport.probes": rec["probes"],
        "transport.unfinished": rec["flows"] - rec["completed"],
        "core.ctrl_msgs": rec["ctrl_msgs"],
        "core.arbitrations": rec["arbitrations"],
        "core.ctrl_per_data_pkt": rec["ctrl_msgs"] / pkts if pkts else 0.0,
        "stats.afct_ms": rec["afct_s"] * 1e3,
        "stats.fct_p99_ms": rec["fct_p99_s"] * 1e3,
        "stats.loss_rate": rec["loss_rate"],
        "stats.sim_end_s": rec["end_time_s"],
        "obs.trace_overhead_frac": loop / base_loop - 1.0,
    }
    return {k: {"value": float(v), "unit": PER_LAYER[k]}
            for k, v in out.items()}


def write_spans(rec, workload, seed):
    """Writes the traced run's spans, with each span's self time."""
    spans = rec["spans"]
    for i, s in enumerate(spans):
        children = sum(c["end"] - c["start"] for c in spans
                       if c["parent"] == i)
        s["self_s"] = s["end"] - s["start"] - children
    path = os.path.join(build_dir(), "spans", f"{workload}.seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "spans": spans}, f,
                  indent=1)
    log(f"spans: {path}")


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    """Measures one workload; returns (tally, metrics or None)."""
    tally = Tally(binary, seed, extra)
    runs, refs = measure(tally, workload, seconds, alternate=trace)
    if trace:
        rec = tally.run(workload, trace=True, expect_from=WORKLOADS[workload])
        if rec is None or not runs:
            return tally, None
        write_spans(rec, workload, seed)
        return tally, layer_metrics(rec, runs, refs)
    if not runs:
        return tally, None
    first = runs[0]
    print(f"{workload} seed {seed}: fingerprint {first['fingerprint']} "
          f"({first['fingerprint_text']})")
    per_run = [end_to_end(r) for r in runs]
    log("per-run values: " + json.dumps(per_run))
    out = {}
    for name, unit in END_TO_END.items():
        values = [r[name] for r in per_run]
        out[name] = {"value": statistics.median(values), "unit": unit}
        q = (statistics.quantiles(values, n=4) if len(values) > 1
             else [values[0]] * 3)
        print(f"  {name:16s} {out[name]['value']:14.6g} {unit:4s} "
              f"(quartiles {q[0]:.6g} .. {q[2]:.6g}, {len(values)} runs)")
    return tally, out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    binary = build()
    if binary is None:
        return 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        tally, out = run_workload(binary, name, args.seed, args.seconds,
                                  bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        if out is None:
            log(f"{name}: no run passed its checks")
            return 1
        prefix = name + "." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in out.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
