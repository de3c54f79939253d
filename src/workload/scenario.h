// Experiment harness: pure assembly. Resolves the transport profile from the
// registry, builds the fabric through a topo::TopologyBuilder, instantiates
// per-flow senders/receivers via the profile as the workload arrives, runs
// the simulation to completion and returns flow records plus fabric and
// control-plane counters. Every bench and example drives this one entry
// point; protocol-specific knowledge lives behind proto::TransportProfile
// and topology-specific knowledge behind topo::TopologyBuilder.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/control_stats.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "proto/profile_params.h"
#include "proto/protocol.h"
#include "stats/flow_stats.h"
#include "stats/streaming.h"
#include "stats/summary.h"
#include "topo/fat_tree.h"
#include "topo/single_rack.h"
#include "topo/three_tier.h"
#include "workload/flow_generator.h"

namespace pase::obs {
struct Trace;  // trace_sink.h; results only carry a pointer
}

namespace pase::workload {

// The protocol identity and its string forms live in the proto layer; the
// historical workload:: spellings keep working.
using proto::Protocol;
using proto::parse_protocol;
using proto::protocol_name;

// Per-protocol knobs (pase, pdq, pdq_probe_rtts, arbitration_period_rtts)
// and fabric overrides (queue_capacity_pkts, mark_threshold_pkts) are
// inherited from proto::ProfileParams.
struct ScenarioConfig : proto::ProfileParams {
  Protocol protocol = Protocol::kDctcp;
  // When non-empty, selects the transport by registry name instead of the
  // enum, so profiles registered outside the built-in six can run without
  // touching this struct (see proto/registry.h).
  std::string profile_name;

  enum class TopologyKind { kSingleRack, kThreeTier, kFatTree };
  TopologyKind topology = TopologyKind::kSingleRack;
  topo::SingleRackConfig rack;   // used when topology == kSingleRack
  topo::ThreeTierConfig tree;    // used when topology == kThreeTier
  topo::FatTreeConfig fattree;   // used when topology == kFatTree

  WorkloadConfig traffic;  // host counts/rates are filled in from the topology

  sim::Time max_duration = 30.0;  // hard stop for the simulation clock

  // Conservative-parallel execution on this many worker threads,
  // synchronized on windows as wide as the smallest cut-link propagation
  // delay (see sim/parallel.h). The topology is partitioned into one domain
  // per fat-tree pod (whatever the worker count; workers claim pods
  // dynamically), or into one domain per worker on topologies without pods.
  // Results are bit-identical to workers == 1 at any count. Falls back to
  // sequential execution (one domain) when the profile is not
  // parallel-safe, a cut link has zero propagation delay, or the partition
  // degenerates to one domain; the fallback reports workers_used == 1 and
  // names its cause in ScenarioResult::parallel_fallback_reason. Composes
  // with exp::SweepRunner: each sweep thread runs its own engine.
  int workers = 1;

  // How per-flow outcomes are aggregated.
  //   kExact     — keep every FlowRecord in ScenarioResult::records; metrics
  //                are computed over the full vector (the historical
  //                behavior, and what the golden-fingerprint tests consume).
  //   kStreaming — fold each record into O(1)-memory estimators
  //                (stats/streaming.h: running mean and counters, a
  //                log-bucketed histogram) as flows retire and keep NO
  //                per-flow records. Million-flow runs then carry no
  //                O(flows) stats state; percentiles are accurate to within
  //                one histogram bucket (~5% width by default).
  // The simulation event path is identical in both modes — only the
  // aggregation differs.
  enum class StatsMode { kExact, kStreaming };
  StatsMode stats_mode = StatsMode::kExact;

  // Recycle endpoint slots: when a flow's sender has finished and its
  // receiver completed (or the flow was terminated), its sender/receiver are
  // destroyed after a one-chunk (>= 10 ms simulated) quarantine and their
  // slab slots are reused for future arrivals, so live endpoint memory
  // tracks concurrency instead of total flow count. The quarantine exceeds
  // any in-flight packet lifetime (path delays are microseconds, min RTO is
  // 10 ms and sender timers are canceled on finish), so recycling is
  // event-path invisible — the golden fingerprints pin that. Off keeps every
  // endpoint alive to the end of the run (the historical behavior).
  bool recycle_endpoints = true;

  // Per-switch path-cache (ECMP memo) capacity, rounded up to a power of
  // two; 0 disables the memo. Selections are bit-identical at any value —
  // the cache is a pure memo over the per-flow path hash — so this is a
  // perf/memory knob only (≈24 B/entry/switch once a switch sees grouped
  // traffic).
  std::size_t path_cache_entries = 1024;

  // Structured tracing (src/obs/). Off by default: the harness then never
  // allocates a buffer and the simulation takes the exact same event path
  // (the 18 golden fingerprints pin this). When enabled, one ring buffer
  // per execution domain records events in the selected categories and the
  // merged trace lands in ScenarioResult::trace — byte-identical for any
  // worker count (modulo the engine category, which is worker-dependent by
  // nature).
  obs::TraceConfig trace;

  // Fabric telemetry plane (src/obs/telemetry.h). Off by default: no plane
  // is constructed and the event path is untouched. When enabled, the
  // harness samples every queue/link on the plane's time grid at
  // domain-quiescent instants — event execution is identical to a
  // telemetry-off run, and the summary (ScenarioResult::telemetry) is
  // byte-identical in JSONL form at any worker count.
  obs::TelemetryConfig telemetry;

  // Engine self-profiler (--profile): tallies per-event-type dispatches,
  // calendar scan lengths, pending high-water mark and path-cache hit rates
  // into the metrics snapshot as profile.* entries. Purely observational —
  // the event path is identical with it on or off.
  bool profile = false;
};

struct ScenarioResult {
  // Per-flow outcomes, indexed like the run's flow list. Empty in
  // streaming-stats mode (use the metric methods below, which dispatch to
  // `streaming`).
  std::vector<stats::FlowRecord> records;
  // Constant-memory aggregation; set iff the run used StatsMode::kStreaming.
  // Shared so results stay copyable.
  std::shared_ptr<const stats::StreamingFlowStats> streaming;
  std::uint64_t fabric_drops = 0;
  std::uint64_t data_packets_sent = 0;
  std::uint64_t probes_sent = 0;
  sim::Time end_time = 0.0;
  core::ControlPlaneStats control;
  // Events whose closure spilled to the heap (summed over all domains in a
  // parallel run). The steady state of every built-in profile is zero; the
  // alloc-free tests pin that.
  std::uint64_t heap_closure_events = 0;
  // Endpoint-slab chunk allocations (proto/endpoint_arena.h). Constant after
  // warmup when endpoint recycling is on: an arrival reuses a retired slot
  // instead of growing a slab.
  std::uint64_t slab_grow_events = 0;
  // High-water mark of concurrently live endpoint pairs — what endpoint
  // memory actually scales with under recycling.
  std::size_t peak_live_flows = 0;
  // Wall-clock seconds from harness entry until the event loop started:
  // topology build, control plane, record/descriptor setup. O(pending
  // descriptors), not O(endpoints) — endpoints are constructed lazily.
  double setup_wall_sec = 0.0;
  // Worker threads the run executed with: cfg.workers clamped to the
  // domain count (the pod count on a fat-tree), or 1 when the harness fell
  // back to sequential execution. The domain count is the metric
  // parallel.domains.
  int workers_used = 1;
  // Why a workers > 1 request fell back to sequential execution; empty when
  // the parallel engine ran (or was never requested). Sweep JSON carries
  // this so a silent fallback can't masquerade as a parallel result.
  std::string parallel_fallback_reason;
  // Wall-clock seconds worker threads spent blocked in round barriers past
  // the spin burst (parallel runs only; load-imbalance signal). Wall time,
  // so it lives here rather than in the deterministic metrics snapshot.
  double parallel_barrier_wait_sec = 0.0;
  // Merged trace when cfg.trace.enabled, else null. Shared so results stay
  // copyable (exp::SweepRunner copies them into its grid).
  std::shared_ptr<const obs::Trace> trace;
  // Telemetry summary when cfg.telemetry.enabled, else null. Shared for the
  // same copyability reason; serialize with TelemetrySummary::write_jsonl.
  std::shared_ptr<const obs::TelemetrySummary> telemetry;
  // Aggregate run metrics (fabric drop/mark totals, engine event counts,
  // parallel round statistics), name-sorted. sweep_to_json serializes this.
  obs::MetricsSnapshot metrics;

  // Metric accessors dispatch on the aggregation the run used: exact
  // (records) or streaming (histogram/counter-backed, see stats/streaming.h).
  // Consumers — summary printers, sweep JSON, figure benches — use these and
  // never care which representation is underneath.
  double afct() const {
    return streaming ? streaming->afct() : stats::afct(records);
  }
  double fct_p99() const {
    return streaming ? streaming->fct_percentile(99.0)
                     : stats::fct_percentile(records, 99.0);
  }
  double fct_percentile(double p) const {
    return streaming ? streaming->fct_percentile(p)
                     : stats::fct_percentile(records, p);
  }
  double app_throughput() const {
    return streaming ? streaming->application_throughput()
                     : stats::application_throughput(records);
  }
  std::size_t unfinished() const {
    return streaming ? streaming->unfinished() : stats::unfinished(records);
  }
  // Total flows the run covered (records.size() in exact mode; streaming
  // keeps no records, only the count).
  std::size_t total_flows() const {
    return streaming ? static_cast<std::size_t>(streaming->total_flows())
                     : records.size();
  }
  std::vector<stats::CdfPoint> fct_cdf(int num_points = 50) const {
    return streaming ? streaming->fct_cdf(num_points)
                     : stats::fct_cdf(records, num_points);
  }
  // Fraction of transmitted data packets dropped inside the fabric.
  double loss_rate() const {
    return data_packets_sent == 0
               ? 0.0
               : static_cast<double>(fabric_drops) /
                     static_cast<double>(data_packets_sent);
  }
  double control_msgs_per_sec() const {
    return end_time > 0.0
               ? static_cast<double>(control.messages_sent) / end_time
               : 0.0;
  }
};

// Checks cfg for nonsense (non-positive durations/rates/sizes, impossible
// topology dimensions, pattern/topology mismatches) and then runs the
// resolved profile's own validate() (e.g. mark threshold vs queue capacity).
// Throws std::invalid_argument with a descriptive message. run_scenario and
// run_scenario_with_flows call this on entry; it is exposed so front ends
// can fail fast before generating a workload.
void validate_config(const ScenarioConfig& cfg);

// Generates the workload from cfg.traffic and runs it.
ScenarioResult run_scenario(ScenarioConfig cfg);

// Runs an explicit flow list (src/dst are HOST INDICES, not node ids).
// Throws std::invalid_argument, naming the flow's index, for a src or dst
// outside [0, host count), a zero size, or a negative or non-finite start.
ScenarioResult run_scenario_with_flows(ScenarioConfig cfg,
                                       std::vector<transport::Flow> flows);

}  // namespace pase::workload
