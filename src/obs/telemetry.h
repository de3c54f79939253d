// Fabric telemetry plane: fixed sim-time-interval sampling of per-link
// utilization and per-queue depth/ECN-mark/drop rates, rolled up into
// windowed time series by fabric tier and pod, with space-saving heavy-hitter
// tracking for the hottest links and flows.
//
// The design goal is scale-invariant output: a k=32 fat-tree has ~49k queues,
// so per-queue series are unaffordable. The plane keeps O(queues) running
// state (previous cumulative counters plus one mean/max accumulator per
// queue) but emits O(groups x windows + K) — a group is a tier ("tier:core")
// or a pod ("pod:3"), a window is samples_per_window consecutive sample
// ticks, and K is the heavy-hitter capacity.
//
// Determinism contract: sample() reads only simulation-domain state (queue
// lengths, cumulative drop/mark counters, link busy time and byte counts) at
// domain-quiescent instants chosen on the sample grid t = n * sample_period.
// The caller drives it: the scenario driver runs the engine to each grid
// instant inside a chunk (every domain clock parked exactly there) and
// samples, so the sample stream — and therefore the serialized
// "pase-telemetry" JSONL — is byte-identical at any worker count, and the
// event stream is the same with telemetry on or off. Tests drive the grid by
// hand the same way.
//
// Per-window statistics reuse the stats/streaming estimators: mean/max are
// exact, p99 comes from a fixed-geometry LogHistogram (order-independent by
// construction), and whole-run per-group p99 is a P² marker estimate fed in
// canonical sample order.
//
// This header sits above sim/net/topo/stats (it reads their state), unlike
// the rest of obs/ which is stdlib-pure — tools/check_includes.sh carves out
// obs/telemetry.* explicitly, and no lower layer may include it back.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/dcheck.h"
#include "sim/simulator.h"
#include "stats/streaming.h"
#include "topo/builder.h"
#include "topo/topology.h"

namespace pase::obs {

inline constexpr const char* kTelemetrySchemaName = "pase-telemetry";
inline constexpr int kTelemetrySchemaVersion = 1;

// Canonical queue order and names for a topology: host uplinks first, then
// every switch port, matching Topology::for_each_queue. Also stamps each
// queue's trace id with its index so packet drop/mark trace events can be
// attributed to a named queue.
inline std::vector<std::string> label_fabric_queues(topo::Topology& topo) {
  std::vector<std::string> names;
  for (const auto& h : topo.hosts()) names.push_back(h->name() + ".up");
  for (const auto& sw : topo.switches()) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      names.push_back(sw->port_link(p).name());
    }
  }
  std::uint32_t i = 0;
  topo.for_each_queue([&i](net::Queue& q) { q.set_trace_id(i++); });
  PASE_DCHECK(i == names.size() && "queue walk disagrees with labels");
  return names;
}

// Link utilization over a window: busy time divided by elapsed time.
struct UtilizationProbe {
  const net::Link* link;
  sim::Time t0;
  sim::Time busy0;

  UtilizationProbe(const net::Link& l, sim::Time now)
      : link(&l), t0(now), busy0(l.busy_time()) {}

  double utilization(sim::Time now) const {
    const sim::Time elapsed = now - t0;
    if (elapsed <= 0) return 0.0;
    const sim::Time busy = link->busy_time() - busy0;
    PASE_DCHECK(busy >= 0 && "link busy_time went backwards");
    // busy_time can exceed elapsed by one in-flight serialization; report a
    // physically meaningful fraction.
    return std::clamp(busy / elapsed, 0.0, 1.0);
  }
};

// Carried by ScenarioConfig; plain data, defaults tuned so an enabled run
// stays under the 5% overhead budget at fat-tree scale (one fabric walk per
// millisecond of sim time).
struct TelemetryConfig {
  bool enabled = false;
  // Sample grid: the fabric is read at t = n * sample_period (multiplied,
  // never accumulated, so the grid is bit-identical across drivers).
  sim::Time sample_period = 1e-3;
  // Samples folded into one rollup window (window span = period * this).
  int samples_per_window = 10;
  // Heavy hitters reported per class (links, flows).
  std::size_t top_k = 8;
  // Internal space-saving capacity; larger = tighter error bounds. Keys
  // whose true byte count exceeds total_bytes / sketch_entries are
  // guaranteed tracked.
  std::size_t sketch_entries = 128;
};

// Space-saving sketch (Metwally, Agrawal & El Abbadi, ICDT 2005) with
// weighted updates. Invariants, with m = capacity():
//   - estimate(k) >= true_weight(k) >= estimate(k) - error(k) for tracked k;
//   - any key whose true weight exceeds min_estimate() is tracked — and
//     min_estimate() <= total_weight / m, which is the guaranteed-top-K
//     property the unit tests pin.
// Victim selection is deterministic (minimum count, lowest slot index), so
// two sketches fed the same sequence are identical.
class SpaceSavingSketch {
 public:
  explicit SpaceSavingSketch(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void add(std::uint64_t key, std::uint64_t weight);

  struct Item {
    std::uint64_t key = 0;
    std::uint64_t estimate = 0;  // upper bound on the key's true weight
    std::uint64_t error = 0;     // estimate - error lower-bounds the weight
  };
  // Top n tracked keys, estimate-descending, key-ascending on ties.
  std::vector<Item> top(std::size_t n) const;

  std::size_t capacity() const { return capacity_; }
  std::size_t tracked() const { return slots_.size(); }
  std::uint64_t total_weight() const { return total_; }
  // Smallest tracked estimate (0 while the sketch has free slots): the
  // eviction floor, and the guarantee threshold for top-K membership.
  std::uint64_t min_estimate() const;

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };
  std::size_t find(std::uint64_t key) const;

  std::size_t capacity_;
  std::uint64_t total_ = 0;
  std::vector<Slot> slots_;  // unsorted; linear scans — capacity is O(100)
};

// One rollup window for one group. `group` indexes
// TelemetrySummary::group_names; depth is in packets, utilization in [0, 1].
struct TelemetryWindowRow {
  std::uint32_t window = 0;
  std::uint32_t group = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint64_t samples = 0;  // queue-samples folded in (queues x ticks)
  double util_mean = 0.0;
  double util_max = 0.0;
  double util_p99 = 0.0;  // LogHistogram nearest-rank (0 when all idle)
  double depth_mean = 0.0;
  std::uint64_t depth_max = 0;
  double depth_p99 = 0.0;
  std::uint64_t drops = 0;  // window delta, summed over the group's queues
  std::uint64_t marks = 0;
  std::uint64_t bytes = 0;
};

// Whole-run aggregate for one group. util_p99 here is the P² marker
// estimate over every per-sample link utilization in the group.
struct TelemetryGroupTotal {
  std::uint32_t group = 0;
  std::uint64_t samples = 0;
  double util_mean = 0.0;
  double util_max = 0.0;
  double util_p99 = 0.0;
  double depth_mean = 0.0;
  std::uint64_t depth_max = 0;
  std::uint64_t drops = 0;
  std::uint64_t marks = 0;
  std::uint64_t bytes = 0;
};

struct HeavyHitter {
  std::string name;  // link name, or "flow:<id>"
  std::uint64_t key = 0;
  std::uint64_t bytes = 0;  // estimate (upper bound)
  std::uint64_t error = 0;
};

// The rendered result of a telemetry run: everything the "pase-telemetry"
// JSONL sink serializes, O(groups x windows + K) regardless of fabric size.
struct TelemetrySummary {
  sim::Time sample_period = 0.0;
  int samples_per_window = 0;
  std::uint64_t samples = 0;  // sample ticks taken
  sim::Time end_time = 0.0;
  std::size_t num_queues = 0;
  std::vector<std::string> group_names;         // "tier:core", "pod:3", ...
  std::vector<TelemetryWindowRow> windows;      // window-major, group-minor
  std::vector<TelemetryGroupTotal> totals;      // one per group
  std::vector<HeavyHitter> hot_links;
  std::vector<HeavyHitter> hot_flows;

  // Schema-versioned JSONL ({"schema":"pase-telemetry","version":1,...}
  // header, then one record per line). Deterministic: shortest round-trip
  // number formatting, fixed field order — byte-identical for identical
  // sample streams. Validated by tools/check_trace_schema.py.
  std::string to_jsonl() const;
  bool write_jsonl(const std::string& path) const;
};

// The sampling plane. Construct over a built topology and call sample() on
// the grid at quiescent instants; finish() flushes the trailing partial
// window and renders the summary.
class TelemetryPlane {
 public:
  TelemetryPlane(topo::BuiltTopology& built, const TelemetryConfig& cfg);

  sim::Time sample_period() const { return cfg_.sample_period; }
  std::uint64_t samples_taken() const { return samples_; }
  // Grid time of sample n (1-based); the harness runs each domain clock to
  // exactly this instant before calling sample().
  sim::Time sample_time(std::uint64_t n) const {
    return cfg_.sample_period * static_cast<double>(n);
  }

  // Reads every queue and link once and folds the tick into the live window.
  // `now` must be non-decreasing across calls.
  void sample(sim::Time now);

  // Heavy-hitter feed for flows: called once per flow at launch with its
  // size. (Links feed themselves from per-sample byte deltas.)
  void note_flow(std::uint64_t flow_id, std::uint64_t size_bytes);

  // Flushes the trailing partial window and builds the summary.
  std::shared_ptr<const TelemetrySummary> finish(sim::Time end_time);

  // --- Introspection (tests, examples) -----------------------------------
  const std::vector<std::string>& queue_names() const { return names_; }
  std::size_t num_queues() const { return names_.size(); }
  const std::vector<std::string>& group_names() const { return group_names_; }
  // Largest backlog observed anywhere in the fabric.
  std::size_t peak_occupancy() const;
  // Name of the queue with the highest mean backlog — usually the bottleneck.
  const std::string* busiest() const;

 private:
  struct QueueState {
    net::Queue* queue = nullptr;
    const net::Link* link = nullptr;
    std::uint16_t tier_group = 0;
    std::int16_t pod_group = -1;  // -1: topology has no pod for this queue
    // Previous cumulative counters (deltas per tick are derived from these).
    sim::Time prev_busy = 0.0;
    std::uint64_t prev_bytes = 0;
    std::uint64_t prev_drops = 0;
    std::uint64_t prev_marks = 0;
    // Whole-run per-queue aggregates (O(queues), not O(queues x samples)).
    double occ_sum = 0.0;
    std::uint64_t occ_max = 0;
  };

  // Live accumulator for the current window of one group.
  struct WindowAccum {
    std::uint64_t samples = 0;
    double util_sum = 0.0;
    double util_max = 0.0;
    double depth_sum = 0.0;
    std::uint64_t depth_max = 0;
    std::uint64_t drops = 0;
    std::uint64_t marks = 0;
    std::uint64_t bytes = 0;
    stats::LogHistogram util_hist;
    stats::LogHistogram depth_hist;
  };

  // Whole-run accumulator for one group.
  struct RunAccum {
    std::uint64_t samples = 0;
    double util_sum = 0.0;
    double util_max = 0.0;
    double depth_sum = 0.0;
    std::uint64_t depth_max = 0;
    std::uint64_t drops = 0;
    std::uint64_t marks = 0;
    std::uint64_t bytes = 0;
    stats::P2Quantile util_p99{0.99};
  };

  static stats::LogHistogram make_util_hist() {
    // Utilization lives in [0, 1]: 1e-4..2 at 24 buckets/decade keeps the
    // p99 within ~10% multiplicative error in ~104 buckets.
    return stats::LogHistogram(1e-4, 2.0, 24);
  }
  static stats::LogHistogram make_depth_hist() {
    // Queue depths in packets: 1..1e6 at 12 buckets/decade.
    return stats::LogHistogram(1.0, 1e6, 12);
  }

  void fold_queue_sample(QueueState& qs, sim::Time now, sim::Time elapsed);
  void flush_window(sim::Time t_end);

  TelemetryConfig cfg_;
  std::vector<std::string> names_;        // canonical queue order
  std::vector<QueueState> queues_;        // parallel to names_
  std::vector<std::string> group_names_;  // tiers first, then pods
  std::vector<WindowAccum> window_;       // one per group, live window
  std::vector<RunAccum> run_;             // one per group, whole run
  std::vector<TelemetryWindowRow> rows_;  // flushed windows
  SpaceSavingSketch link_sketch_;
  SpaceSavingSketch flow_sketch_;
  std::uint64_t samples_ = 0;
  std::uint32_t windows_flushed_ = 0;
  sim::Time prev_sample_t_ = 0.0;
  sim::Time window_t0_ = 0.0;
};

}  // namespace pase::obs
