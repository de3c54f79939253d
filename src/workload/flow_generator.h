// Workload synthesis per the paper's §4.1: Poisson flow arrivals, uniform
// flow sizes, optional uniform deadlines, and the traffic patterns used in
// the evaluation (left-right inter-rack, intra-rack random/all-to-all,
// worker->aggregator), plus long-lived background flows.
#pragma once

#include <vector>

#include "sim/rng.h"
#include "transport/flow.h"
#include "workload/distributions.h"

namespace pase::workload {

enum class Pattern {
  // src, dst drawn uniformly (src != dst) from the rack / host set —
  // the "all-to-all" intra-rack scenario.
  kIntraRackRandom,
  // src uniform over the left subtree's hosts, dst uniform over the right's —
  // front-end/back-end racks separated by the core (Fig. 9a/10a).
  kLeftRight,
  // dst rotates round-robin over hosts (the aggregator), src uniform != dst —
  // each flow is an independent worker response.
  kWorkerAggregator,
  // Search-style partition/aggregate fan-in: each query picks the next
  // aggregator round-robin and `incast_fanout` distinct random workers send
  // their responses simultaneously (Fig. 4 scenario).
  kIncast,
};

enum class SizeDistribution {
  kUniform,     // U[size_min, size_max] — the paper's default (§4.1)
  kWebSearch,   // empirical heavy-tailed (DCTCP study)
  kDataMining,  // empirical, heavier tail (VL2 study)
};

struct WorkloadConfig {
  Pattern pattern = Pattern::kIntraRackRandom;
  double load = 0.5;  // of the reference capacity (see flows/sec derivation)
  int num_flows = 1000;
  SizeDistribution size_dist = SizeDistribution::kUniform;
  double size_min_bytes = 2e3;    // U[2 KB, 198 KB] default (§4.1)
  double size_max_bytes = 198e3;
  // Deadlines: 0/0 disables. The D2TCP scenario uses U[5 ms, 25 ms].
  double deadline_min = 0.0;
  double deadline_max = 0.0;
  int incast_fanout = 8;         // workers per query (kIncast)
  // Tag kIncast queries with task ids (for task-aware scheduling).
  bool assign_task_ids = false;
  int num_background_flows = 2;  // long-lived flows (§4.1)
  std::uint64_t seed = 1;

  // Host population the pattern draws from.
  int num_hosts = 0;         // total hosts (intra-rack patterns)
  int left_hosts = 0;        // for kLeftRight: hosts [0, left) -> [left, total)
  double host_rate_bps = 1e9;
  double bottleneck_rate_bps = 1e9;  // capacity the load is defined against
};

// The arrival rate that produces `load` on the pattern's reference links:
//   - kLeftRight: the shared agg->core bottleneck (`bottleneck_rate_bps`);
//   - intra-rack patterns: each host's access link.
double arrival_rate_per_sec(const WorkloadConfig& cfg);

// Materializes the flow list (sorted by start time). Flow ids start at 1;
// background flows get the highest ids and Flow::background = true. Throws
// std::invalid_argument when num_hosts < 2, or when a left-right pattern
// does not split the hosts (0 < left_hosts < num_hosts).
std::vector<transport::Flow> generate_flows(const WorkloadConfig& cfg);

}  // namespace pase::workload
