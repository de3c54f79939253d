#include "workload/flow_generator.h"

#include <algorithm>
#include <stdexcept>

namespace pase::workload {

namespace {
// Short flows begin after a brief warm-up so background flows are already
// occupying the fabric, as in the paper's setup.
constexpr sim::Time kArrivalsBegin = 10e-3;
// Background flows are sized to outlast any experiment.
constexpr std::uint64_t kBackgroundBytes = 10'000'000'000ULL;
}  // namespace

namespace {
double mean_flow_size(const WorkloadConfig& cfg) {
  switch (cfg.size_dist) {
    case SizeDistribution::kWebSearch:
      return web_search_cdf().mean();
    case SizeDistribution::kDataMining:
      return data_mining_cdf().mean();
    case SizeDistribution::kUniform:
      break;
  }
  return (cfg.size_min_bytes + cfg.size_max_bytes) / 2.0;
}

double sample_size(const WorkloadConfig& cfg, sim::Rng& rng) {
  switch (cfg.size_dist) {
    case SizeDistribution::kWebSearch:
      return web_search_cdf().sample(rng);
    case SizeDistribution::kDataMining:
      return data_mining_cdf().sample(rng);
    case SizeDistribution::kUniform:
      break;
  }
  return rng.uniform(cfg.size_min_bytes, cfg.size_max_bytes);
}
}  // namespace

double arrival_rate_per_sec(const WorkloadConfig& cfg) {
  const double mean_size = mean_flow_size(cfg);
  const double ref_capacity = cfg.pattern == Pattern::kLeftRight
                                  ? cfg.bottleneck_rate_bps
                                  : cfg.host_rate_bps * cfg.num_hosts;
  return cfg.load * ref_capacity / (mean_size * 8.0);
}

namespace {

// Appends one query's worth of incast flows: `fanout` distinct workers all
// answering the same aggregator at the same instant.
void emit_incast_query(const WorkloadConfig& cfg, sim::Rng& rng, double t,
                       int aggregator, net::FlowId& next_id,
                       std::uint64_t task_id,
                       std::vector<transport::Flow>& flows) {
  std::vector<int> workers;
  while (static_cast<int>(workers.size()) <
         std::min(cfg.incast_fanout, cfg.num_hosts - 1)) {
    const int w = static_cast<int>(rng.uniform_int(0, cfg.num_hosts - 1));
    if (w == aggregator) continue;
    bool dup = false;
    for (int x : workers) dup |= (x == w);
    if (!dup) workers.push_back(w);
  }
  for (int w : workers) {
    transport::Flow f;
    f.id = next_id++;
    f.start_time = t;
    f.src = static_cast<net::NodeId>(w);
    f.dst = static_cast<net::NodeId>(aggregator);
    f.size_bytes = static_cast<std::uint64_t>(sample_size(cfg, rng));
    if (f.size_bytes == 0) f.size_bytes = 1;
    if (cfg.deadline_max > 0.0) {
      f.deadline = t + rng.uniform(cfg.deadline_min, cfg.deadline_max);
    }
    if (cfg.assign_task_ids) f.task_id = task_id;
    flows.push_back(f);
  }
}

}  // namespace

std::vector<transport::Flow> generate_flows(const WorkloadConfig& cfg) {
  // Caller input, checked in every build: with one host the destination
  // redraw loops below never terminate.
  if (cfg.num_hosts < 2) {
    throw std::invalid_argument("generate_flows: num_hosts must be >= 2");
  }
  if (cfg.pattern == Pattern::kLeftRight &&
      (cfg.left_hosts <= 0 || cfg.left_hosts >= cfg.num_hosts)) {
    throw std::invalid_argument(
        "generate_flows: left-right needs 0 < left_hosts < num_hosts");
  }
  sim::Rng rng(cfg.seed);
  std::vector<transport::Flow> flows;
  flows.reserve(static_cast<std::size_t>(cfg.num_flows) +
                static_cast<std::size_t>(cfg.num_background_flows));

  const double rate = arrival_rate_per_sec(cfg);
  double t = kArrivalsBegin;
  int next_aggregator = 0;
  net::FlowId next_id = 1;

  if (cfg.pattern == Pattern::kIncast) {
    // Flows arrive in query bursts: the per-query rate divides the flow
    // arrival rate by the fanout so the offered load stays `load`.
    const int fanout = std::min(cfg.incast_fanout, cfg.num_hosts - 1);
    const double query_rate = rate / fanout;
    std::uint64_t task_id = 1;
    while (static_cast<int>(flows.size()) < cfg.num_flows) {
      t += rng.exponential(1.0 / query_rate);
      emit_incast_query(cfg, rng, t, next_aggregator, next_id, task_id++,
                        flows);
      next_aggregator = (next_aggregator + 1) % cfg.num_hosts;
    }
    while (static_cast<int>(flows.size()) > cfg.num_flows) flows.pop_back();
  } else
  for (int i = 0; i < cfg.num_flows; ++i) {
    t += rng.exponential(1.0 / rate);
    transport::Flow f;
    f.id = next_id++;
    f.start_time = t;
    f.size_bytes = static_cast<std::uint64_t>(sample_size(cfg, rng));
    if (f.size_bytes == 0) f.size_bytes = 1;
    if (cfg.deadline_max > 0.0) {
      f.deadline = t + rng.uniform(cfg.deadline_min, cfg.deadline_max);
    }
    switch (cfg.pattern) {
      case Pattern::kLeftRight:
        f.src = static_cast<net::NodeId>(rng.uniform_int(0, cfg.left_hosts - 1));
        f.dst = static_cast<net::NodeId>(
            rng.uniform_int(cfg.left_hosts, cfg.num_hosts - 1));
        break;
      case Pattern::kIntraRackRandom: {
        f.src = static_cast<net::NodeId>(rng.uniform_int(0, cfg.num_hosts - 1));
        do {
          f.dst =
              static_cast<net::NodeId>(rng.uniform_int(0, cfg.num_hosts - 1));
        } while (f.dst == f.src);
        break;
      }
      case Pattern::kWorkerAggregator: {
        f.dst = static_cast<net::NodeId>(next_aggregator);
        next_aggregator = (next_aggregator + 1) % cfg.num_hosts;
        do {
          f.src =
              static_cast<net::NodeId>(rng.uniform_int(0, cfg.num_hosts - 1));
        } while (f.src == f.dst);
        break;
      }
      case Pattern::kIncast:
        break;  // generated in query bursts above
    }
    flows.push_back(f);
  }

  for (int i = 0; i < cfg.num_background_flows; ++i) {
    transport::Flow f;
    f.id = next_id++;
    f.start_time = 0.0;
    f.size_bytes = kBackgroundBytes;
    f.background = true;
    if (cfg.pattern == Pattern::kLeftRight) {
      f.src = static_cast<net::NodeId>(rng.uniform_int(0, cfg.left_hosts - 1));
      f.dst = static_cast<net::NodeId>(
          rng.uniform_int(cfg.left_hosts, cfg.num_hosts - 1));
    } else {
      f.src = static_cast<net::NodeId>(rng.uniform_int(0, cfg.num_hosts - 1));
      do {
        f.dst = static_cast<net::NodeId>(rng.uniform_int(0, cfg.num_hosts - 1));
      } while (f.dst == f.src);
    }
    flows.push_back(f);
  }
  return flows;
}

}  // namespace pase::workload
