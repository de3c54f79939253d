#include "topo/three_tier.h"

#include <stdexcept>
#include <string>

namespace pase::topo {

ThreeTier build_three_tier(sim::Simulator& sim, const ThreeTierConfig& cfg,
                           const QueueFactory& make_queue) {
  // Always-on validation, as in build_fat_tree: direct callers bypass
  // ScenarioConfig validation, and a zero or non-dividing tors_per_agg
  // would divide by zero or index past the aggs in release builds.
  if (cfg.num_tors < 1 || cfg.hosts_per_tor < 1 || cfg.tors_per_agg < 1) {
    throw std::invalid_argument(
        "three-tier num_tors, hosts_per_tor and tors_per_agg must be >= 1, "
        "got " + std::to_string(cfg.num_tors) + ", " +
        std::to_string(cfg.hosts_per_tor) + ", " +
        std::to_string(cfg.tors_per_agg));
  }
  if (cfg.num_tors % cfg.tors_per_agg != 0) {
    throw std::invalid_argument(
        "three-tier num_tors (" + std::to_string(cfg.num_tors) +
        ") must be a multiple of tors_per_agg (" +
        std::to_string(cfg.tors_per_agg) + ")");
  }
  ThreeTier t;
  t.config = cfg;
  t.topo = std::make_unique<Topology>(sim);
  Topology& topo = *t.topo;

  t.core = topo.add_switch("core");
  const int num_aggs = cfg.num_tors / cfg.tors_per_agg;
  for (int a = 0; a < num_aggs; ++a) {
    net::Switch* agg = topo.add_switch("agg" + std::to_string(a));
    t.aggs.push_back(agg);
    topo.connect_switches(agg, t.core, cfg.fabric_rate_bps,
                          cfg.per_link_delay, make_queue);
  }
  for (int r = 0; r < cfg.num_tors; ++r) {
    net::Switch* tor = topo.add_switch("tor" + std::to_string(r));
    t.tors.push_back(tor);
    topo.connect_switches(tor, t.aggs[static_cast<std::size_t>(r / cfg.tors_per_agg)],
                          cfg.fabric_rate_bps, cfg.per_link_delay, make_queue);
    for (int h = 0; h < cfg.hosts_per_tor; ++h) {
      topo.add_host("h" + std::to_string(r) + "." + std::to_string(h), tor,
                    cfg.host_rate_bps, cfg.per_link_delay, make_queue);
    }
  }
  topo.build_routes();
  return t;
}

}  // namespace pase::topo
