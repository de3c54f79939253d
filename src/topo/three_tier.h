// The paper's baseline simulation topology (Fig. 8): a 3-tier tree of
// 4 ToR switches x 40 hosts, 2 aggregation switches, 1 core switch.
// Host links are 1 Gbps, fabric links 10 Gbps, giving 4:1 oversubscription
// at the ToR uplink. End-to-end propagation RTT via the core is 300 us.
#pragma once

#include <memory>
#include <vector>

#include "topo/topology.h"

namespace pase::topo {

struct ThreeTierConfig {
  int num_tors = 4;
  int hosts_per_tor = 40;
  int tors_per_agg = 2;
  double host_rate_bps = 1e9;
  double fabric_rate_bps = 10e9;
  // 25 us per hop x 12 hops (6 each way) = 300 us core RTT, matching §4.1.
  sim::Time per_link_delay = 25e-6;
};

struct ThreeTier {
  std::unique_ptr<Topology> topo;
  std::vector<net::Switch*> tors;
  std::vector<net::Switch*> aggs;
  net::Switch* core = nullptr;
  ThreeTierConfig config;
};

ThreeTier build_three_tier(sim::Simulator& sim, const ThreeTierConfig& cfg,
                           const QueueFactory& make_queue);

}  // namespace pase::topo
