// k-ary fat-tree (Clos) fabric: k pods of k/2 edge + k/2 aggregation
// switches, (k/2)^2 core switches, and hosts_per_edge hosts under each edge
// switch. Every host pair in distinct pods has (k/2)^2 equal-cost paths, so
// routing relies on the switches' per-flow ECMP groups. Pod membership is
// recorded as the partition group of every pod switch and host, making pod
// boundaries (the core links) the natural cut edges for the parallel engine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "topo/topology.h"

namespace pase::topo {

struct FatTreeConfig {
  int k = 4;           // switch radix; must be even and >= 2
  int num_pods = 0;    // 0 means the full k pods
  // Hosts per edge switch = (k/2) * oversubscription (1.0 = rearrangeably
  // non-blocking, 2.0 = 2:1 oversubscribed at the edge uplinks).
  double oversubscription = 1.0;
  double host_rate_bps = 1e9;
  double fabric_rate_bps = 10e9;
  sim::Time per_link_delay = 25e-6;
  std::uint64_t ecmp_seed = 0;

  int pods() const { return num_pods > 0 ? num_pods : k; }
  int edges_per_pod() const { return k / 2; }
  int aggs_per_pod() const { return k / 2; }
  int num_cores() const { return (k / 2) * (k / 2); }
  int hosts_per_edge() const {
    return static_cast<int>(static_cast<double>(k / 2) * oversubscription);
  }
  int hosts_per_pod() const { return edges_per_pod() * hosts_per_edge(); }
  int num_hosts() const { return pods() * hosts_per_pod(); }
  int num_switches() const {
    return num_cores() + pods() * (edges_per_pod() + aggs_per_pod());
  }
};

struct FatTree {
  std::unique_ptr<Topology> topo;
  std::vector<net::Switch*> cores;
  std::vector<net::Switch*> aggs;   // pod-major: pod * k/2 + a
  std::vector<net::Switch*> edges;  // pod-major: pod * k/2 + e
  FatTreeConfig config;
};

FatTree build_fat_tree(sim::Simulator& sim, const FatTreeConfig& cfg,
                       const QueueFactory& make_queue);

}  // namespace pase::topo
