#include "topo/builder.h"

namespace pase::topo {

WorkloadHints SingleRackBuilder::hints() const {
  WorkloadHints h;
  h.num_hosts = cfg_.num_hosts;
  h.host_rate_bps = cfg_.host_rate_bps;
  h.bottleneck_rate_bps = cfg_.host_rate_bps;
  return h;
}

std::unique_ptr<Topology> SingleRackBuilder::build(
    sim::Simulator& sim, const QueueFactory& make_queue) const {
  return build_single_rack(sim, cfg_, make_queue).topo;
}

WorkloadHints ThreeTierBuilder::hints() const {
  WorkloadHints h;
  h.num_hosts = cfg_.num_tors * cfg_.hosts_per_tor;
  h.left_hosts = h.num_hosts / 2;
  h.host_rate_bps = cfg_.host_rate_bps;
  h.bottleneck_rate_bps = cfg_.fabric_rate_bps;
  return h;
}

std::unique_ptr<Topology> ThreeTierBuilder::build(
    sim::Simulator& sim, const QueueFactory& make_queue) const {
  return build_three_tier(sim, cfg_, make_queue).topo;
}

WorkloadHints FatTreeBuilder::hints() const {
  WorkloadHints h;
  h.num_hosts = cfg_.num_hosts();
  h.left_hosts = h.num_hosts / 2;
  h.host_rate_bps = cfg_.host_rate_bps;
  h.bottleneck_rate_bps = cfg_.fabric_rate_bps;
  return h;
}

std::unique_ptr<Topology> FatTreeBuilder::build(
    sim::Simulator& sim, const QueueFactory& make_queue) const {
  return build_fat_tree(sim, cfg_, make_queue).topo;
}

}  // namespace pase::topo
