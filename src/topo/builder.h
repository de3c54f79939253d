// A common seam over the concrete topologies.
//
// A TopologyBuilder knows how to size a workload for its topology (hints())
// and how to materialize the node/link graph for a given fabric
// (build(sim, queue_factory)). What it returns is a plain Topology: every
// structural fact a control plane or the telemetry plane needs — each
// node's tier and pod, a host's ToR, the links above a switch, the core
// links — is derived there from the graph itself, so the caller never knows
// whether it is looking at a rack, a tree, or something new. The scenario
// harness only ever sees these two types, so adding a topology means adding
// a builder, not editing the harness.
#pragma once

#include <memory>

#include "topo/fat_tree.h"
#include "topo/single_rack.h"
#include "topo/three_tier.h"
#include "topo/topology.h"

namespace pase::topo {

// Workload sizing facts derivable from the config alone, before building.
struct WorkloadHints {
  int num_hosts = 0;
  int left_hosts = 0;  // hosts in the left subtree; 0 when not partitioned
  double host_rate_bps = 0.0;
  double bottleneck_rate_bps = 0.0;  // capacity offered load is defined against
};

class TopologyBuilder {
 public:
  virtual ~TopologyBuilder() = default;
  virtual WorkloadHints hints() const = 0;
  virtual std::unique_ptr<Topology> build(
      sim::Simulator& sim, const QueueFactory& make_queue) const = 0;
};

class SingleRackBuilder : public TopologyBuilder {
 public:
  explicit SingleRackBuilder(SingleRackConfig cfg) : cfg_(cfg) {}
  WorkloadHints hints() const override;
  std::unique_ptr<Topology> build(
      sim::Simulator& sim, const QueueFactory& make_queue) const override;

 private:
  SingleRackConfig cfg_;
};

class ThreeTierBuilder : public TopologyBuilder {
 public:
  explicit ThreeTierBuilder(ThreeTierConfig cfg) : cfg_(cfg) {}
  WorkloadHints hints() const override;
  std::unique_ptr<Topology> build(
      sim::Simulator& sim, const QueueFactory& make_queue) const override;

 private:
  ThreeTierConfig cfg_;
};

class FatTreeBuilder : public TopologyBuilder {
 public:
  explicit FatTreeBuilder(FatTreeConfig cfg) : cfg_(cfg) {}
  WorkloadHints hints() const override;
  std::unique_ptr<Topology> build(
      sim::Simulator& sim, const QueueFactory& make_queue) const override;

 private:
  FatTreeConfig cfg_;
};

}  // namespace pase::topo
