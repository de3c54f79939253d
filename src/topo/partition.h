// Deterministic topology partitioner for the conservative parallel engine.
//
// Hosts are first grouped into atomic units: maximal runs of consecutive
// creation indices sharing a partition group (a fat-tree pod), with
// ungrouped hosts as singleton units. Units are split into contiguous
// equal blocks — so on group-free topologies this degenerates exactly to
// the old per-host block split, while grouped topologies never see a group
// straddle a domain boundary. Switches carrying a partition group follow
// their group's hosts. Each remaining switch (ToRs, three-tier aggs and
// core, fat-tree cores) joins the domain holding most of its already
// assigned neighbors; ties go to the domain with the fewest ports so far,
// then to the lowest domain id. A ToR thus follows the majority of its
// hosts, and fat-tree cores — one agg neighbor in every pod — deal out
// evenly over the domains instead of piling into the first one. Every link
// whose endpoints land in different domains is a cut link; the minimum
// propagation delay over the cuts is the engine's lookahead. A partition
// with a zero-delay cut link (or a single domain) is unusable and the
// scenario harness falls back to sequential execution.
//
// How many domains to ask for is a separate choice (domains_for_workers):
// one per group when the topology declares groups, so the parallel engine's
// workers can balance whole pods dynamically; one per worker otherwise.
#pragma once

#include <vector>

#include "topo/topology.h"

namespace pase::topo {

struct Partition {
  int domains = 1;
  std::vector<int> domain_of;  // indexed by NodeId
  struct CutLink {
    net::Link* link;
    int src_domain;  // domain of the node that transmits on the link
    int dst_domain;
  };
  std::vector<CutLink> cut_links;
  // min prop delay over cut links; infinity when there are no cuts.
  sim::Time lookahead = sim::kTimeInfinity;

  // True when the conservative engine can run this partition: more than one
  // domain and strictly positive lookahead on every cut edge.
  bool usable() const { return domains > 1 && lookahead > 0.0; }

  int domain_of_node(net::NodeId id) const {
    return domain_of[static_cast<std::size_t>(id)];
  }
};

// Splits `topo` into at most `domains` domains (clamped to the number of
// atomic host units — the host count when no partition groups are set).
// Deterministic: depends only on the topology's creation order and groups.
Partition partition_topology(const Topology& topo, int domains);

// The domain count a run on `workers` threads partitions into: the number
// of atomic host units when any host carries a partition group (one domain
// per fat-tree pod, at any worker count), `workers` otherwise.
int domains_for_workers(const Topology& topo, int workers);

}  // namespace pase::topo
