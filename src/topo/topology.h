// Topology container: owns all hosts, switches, queues and links, wires them
// together, and computes static shortest-path routing. Where several
// equal-cost shortest paths exist (fat-tree fabrics), every min-hop port is
// installed as an ECMP group on the switch; tree topologies degenerate to
// the single-path tables they always had.
//
// It is also the one fabric model the layers above read: every node's tier
// is derived from the adjacency alone (hop distance to the nearest host),
// its pod is its partition group, a switch's first port one tier up names
// the link it hangs from, and the core-facing links follow from the tiers.
// No caller needs to know which builder made the fabric.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/host.h"
#include "net/switch.h"
#include "sim/simulator.h"

namespace pase::topo {

// Builds the queue for a link of the given capacity. Experiments choose the
// fabric (RED/ECN for DCTCP-family, priority bank for PASE, pFabric queue...)
// by supplying a factory.
using QueueFactory =
    std::function<std::unique_ptr<net::Queue>(double link_rate_bps)>;

// A node's fabric tier: its hop distance to the nearest host, capped at the
// core. Hosts are 0, ToR/edge switches 1, aggregation switches 2, cores 3.
enum class Tier : std::uint8_t { kHost = 0, kEdge = 1, kAgg = 2, kCore = 3 };
inline constexpr int kNumTiers = 4;

inline const char* tier_name(Tier t) {
  constexpr const char* kNames[kNumTiers] = {"host", "edge", "agg", "core"};
  return kNames[static_cast<int>(t)];
}

class Topology {
 public:
  explicit Topology(sim::Simulator& sim) : sim_(&sim) {}

  net::Switch* add_switch(const std::string& name);

  // Creates a host attached to `tor` by a symmetric pair of links
  // (host->tor uplink and tor->host downlink) of the given rate/delay.
  net::Host* add_host(const std::string& name, net::Switch* tor,
                      double rate_bps, sim::Time prop_delay,
                      const QueueFactory& make_queue);

  // Adds a symmetric pair of links between two switches.
  void connect_switches(net::Switch* a, net::Switch* b, double rate_bps,
                        sim::Time prop_delay, const QueueFactory& make_queue);

  // Computes routing tables and every node's tier, and stamps the ECMP seed
  // and name resolver onto every switch. Must be called after all
  // nodes/links exist; a node no host reaches is an error. When a
  // structural route installer is registered (fat-tree), it runs instead of
  // the generic per-destination BFS — O(V+E) arithmetic installs versus
  // O(V * E) search — and re-runs on every call, so seed changes rebuild
  // identically without leaking group state.
  void build_routes();

  // Always the generic fallback: per destination, every port on a min-hop
  // path is installed (a multi-port destination becomes an ECMP group hashed
  // per flow). Public as the equivalence oracle for structural installers.
  void build_routes_bfs();

  // Registers a structural route synthesizer that build_routes dispatches
  // to. The installer must fully rebuild every switch's tables (they call
  // Switch::clear_routes first), since build_routes may run repeatedly.
  using RouteInstaller = std::function<void(Topology&)>;
  void set_route_installer(RouteInstaller installer) {
    route_installer_ = std::move(installer);
  }

  // Total bytes held by all switches' route tables (compressed windows,
  // intervals, groups) — the scale gate benches report this per fabric.
  std::size_t route_table_bytes() const;

  // Seed folded into every switch's per-flow path hash. Set before
  // build_routes (or call build_routes again); same seed + same topology
  // construction order => identical path assignment, bit-reproducible.
  void set_ecmp_seed(std::uint64_t seed) { ecmp_seed_ = seed; }
  std::uint64_t ecmp_seed() const { return ecmp_seed_; }

  // Optional partitioning hint: nodes sharing a group (e.g. a fat-tree pod)
  // are kept in one domain by partition_topology, making the group boundary
  // the cut. -1 (default) means unconstrained.
  void set_partition_group(net::NodeId id, int group);
  int partition_group(net::NodeId id) const {
    if (id < 0 || static_cast<std::size_t>(id) >= partition_group_.size()) {
      return -1;
    }
    return partition_group_[static_cast<std::size_t>(id)];
  }

  // Fabric roles, valid once build_routes has run. A node's pod is its
  // partition group (-1 outside any pod).
  Tier tier(net::NodeId id) const {
    return tier_[static_cast<std::size_t>(id)];
  }
  // The switch a host hangs off: its uplink's far end.
  static net::Switch& tor_of(net::Host& h) {
    return static_cast<net::Switch&>(*h.uplink().destination());
  }
  // The first port of `sw`, in port order, whose neighbor sits one tier up;
  // -1 when nothing is above it (a rack's ToR, a core).
  int up_port(const net::Switch& sw) const;
  // Directed links touching the core tier — the surface ECMP is supposed to
  // balance: every port of each core, then each agg's ports toward the
  // cores, in switch order. Empty when the fabric has no core.
  std::vector<net::Link*> core_links() const;

  sim::Simulator& simulator() { return *sim_; }

  const std::vector<std::unique_ptr<net::Host>>& hosts() const {
    return hosts_;
  }
  const std::vector<std::unique_ptr<net::Switch>>& switches() const {
    return switches_;
  }
  net::Host* host(std::size_t i) { return hosts_[i].get(); }
  std::size_t num_hosts() const { return hosts_.size(); }

  net::Node* node(net::NodeId id) const;

  // One-way propagation delay along a deterministic min-hop path between two
  // nodes (the unique path on tree topologies; the first-constructed
  // shortest path otherwise).
  sim::Time propagation_delay(net::NodeId from, net::NodeId to) const;
  // Round-trip propagation delay (no queueing/serialization).
  sim::Time propagation_rtt(net::NodeId a, net::NodeId b) const {
    return propagation_delay(a, b) + propagation_delay(b, a);
  }

  // Aggregate fabric statistics (all switch port queues + host uplinks).
  std::uint64_t total_drops() const;
  std::uint64_t total_enqueues() const;

  // Visits every queue in the topology with the node that transmits from it:
  // host uplinks in host order, then switch ports in construction order.
  void for_each_queue(
      const std::function<void(net::NodeId owner, net::Queue&)>& fn) const;

 private:
  // Directed half-edge in a node's adjacency list (insertion order matches
  // link construction order, which keeps route tables deterministic).
  struct HalfEdge {
    net::NodeId to;
    sim::Time delay;
  };

  net::NodeId next_id() {
    return static_cast<net::NodeId>(hosts_.size() + switches_.size());
  }

  void add_edge_pair(net::NodeId a, net::NodeId b, sim::Time delay);

  // Min-hop distance from every node to the nearest of `sources` (-1 when
  // unreachable).
  std::vector<std::int32_t> hop_distances(
      std::span<const net::NodeId> sources) const;

  void install_bfs_routes();
  void finalize_switch_config();
  void compute_tiers();

  sim::Simulator* sim_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<net::Switch>> switches_;
  std::vector<net::Node*> nodes_;            // indexed by node id
  std::vector<std::vector<HalfEdge>> adj_;   // indexed by node id
  std::vector<int> partition_group_;         // indexed by node id; -1 = none
  std::vector<Tier> tier_;                   // indexed by node id
  std::uint64_t ecmp_seed_ = 0;
  RouteInstaller route_installer_;
};

}  // namespace pase::topo
