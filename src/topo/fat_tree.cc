#include "topo/fat_tree.h"

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace pase::topo {

namespace {

std::vector<int> iota_ports(int lo, int hi) {
  std::vector<int> ports(static_cast<std::size_t>(hi - lo));
  std::iota(ports.begin(), ports.end(), lo);
  return ports;
}

// Structural route synthesizer: installs the exact tables per-destination
// BFS would produce (same ports, same group order — pinned by the
// equivalence tests), but arithmetically from {core, pod, edge, host}
// indices in O(V+E) total instead of O(V * E) search, and compressed —
// per-switch state is O(pod size + pods), independent of total host count.
//
// Node-id layout (construction order): cores occupy [0, C); pod p occupies
// the contiguous block starting at C + p*pod_size with its aggs first, then
// each edge switch immediately followed by its hosts. Port layout: edge
// ports [0, A) go to aggs in slot order then [A, A+H) to hosts; agg slot a's
// ports [0, half) go to cores [a*half, (a+1)*half) then [half, k) to edges;
// core c's port p goes to pod p's slot-(c/half) agg.
void install_structural_routes(const FatTreeConfig& cfg,
                               const std::vector<net::Switch*>& cores,
                               const std::vector<net::Switch*>& aggs,
                               const std::vector<net::Switch*>& edges) {
  const int half = cfg.k / 2;
  const int P = cfg.pods();
  const int A = cfg.aggs_per_pod();
  const int E = cfg.edges_per_pod();
  const int H = cfg.hosts_per_edge();
  const int C = cfg.num_cores();
  const int pod_size = A + E * (1 + H);
  const net::NodeId n_nodes = C + P * pod_size;
  const auto pod_base = [&](int p) {
    return static_cast<net::NodeId>(C + p * pod_size);
  };
  const auto agg_id = [&](int p, int a) {
    return static_cast<net::NodeId>(pod_base(p) + a);
  };
  const auto edge_id = [&](int p, int e) {
    return static_cast<net::NodeId>(pod_base(p) + A + e * (1 + H));
  };

  // Core c (plane a = c/half): any node in pod p exits port p — ONE strided
  // interval covers every pod. Other cores are reached through any pod's
  // slot-a agg (all ports equal-cost); the 1-wide window pins self=unrouted.
  for (int c = 0; c < C; ++c) {
    net::Switch* sw = cores[static_cast<std::size_t>(c)];
    sw->clear_routes();
    sw->set_route_id_bound(n_nodes);
    sw->set_dense_window(c, c + 1);
    sw->add_route_interval(0, C, sw->add_shared_group(iota_ports(0, P)));
    sw->add_route_interval_strided(C, n_nodes, 0, pod_size);
  }

  // Agg (p, a): own-plane cores are the strided ports [0, half); other-plane
  // cores and sibling aggs descend through the edges; same-slot foreign aggs
  // ride the default up-group, different-slot foreign aggs are equidistant
  // through every port. Everything else outside the pod defaults up to the
  // cores; the pod window holds the local stripe.
  for (int p = 0; p < P; ++p) {
    for (int a = 0; a < A; ++a) {
      net::Switch* sw = aggs[static_cast<std::size_t>(p * A + a)];
      sw->clear_routes();
      sw->set_route_id_bound(n_nodes);
      sw->set_dense_window(pod_base(p), pod_base(p) + pod_size);
      const std::int32_t down = sw->add_shared_group(iota_ports(half, half + E));
      const std::int32_t up = sw->add_shared_group(iota_ports(0, half));
      std::int32_t all = net::kInvalidNode;  // lazily allocated
      const auto all_ports = [&]() {
        if (all == net::kInvalidNode) {
          all = sw->add_shared_group(iota_ports(0, half + E));
        }
        return all;
      };
      sw->set_default_route_entry(up);
      if (a > 0) sw->add_route_interval(0, a * half, down);
      sw->add_route_interval_strided(a * half, (a + 1) * half, 0, 1);
      if ((a + 1) * half < C) sw->add_route_interval((a + 1) * half, C, down);
      for (int q = 0; q < P; ++q) {
        if (q == p) continue;
        if (a > 0) sw->add_route_interval(pod_base(q), pod_base(q) + a,
                                          all_ports());
        if (a + 1 < A) sw->add_route_interval(pod_base(q) + a + 1,
                                              pod_base(q) + A, all_ports());
      }
      for (int a2 = 0; a2 < A; ++a2) {
        if (a2 != a) sw->set_route_entry(agg_id(p, a2), down);
      }
      for (int e = 0; e < E; ++e) {
        const net::NodeId eid = edge_id(p, e);
        for (net::NodeId d = eid; d < eid + 1 + H; ++d) {
          sw->set_route(d, half + e);
        }
      }
    }
  }

  // Edge (p, e): cores are a strided single port (only the slot-(c/half) agg
  // neighbors core c's plane); a foreign pod's slot-a' agg is the single
  // port a' (only that slot's plane reaches it in two more hops); every
  // other remote node is the equal-cost up-group. Own aggs and hosts fill
  // the pod window.
  for (int p = 0; p < P; ++p) {
    for (int e = 0; e < E; ++e) {
      net::Switch* sw = edges[static_cast<std::size_t>(p * E + e)];
      sw->clear_routes();
      sw->set_route_id_bound(n_nodes);
      sw->set_dense_window(pod_base(p), pod_base(p) + pod_size);
      const std::int32_t up = sw->add_shared_group(iota_ports(0, A));
      sw->set_default_route_entry(up);
      sw->add_route_interval_strided(0, C, 0, half);
      for (int q = 0; q < P; ++q) {
        if (q == p) continue;
        sw->add_route_interval_strided(pod_base(q), pod_base(q) + A, 0, 1);
      }
      for (int a = 0; a < A; ++a) sw->set_route(agg_id(p, a), a);
      for (int e2 = 0; e2 < E; ++e2) {
        const net::NodeId eid = edge_id(p, e2);
        if (e2 == e) {
          for (int h = 0; h < H; ++h) sw->set_route(eid + 1 + h, A + h);
        } else {
          for (net::NodeId d = eid; d < eid + 1 + H; ++d) {
            sw->set_route_entry(d, up);
          }
        }
      }
    }
  }
}

}  // namespace

FatTree build_fat_tree(sim::Simulator& sim, const FatTreeConfig& cfg,
                       const QueueFactory& make_queue) {
  // Always-on validation (not assert): direct callers — tools/dump_topology,
  // tests, external embedders — bypass ScenarioConfig validation, and a
  // malformed fabric (odd k) must not build silently in release builds.
  if (cfg.k < 2 || cfg.k % 2 != 0) {
    throw std::invalid_argument("fat-tree radix k must be even and >= 2, got " +
                                std::to_string(cfg.k));
  }
  if (cfg.pods() < 1 || cfg.pods() > cfg.k) {
    throw std::invalid_argument("fat-tree pods must be in [1, k=" +
                                std::to_string(cfg.k) + "], got " +
                                std::to_string(cfg.pods()));
  }
  if (cfg.hosts_per_edge() < 1) {
    throw std::invalid_argument(
        "fat-tree hosts_per_edge must be >= 1, got " +
        std::to_string(cfg.hosts_per_edge()));
  }
  FatTree t;
  t.config = cfg;
  t.topo = std::make_unique<Topology>(sim);
  Topology& topo = *t.topo;
  topo.set_ecmp_seed(cfg.ecmp_seed);

  const int half_k = cfg.k / 2;

  // Core tier first, so cores occupy node ids [0, num_cores). Core c serves
  // aggregation slot c / half_k in every pod (plane-major numbering).
  for (int c = 0; c < cfg.num_cores(); ++c) {
    t.cores.push_back(topo.add_switch("core" + std::to_string(c)));
  }

  for (int p = 0; p < cfg.pods(); ++p) {
    const std::string pod = "p" + std::to_string(p);
    // Aggregation slot a connects to cores [a*half_k, (a+1)*half_k).
    for (int a = 0; a < cfg.aggs_per_pod(); ++a) {
      net::Switch* agg = topo.add_switch(pod + ".agg" + std::to_string(a));
      t.aggs.push_back(agg);
      topo.set_partition_group(agg->id(), p);
      for (int c = a * half_k; c < (a + 1) * half_k; ++c) {
        topo.connect_switches(agg, t.cores[static_cast<std::size_t>(c)],
                              cfg.fabric_rate_bps, cfg.per_link_delay,
                              make_queue);
      }
    }
    for (int e = 0; e < cfg.edges_per_pod(); ++e) {
      net::Switch* edge = topo.add_switch(pod + ".edge" + std::to_string(e));
      t.edges.push_back(edge);
      topo.set_partition_group(edge->id(), p);
      for (int a = 0; a < cfg.aggs_per_pod(); ++a) {
        topo.connect_switches(
            edge,
            t.aggs[static_cast<std::size_t>(p * cfg.aggs_per_pod() + a)],
            cfg.fabric_rate_bps, cfg.per_link_delay, make_queue);
      }
      for (int h = 0; h < cfg.hosts_per_edge(); ++h) {
        net::Host* host = topo.add_host(
            pod + ".e" + std::to_string(e) + ".h" + std::to_string(h), edge,
            cfg.host_rate_bps, cfg.per_link_delay, make_queue);
        topo.set_partition_group(host->id(), p);
      }
    }
  }

  // Register the structural synthesizer so build_routes (and every re-run,
  // e.g. after an ECMP seed change) installs compressed tables arithmetically
  // instead of per-destination BFS. The captured switch pointers stay valid
  // across FatTree moves — they point into the Topology's node storage.
  topo.set_route_installer(
      [cfg, cores = t.cores, aggs = t.aggs, edges = t.edges](Topology&) {
        install_structural_routes(cfg, cores, aggs, edges);
      });
  topo.build_routes();
  return t;
}

}  // namespace pase::topo
