#include "topo/topology.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

namespace pase::topo {

net::Switch* Topology::add_switch(const std::string& name) {
  auto sw = std::make_unique<net::Switch>(next_id(), name);
  net::Switch* raw = sw.get();
  switches_.push_back(std::move(sw));
  nodes_.push_back(raw);
  adj_.emplace_back();
  return raw;
}

net::Host* Topology::add_host(const std::string& name, net::Switch* tor,
                              double rate_bps, sim::Time prop_delay,
                              const QueueFactory& make_queue) {
  auto host = std::make_unique<net::Host>(next_id(), name);
  net::Host* raw = host.get();
  hosts_.push_back(std::move(host));
  nodes_.push_back(raw);
  adj_.emplace_back();

  // Uplink host -> tor.
  raw->attach_uplink(
      make_queue(rate_bps),
      std::make_unique<net::Link>(*sim_, rate_bps, prop_delay,
                                  name + "->" + tor->name()),
      tor);
  // Downlink tor -> host.
  const int port = tor->add_port(
      make_queue(rate_bps),
      std::make_unique<net::Link>(*sim_, rate_bps, prop_delay,
                                  tor->name() + "->" + name),
      raw);
  tor->set_route(raw->id(), port);

  add_edge_pair(raw->id(), tor->id(), prop_delay);
  return raw;
}

void Topology::connect_switches(net::Switch* a, net::Switch* b,
                                double rate_bps, sim::Time prop_delay,
                                const QueueFactory& make_queue) {
  a->add_port(make_queue(rate_bps),
              std::make_unique<net::Link>(*sim_, rate_bps, prop_delay,
                                          a->name() + "->" + b->name()),
              b);
  b->add_port(make_queue(rate_bps),
              std::make_unique<net::Link>(*sim_, rate_bps, prop_delay,
                                          b->name() + "->" + a->name()),
              a);
  add_edge_pair(a->id(), b->id(), prop_delay);
}

void Topology::add_edge_pair(net::NodeId a, net::NodeId b, sim::Time delay) {
  adj_[static_cast<std::size_t>(a)].push_back(HalfEdge{b, delay});
  adj_[static_cast<std::size_t>(b)].push_back(HalfEdge{a, delay});
}

void Topology::set_partition_group(net::NodeId id, int group) {
  if (static_cast<std::size_t>(id) >= partition_group_.size()) {
    partition_group_.resize(static_cast<std::size_t>(id) + 1, -1);
  }
  partition_group_[static_cast<std::size_t>(id)] = group;
}

net::Node* Topology::node(net::NodeId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size()) return nullptr;
  return nodes_[static_cast<std::size_t>(id)];
}

std::vector<std::int32_t> Topology::hop_distances(
    std::span<const net::NodeId> sources) const {
  std::vector<std::int32_t> dist(nodes_.size(), -1);
  std::deque<net::NodeId> frontier(sources.begin(), sources.end());
  for (const net::NodeId s : sources) dist[static_cast<std::size_t>(s)] = 0;
  while (!frontier.empty()) {
    const net::NodeId cur = frontier.front();
    frontier.pop_front();
    const std::int32_t d = dist[static_cast<std::size_t>(cur)];
    for (const HalfEdge& e : adj_[static_cast<std::size_t>(cur)]) {
      auto& dn = dist[static_cast<std::size_t>(e.to)];
      if (dn != -1) continue;
      dn = d + 1;
      frontier.push_back(e.to);
    }
  }
  return dist;
}

void Topology::build_routes() {
  if (route_installer_) {
    route_installer_(*this);
  } else {
    install_bfs_routes();
  }
  finalize_switch_config();
}

void Topology::build_routes_bfs() {
  install_bfs_routes();
  finalize_switch_config();
}

void Topology::compute_tiers() {
  // One multi-source BFS from every host; deeper nodes are capped at the
  // core so every consumer can index by the four named tiers.
  constexpr std::int32_t kCore = static_cast<std::int32_t>(Tier::kCore);
  std::vector<net::NodeId> host_ids;
  host_ids.reserve(hosts_.size());
  for (const auto& h : hosts_) host_ids.push_back(h->id());
  const std::vector<std::int32_t> dist = hop_distances(host_ids);
  tier_.assign(nodes_.size(), Tier::kHost);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (dist[i] < 0) {
      throw std::runtime_error("topology is disconnected: no host reaches " +
                               nodes_[i]->name());
    }
    tier_[i] = static_cast<Tier>(std::min(dist[i], kCore));
  }
}

int Topology::up_port(const net::Switch& sw) const {
  const Tier above = static_cast<Tier>(static_cast<int>(tier(sw.id())) + 1);
  for (int p = 0; p < sw.num_ports(); ++p) {
    if (tier(sw.port_neighbor(p)->id()) == above) return p;
  }
  return -1;
}

std::vector<net::Link*> Topology::core_links() const {
  std::vector<net::Link*> links;
  for (const auto& sw : switches_) {
    if (tier(sw->id()) != Tier::kCore) continue;
    for (int p = 0; p < sw->num_ports(); ++p) {
      links.push_back(&sw->port_link(p));
    }
  }
  for (const auto& sw : switches_) {
    if (tier(sw->id()) != Tier::kAgg) continue;
    for (int p = 0; p < sw->num_ports(); ++p) {
      if (tier(sw->port_neighbor(p)->id()) == Tier::kCore) {
        links.push_back(&sw->port_link(p));
      }
    }
  }
  return links;
}

void Topology::install_bfs_routes() {
  // Per destination: one BFS yields min-hop distances, then every switch
  // installs all ports whose neighbor is strictly closer to the destination
  // (in port order, so tables depend only on construction order). A single
  // qualifying port is a plain table entry — tree topologies produce exactly
  // the unique-path tables the single-path router did.
  std::vector<std::vector<int>> ports;  // scratch, reused across switches
  for (const net::Node* dst : nodes_) {
    const net::NodeId to = dst->id();
    const std::vector<std::int32_t> dist = hop_distances({&to, 1});
    for (auto& sw : switches_) {
      if (sw->id() == dst->id()) continue;
      const std::int32_t d_sw = dist[static_cast<std::size_t>(sw->id())];
      if (d_sw < 0) {
        throw std::runtime_error("topology is disconnected: no path " +
                                 sw->name() + " -> " + dst->name());
      }
      std::vector<int> eq_ports;
      for (int port = 0; port < sw->num_ports(); ++port) {
        const net::NodeId n = sw->port_neighbor(port)->id();
        if (dist[static_cast<std::size_t>(n)] == d_sw - 1) {
          eq_ports.push_back(port);
        }
      }
      if (eq_ports.empty()) {
        throw std::runtime_error("topology is disconnected: no path " +
                                 sw->name() + " -> " + dst->name());
      }
      sw->set_route_group(dst->id(), eq_ports);
    }
  }
}

void Topology::finalize_switch_config() {
  compute_tiers();
  for (auto& sw : switches_) {
    sw->set_ecmp_seed(ecmp_seed_);
    sw->set_name_resolver([this](net::NodeId id) {
      const net::Node* n = node(id);
      return n ? n->name() : "#" + std::to_string(id);
    });
  }
}

std::size_t Topology::route_table_bytes() const {
  std::size_t total = 0;
  for (const auto& sw : switches_) total += sw->route_state_bytes();
  return total;
}

sim::Time Topology::propagation_delay(net::NodeId from, net::NodeId to) const {
  if (from == to) return 0.0;
  const std::vector<std::int32_t> dist = hop_distances({&to, 1});
  if (from < 0 || static_cast<std::size_t>(from) >= dist.size() ||
      dist[static_cast<std::size_t>(from)] < 0) {
    throw std::runtime_error("no path between nodes");
  }
  // Walk one deterministic min-hop path: at each node take the first
  // adjacency (construction order) that is strictly closer to `to`.
  sim::Time total = 0.0;
  net::NodeId cur = from;
  while (cur != to) {
    const std::int32_t d = dist[static_cast<std::size_t>(cur)];
    bool stepped = false;
    for (const HalfEdge& e : adj_[static_cast<std::size_t>(cur)]) {
      if (dist[static_cast<std::size_t>(e.to)] == d - 1) {
        total += e.delay;
        cur = e.to;
        stepped = true;
        break;
      }
    }
    if (!stepped) {
      throw std::runtime_error("routing loop detected");
    }
  }
  return total;
}

void Topology::for_each_queue(
    const std::function<void(net::NodeId, net::Queue&)>& fn) const {
  for (const auto& h : hosts_) fn(h->id(), h->uplink_queue());
  for (const auto& sw : switches_) {
    for (int p = 0; p < sw->num_ports(); ++p) fn(sw->id(), sw->port_queue(p));
  }
}

std::uint64_t Topology::total_drops() const {
  std::uint64_t n = 0;
  for_each_queue([&n](net::NodeId, net::Queue& q) { n += q.drops(); });
  return n;
}

std::uint64_t Topology::total_enqueues() const {
  std::uint64_t n = 0;
  for_each_queue([&n](net::NodeId, net::Queue& q) { n += q.enqueues(); });
  return n;
}

}  // namespace pase::topo
