#include "topo/partition.h"

#include <algorithm>

#include "sim/dcheck.h"

namespace pase::topo {

namespace {

// Atomic units: maximal runs of consecutive hosts sharing a (non-negative)
// partition group; ungrouped hosts are singletons. Element i is the unit
// index of host creation-index i — nondecreasing by construction, so the
// unit count is back() + 1.
std::vector<std::size_t> host_units(const Topology& topo) {
  const auto& hosts = topo.hosts();
  std::vector<std::size_t> unit_of_host(hosts.size(), 0);
  std::size_t unit = 0;
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    const int g = topo.partition_group(hosts[i]->id());
    const int prev = topo.partition_group(hosts[i - 1]->id());
    if (g < 0 || g != prev) ++unit;
    unit_of_host[i] = unit;
  }
  return unit_of_host;
}

}  // namespace

int domains_for_workers(const Topology& topo, int workers) {
  for (const auto& h : topo.hosts()) {
    if (topo.partition_group(h->id()) >= 0) {
      return static_cast<int>(host_units(topo).back() + 1);
    }
  }
  return workers;
}

Partition partition_topology(const Topology& topo, int domains) {
  const auto& hosts = topo.hosts();
  const auto& switches = topo.switches();
  const std::size_t num_nodes = hosts.size() + switches.size();

  const std::vector<std::size_t> unit_of_host = host_units(topo);
  const std::size_t num_units = hosts.empty() ? 0 : unit_of_host.back() + 1;

  Partition part;
  part.domains = std::max(
      1, std::min(domains, static_cast<int>(num_units)));
  part.domain_of.assign(num_nodes, -1);
  if (part.domains <= 1) {
    std::fill(part.domain_of.begin(), part.domain_of.end(), 0);
    return part;
  }

  // Units: contiguous blocks, sizes differing by at most one. Unit u of U
  // goes to floor(u * D / U) — identical to the old per-host split when
  // every host is its own unit.
  std::vector<int> domain_of_unit(num_units);
  for (std::size_t u = 0; u < num_units; ++u) {
    domain_of_unit[u] = static_cast<int>(
        u * static_cast<std::size_t>(part.domains) / num_units);
  }
  // Remember where each group's first host landed so grouped switches can
  // follow their group (groups are small dense ints — pods — but tolerate
  // arbitrary values).
  std::vector<std::pair<int, int>> group_domain;  // (group, domain), sorted
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const int d = domain_of_unit[unit_of_host[i]];
    part.domain_of[static_cast<std::size_t>(hosts[i]->id())] = d;
    const int g = topo.partition_group(hosts[i]->id());
    if (g >= 0) {
      const auto it = std::lower_bound(
          group_domain.begin(), group_domain.end(), std::pair<int, int>{g, -1},
          [](const auto& a, const auto& b) { return a.first < b.first; });
      if (it == group_domain.end() || it->first != g) {
        group_domain.insert(it, {g, d});
      }
    }
  }

  // Grouped switches (pod aggs/edges) follow their group's hosts, keeping
  // whole pods inside one domain so the pod boundary is the cut.
  for (const auto& sw : switches) {
    const int g = topo.partition_group(sw->id());
    if (g < 0) continue;
    const auto it = std::lower_bound(
        group_domain.begin(), group_domain.end(), std::pair<int, int>{g, -1},
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (it != group_domain.end() && it->first == g) {
      part.domain_of[static_cast<std::size_t>(sw->id())] = it->second;
    }
  }

  // Undirected neighbor sets from the link graph (host uplinks plus switch
  // ports; downlinks mirror uplinks, so each adjacency appears from both
  // sides anyway).
  std::vector<std::vector<net::NodeId>> adj(num_nodes);
  const auto add_edge = [&](net::NodeId a, net::NodeId b) {
    adj[static_cast<std::size_t>(a)].push_back(b);
    adj[static_cast<std::size_t>(b)].push_back(a);
  };
  for (const auto& h : hosts) add_edge(h->id(), h->uplink().destination()->id());
  for (const auto& sw : switches) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      add_edge(sw->id(), sw->port_neighbor(p)->id());
    }
  }
  for (auto& v : adj) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }

  // Ports (links) each domain holds so far: the tie-break that deals
  // symmetric switches out evenly.
  const std::size_t num_domains = static_cast<std::size_t>(part.domains);
  std::vector<std::size_t> ports(num_domains, 0);
  for (std::size_t id = 0; id < num_nodes; ++id) {
    const int d = part.domain_of[id];
    if (d != -1) ports[static_cast<std::size_t>(d)] += adj[id].size();
  }

  // Remaining switches (ToRs, cores) join the domain holding most of their
  // assigned neighbors — ties to the fewest ports so far, then the lowest
  // id; repeat until stable (a pass per tree tier suffices, but the loop is
  // general).
  std::vector<int> votes(num_domains);
  bool progress = true;
  while (progress) {
    progress = false;
    for (const auto& sw : switches) {
      const std::size_t id = static_cast<std::size_t>(sw->id());
      if (part.domain_of[id] != -1) continue;
      std::fill(votes.begin(), votes.end(), 0);
      bool seen = false;
      for (const net::NodeId n : adj[id]) {
        const int nd = part.domain_of[static_cast<std::size_t>(n)];
        if (nd != -1) {
          ++votes[static_cast<std::size_t>(nd)];
          seen = true;
        }
      }
      if (!seen) continue;
      std::size_t best = 0;
      for (std::size_t d = 1; d < num_domains; ++d) {
        if (votes[d] > votes[best] ||
            (votes[d] == votes[best] && ports[d] < ports[best])) {
          best = d;
        }
      }
      part.domain_of[id] = static_cast<int>(best);
      ports[best] += adj[id].size();
      progress = true;
    }
  }
  // Disconnected switches (none in the built topologies) default to 0.
  for (auto& d : part.domain_of) {
    if (d == -1) d = 0;
  }

  // Cut links, from the transmitting side: host uplinks and switch ports.
  const auto consider = [&](net::Link& l, net::NodeId src) {
    const int sd = part.domain_of[static_cast<std::size_t>(src)];
    const int dd =
        part.domain_of[static_cast<std::size_t>(l.destination()->id())];
    if (sd == dd) return;
    part.cut_links.push_back(Partition::CutLink{&l, sd, dd});
    part.lookahead = std::min(part.lookahead, l.prop_delay());
  };
  for (const auto& h : hosts) consider(h->uplink(), h->id());
  for (const auto& sw : switches) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      consider(sw->port_link(p), sw->id());
    }
  }
  return part;
}

}  // namespace pase::topo
