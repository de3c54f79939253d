// Emits a built topology as Graphviz DOT: nodes grouped by tier (core /
// agg / tor-edge / host) with rank=same so dot lays the fabric out in
// layers, and — when --domains=N is given — cut edges from the partitioner
// drawn red/bold so the parallel engine's communication surface is visible
// at a glance.
//
//   dump_topology --topology=fattree --k=4 --domains=4 --out=ft4.dot
//   dump_topology --topology=threetier
//   dump_topology --topology=singlerack --hosts=8
//
// --summary collapses each tier to a single node (hosts / edge / agg /
// core) with node counts in the label and link multiplicities on the
// aggregated edges, so a k=32 fabric (8k hosts, 1.2k switches) renders as
// a four-box diagram instead of an unreadable hairball. With --domains=N
// the aggregate edges also carry the number of cut links they contain.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/droptail_queue.h"
#include "sim/simulator.h"
#include "topo/builder.h"
#include "topo/partition.h"

namespace {

using namespace pase;

struct Options {
  std::string topology = "fattree";
  int k = 4;
  int pods = 0;  // 0 = full k pods
  double oversub = 1.0;
  int hosts = 8;          // single-rack
  int domains = 0;        // 0 = no partition overlay
  bool summary = false;   // tier-collapsed view
  std::string out;        // empty = stdout
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--topology=fattree|threetier|singlerack] [--k=N] "
               "[--pods=N] [--oversub=X] [--hosts=N] [--domains=N] "
               "[--summary] [--out=FILE]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&arg](const char* key) -> const char* {
      const std::size_t n = std::strlen(key);
      return arg.compare(0, n, key) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = val("--topology=")) {
      o.topology = v;
    } else if (const char* v = val("--k=")) {
      o.k = std::atoi(v);
    } else if (const char* v = val("--pods=")) {
      o.pods = std::atoi(v);
    } else if (const char* v = val("--oversub=")) {
      o.oversub = std::atof(v);
    } else if (const char* v = val("--hosts=")) {
      o.hosts = std::atoi(v);
    } else if (const char* v = val("--domains=")) {
      o.domains = std::atoi(v);
    } else if (arg == "--summary") {
      o.summary = true;
    } else if (const char* v = val("--out=")) {
      o.out = v;
    } else {
      usage(argv[0]);
    }
  }
  return o;
}

std::unique_ptr<topo::TopologyBuilder> make_builder(const Options& o) {
  if (o.topology == "fattree" || o.topology == "fat_tree") {
    topo::FatTreeConfig cfg;
    cfg.k = o.k;
    cfg.num_pods = o.pods;
    cfg.oversubscription = o.oversub;
    return std::make_unique<topo::FatTreeBuilder>(cfg);
  }
  if (o.topology == "threetier" || o.topology == "three_tier") {
    return std::make_unique<topo::ThreeTierBuilder>(topo::ThreeTierConfig{});
  }
  if (o.topology == "singlerack" || o.topology == "single_rack") {
    topo::SingleRackConfig cfg;
    cfg.num_hosts = o.hosts;
    return std::make_unique<topo::SingleRackBuilder>(cfg);
  }
  std::fprintf(stderr, "unknown topology '%s'\n", o.topology.c_str());
  std::exit(2);
}

// Conventional tier names for the diagrams.
const char* tier_label(int t) {
  constexpr const char* kLabels[topo::kNumTiers] = {"hosts", "edge", "agg",
                                                    "core"};
  return kLabels[t];
}

// Tier-collapsed view: one box per tier, aggregated edges labeled with link
// multiplicity (and cut-link counts under a partition overlay).
void emit_summary(std::ostream& os, topo::Topology& topo,
                  const topo::Partition& part,
                  const std::set<const net::Link*>& cut) {
  const bool overlay = part.domains > 1;
  const auto tier = [&topo](net::NodeId id) {
    return static_cast<int>(topo.tier(id));
  };
  std::map<int, std::size_t> tier_nodes;
  for (const auto& h : topo.hosts()) ++tier_nodes[tier(h->id())];
  for (const auto& sw : topo.switches()) ++tier_nodes[tier(sw->id())];

  // Aggregate undirected adjacencies by (lower tier, higher tier): count
  // each once per unordered node pair, tallying cut links alongside.
  struct EdgeAgg {
    std::size_t links = 0;
    std::size_t cut = 0;
  };
  std::map<std::pair<int, int>, EdgeAgg> agg;
  std::set<std::pair<net::NodeId, net::NodeId>> drawn;
  const auto tally = [&](const net::Link& l, net::NodeId src,
                         net::NodeId dst) {
    const auto key = std::minmax(src, dst);
    if (!drawn.insert(key).second) return;
    const auto tk = std::minmax({tier(src), tier(dst)});
    EdgeAgg& e = agg[tk];
    ++e.links;
    if (overlay && cut.count(&l) > 0) ++e.cut;
  };
  for (const auto& h : topo.hosts()) {
    tally(h->uplink(), h->id(), h->uplink().destination()->id());
  }
  for (const auto& sw : topo.switches()) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      tally(sw->port_link(p), sw->id(), sw->port_neighbor(p)->id());
    }
  }

  os << "digraph topology_summary {\n"
     << "  rankdir=BT;\n"
     << "  node [shape=box, fontname=\"monospace\"];\n"
     << "  edge [dir=none, fontname=\"monospace\"];\n";
  for (const auto& [t, count] : tier_nodes) {
    os << "  t" << t << " [label=\"" << tier_label(t) << "\\n" << count
       << " nodes\"";
    if (t == 0) os << ", shape=ellipse";
    os << "];\n";
  }
  for (const auto& [tk, e] : agg) {
    os << "  t" << tk.first << " -> t" << tk.second << " [label=\""
       << e.links << " links";
    if (e.cut > 0) os << " (" << e.cut << " cut)";
    os << "\"";
    if (e.cut > 0) os << ", color=red";
    os << "];\n";
  }
  os << "}\n";
}

void emit(std::ostream& os, topo::Topology& topo, int domains,
          bool summary) {
  topo::Partition part;
  if (domains > 1) part = topo::partition_topology(topo, domains);
  const bool overlay = part.domains > 1;
  std::set<const net::Link*> cut;
  for (const auto& c : part.cut_links) cut.insert(c.link);

  if (summary) {
    emit_summary(os, topo, part, cut);
    std::cerr << "nodes: " << topo.hosts().size() << " hosts + "
              << topo.switches().size() << " switches (summary)\n";
    return;
  }

  os << "digraph topology {\n"
     << "  rankdir=BT;\n"
     << "  node [shape=box, fontname=\"monospace\"];\n"
     << "  edge [dir=none];\n";

  // One rank per tier so dot stacks the fabric in layers.
  std::map<int, std::vector<const net::Node*>> by_tier;
  for (const auto& h : topo.hosts()) by_tier[0].push_back(h.get());
  for (const auto& sw : topo.switches()) {
    by_tier[static_cast<int>(topo.tier(sw->id()))].push_back(sw.get());
  }
  for (const auto& [t, nodes] : by_tier) {
    os << "  { rank=same;";
    for (const net::Node* nd : nodes) os << " n" << nd->id() << ";";
    os << " }  // tier " << t << "\n";
  }
  for (const auto& [t, nodes] : by_tier) {
    for (const net::Node* nd : nodes) {
      os << "  n" << nd->id() << " [label=\"" << nd->name() << "\"";
      if (t == 0) os << ", shape=ellipse";
      if (overlay) {
        os << ", xlabel=\"d"
           << part.domain_of[static_cast<std::size_t>(nd->id())] << "\"";
      }
      os << "];\n";
    }
  }

  // Undirected edge set: draw each adjacency once (lower id first), marking
  // it cut when either directed link crosses domains.
  std::set<std::pair<net::NodeId, net::NodeId>> drawn;
  const auto draw = [&](const net::Link& l, net::NodeId src,
                        net::NodeId dst) {
    const auto key = std::minmax(src, dst);
    if (!drawn.insert(key).second) return;
    const bool is_cut = overlay && cut.count(&l) > 0;
    os << "  n" << src << " -> n" << dst;
    if (is_cut) os << " [color=red, penwidth=2.5]";
    os << ";\n";
  };
  for (const auto& h : topo.hosts()) {
    draw(h->uplink(), h->id(), h->uplink().destination()->id());
  }
  for (const auto& sw : topo.switches()) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      draw(sw->port_link(p), sw->id(), sw->port_neighbor(p)->id());
    }
  }
  os << "}\n";

  std::cerr << "nodes: " << topo.hosts().size() << " hosts + "
            << topo.switches().size() << " switches";
  if (overlay) {
    std::cerr << "; domains: " << part.domains
              << ", cut links: " << part.cut_links.size()
              << ", lookahead: " << part.lookahead << "s";
  }
  std::cerr << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  sim::Simulator sim;
  const topo::QueueFactory q = [](double) {
    return std::make_unique<net::DropTailQueue>(100);
  };
  std::unique_ptr<topo::Topology> topo = make_builder(o)->build(sim, q);

  if (o.out.empty()) {
    emit(std::cout, *topo, o.domains, o.summary);
  } else {
    std::ofstream f(o.out);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", o.out.c_str());
      return 1;
    }
    emit(f, *topo, o.domains, o.summary);
    std::fprintf(stderr, "wrote %s\n", o.out.c_str());
  }
  return 0;
}
