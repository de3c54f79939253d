// Fat-tree topology family: structure counts, all-shortest-paths ECMP route
// installation, per-flow hash determinism (same seed => same paths, any
// worker count => same fingerprints), WCMP weighted splits, pod-aware
// partitioning, and the end-to-end sweep across all six protocols.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "net/droptail_queue.h"
#include "net/switch.h"
#include "topo/builder.h"
#include "topo/partition.h"
#include "trace_fingerprint.h"
#include "workload/scenario.h"

namespace pase {
namespace {

topo::QueueFactory droptail_factory() {
  return [](double) { return std::make_unique<net::DropTailQueue>(100); };
}

workload::ScenarioConfig fattree_scenario(workload::Protocol p,
                                          int k = 4, int flows = 100) {
  workload::ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kFatTree;
  cfg.fattree.k = k;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.load = 0.4;
  cfg.traffic.num_flows = flows;
  cfg.traffic.seed = 11;
  return cfg;
}

// --- Structure ---------------------------------------------------------------

TEST(FatTreeStructure, K4HasExpectedCounts) {
  sim::Simulator sim;
  const topo::FatTree t =
      topo::build_fat_tree(sim, topo::FatTreeConfig{}, droptail_factory());
  // k=4: 4 cores, 4 pods x (2 agg + 2 edge), 16 hosts.
  EXPECT_EQ(t.cores.size(), 4u);
  EXPECT_EQ(t.aggs.size(), 8u);
  EXPECT_EQ(t.edges.size(), 8u);
  EXPECT_EQ(t.topo->switches().size(), 20u);  // 5k^2/4
  EXPECT_EQ(t.topo->num_hosts(), 16u);        // k^3/4
  // Port counts: edge = k/2 agg uplinks + k/2 hosts; agg = k/2 cores + k/2
  // edges; core = one port per pod.
  EXPECT_EQ(t.edges[0]->num_ports(), 4);
  EXPECT_EQ(t.aggs[0]->num_ports(), 4);
  EXPECT_EQ(t.cores[0]->num_ports(), 4);
}

TEST(FatTreeStructure, K8HasExpectedCounts) {
  sim::Simulator sim;
  topo::FatTreeConfig cfg;
  cfg.k = 8;
  const topo::FatTree t = topo::build_fat_tree(sim, cfg, droptail_factory());
  EXPECT_EQ(t.cores.size(), 16u);
  EXPECT_EQ(t.topo->switches().size(), 80u);  // 5k^2/4
  EXPECT_EQ(t.topo->num_hosts(), 128u);       // k^3/4
  EXPECT_EQ(t.edges[0]->num_ports(), 8);
  EXPECT_EQ(t.cores[0]->num_ports(), 8);
}

TEST(FatTreeStructure, OversubscriptionScalesHostsPerEdge) {
  sim::Simulator sim;
  topo::FatTreeConfig cfg;
  cfg.oversubscription = 2.0;  // k=4: 4 hosts per edge instead of 2
  const topo::FatTree t = topo::build_fat_tree(sim, cfg, droptail_factory());
  EXPECT_EQ(t.topo->num_hosts(), 32u);
  EXPECT_EQ(t.edges[0]->num_ports(), 6);  // 2 agg uplinks + 4 hosts
}

TEST(FatTreeStructure, MalformedConfigThrowsEvenInRelease) {
  // Validation must be always-on (std::invalid_argument, not assert):
  // direct callers bypass ScenarioConfig validation and NDEBUG builds
  // compile asserts out.
  sim::Simulator sim;
  topo::FatTreeConfig odd;
  odd.k = 5;
  EXPECT_THROW(topo::build_fat_tree(sim, odd, droptail_factory()),
               std::invalid_argument);
  topo::FatTreeConfig tiny;
  tiny.k = 0;
  EXPECT_THROW(topo::build_fat_tree(sim, tiny, droptail_factory()),
               std::invalid_argument);
  topo::FatTreeConfig pods;
  pods.num_pods = 9;  // > k
  EXPECT_THROW(topo::build_fat_tree(sim, pods, droptail_factory()),
               std::invalid_argument);
}

TEST(FatTreeStructure, PartialPodCount) {
  sim::Simulator sim;
  topo::FatTreeConfig cfg;
  cfg.num_pods = 2;
  const topo::FatTree t = topo::build_fat_tree(sim, cfg, droptail_factory());
  EXPECT_EQ(t.topo->num_hosts(), 8u);
  EXPECT_EQ(t.aggs.size(), 4u);
}

// --- Multipath route installation -------------------------------------------

TEST(FatTreeRouting, EqualCostGroupWidthsMatchTheory) {
  sim::Simulator sim;
  const topo::FatTree t =
      topo::build_fat_tree(sim, topo::FatTreeConfig{}, droptail_factory());
  topo::Topology& topo = *t.topo;

  net::Host* local = topo.host(0);        // pod 0, edge 0
  net::Host* same_edge = topo.host(1);    // pod 0, edge 0
  net::Host* same_pod = topo.host(2);     // pod 0, edge 1
  net::Host* remote = topo.host(15);      // pod 3

  net::Switch* edge0 = t.edges[0];
  // Down to an attached host: the single downlink.
  EXPECT_EQ(edge0->route_width(same_edge->id()), 1);
  // Intra-pod inter-edge and inter-pod: all k/2 agg uplinks are equal cost.
  EXPECT_EQ(edge0->route_width(same_pod->id()), 2);
  EXPECT_EQ(edge0->route_width(remote->id()), 2);

  net::Switch* agg0 = t.aggs[0];
  // Inter-pod from an agg: its k/2 core uplinks.
  EXPECT_EQ(agg0->route_width(remote->id()), 2);
  // Intra-pod from an agg: the one edge downlink.
  EXPECT_EQ(agg0->route_width(local->id()), 1);

  // Below the core the path is unique.
  EXPECT_EQ(t.cores[0]->route_width(remote->id()), 1);

  // route_ports of a group are distinct, valid ports; route_for is the first.
  const std::vector<int> ports = edge0->route_ports(remote->id());
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_NE(ports[0], ports[1]);
  EXPECT_EQ(edge0->route_for(remote->id()), ports[0]);
}

TEST(FatTreeRouting, PropagationDelayUsesMinHopPath) {
  sim::Simulator sim;
  const topo::FatTree t =
      topo::build_fat_tree(sim, topo::FatTreeConfig{}, droptail_factory());
  const double d = t.config.per_link_delay;
  // Same edge: host-edge-host = 2 links; same pod: 4; inter-pod: 6.
  EXPECT_DOUBLE_EQ(
      t.topo->propagation_delay(t.topo->host(0)->id(), t.topo->host(1)->id()),
      2 * d);
  EXPECT_DOUBLE_EQ(
      t.topo->propagation_delay(t.topo->host(0)->id(), t.topo->host(2)->id()),
      4 * d);
  EXPECT_DOUBLE_EQ(
      t.topo->propagation_delay(t.topo->host(0)->id(), t.topo->host(15)->id()),
      6 * d);
}

// --- Deterministic per-flow hashing ------------------------------------------

TEST(FatTreeEcmp, SameSeedGivesIdenticalPathAssignment) {
  sim::Simulator sim_a, sim_b;
  topo::FatTreeConfig cfg;
  cfg.ecmp_seed = 42;
  const topo::FatTree a = topo::build_fat_tree(sim_a, cfg, droptail_factory());
  const topo::FatTree b = topo::build_fat_tree(sim_b, cfg, droptail_factory());

  const net::NodeId src = a.topo->host(0)->id();
  const net::NodeId dst = a.topo->host(15)->id();
  for (net::FlowId f = 1; f <= 500; ++f) {
    net::PacketPtr p = net::make_data_packet(f, src, dst, 0);
    for (std::size_t s = 0; s < a.topo->switches().size(); ++s) {
      EXPECT_EQ(a.topo->switches()[s]->port_for(*p),
                b.topo->switches()[s]->port_for(*p));
    }
  }
}

TEST(FatTreeEcmp, DifferentSeedMovesSomeFlows) {
  sim::Simulator sim_a, sim_b;
  topo::FatTreeConfig cfg;
  cfg.ecmp_seed = 1;
  const topo::FatTree a = topo::build_fat_tree(sim_a, cfg, droptail_factory());
  cfg.ecmp_seed = 2;
  const topo::FatTree b = topo::build_fat_tree(sim_b, cfg, droptail_factory());

  const net::NodeId src = a.topo->host(0)->id();
  const net::NodeId dst = a.topo->host(15)->id();
  net::Switch* ea = a.edges[0];
  net::Switch* eb = b.edges[0];
  int moved = 0;
  for (net::FlowId f = 1; f <= 500; ++f) {
    net::PacketPtr p = net::make_data_packet(f, src, dst, 0);
    if (ea->port_for(*p) != eb->port_for(*p)) ++moved;
  }
  EXPECT_GT(moved, 0);
}

TEST(FatTreeEcmp, FlowsSpreadAcrossEqualCostPorts) {
  sim::Simulator sim;
  const topo::FatTree t =
      topo::build_fat_tree(sim, topo::FatTreeConfig{}, droptail_factory());
  net::Switch* edge0 = t.edges[0];
  const net::NodeId src = t.topo->host(0)->id();
  const net::NodeId dst = t.topo->host(15)->id();

  std::map<int, int> counts;
  const int n = 2000;
  for (net::FlowId f = 1; f <= n; ++f) {
    net::PacketPtr p = net::make_data_packet(f, src, dst, 0);
    ++counts[edge0->port_for(*p)];
  }
  ASSERT_EQ(counts.size(), 2u);  // both agg uplinks used
  for (const auto& [port, c] : counts) {
    // Even split to within 10% of fair share on 2000 deterministic draws.
    EXPECT_NEAR(static_cast<double>(c), n / 2.0, n * 0.10)
        << "port " << port;
  }
  // Every packet of one flow takes the same port (per-flow, not per-packet).
  net::PacketPtr p1 = net::make_data_packet(7, src, dst, 0);
  net::PacketPtr p2 = net::make_data_packet(7, src, dst, 123);
  EXPECT_EQ(edge0->port_for(*p1), edge0->port_for(*p2));
}

// --- WCMP --------------------------------------------------------------------

class TwoPortSwitch : public ::testing::Test {
 protected:
  sim::Simulator sim;
  net::Switch sw{0, "wcmp-sw"};
  net::Host a{1, "a"}, b{2, "b"};

  void SetUp() override {
    sw.add_port(std::make_unique<net::DropTailQueue>(16),
                std::make_unique<net::Link>(sim, 1e9, 1e-6, "sw->a"), &a);
    sw.add_port(std::make_unique<net::DropTailQueue>(16),
                std::make_unique<net::Link>(sim, 1e9, 1e-6, "sw->b"), &b);
  }
};

TEST_F(TwoPortSwitch, WeightsTwoToOneSplitFlowsTwoToOne) {
  sw.set_route_group(99, {0, 1}, {2, 1});
  const int n = 30000;
  int port0 = 0;
  for (net::FlowId f = 1; f <= n; ++f) {
    net::PacketPtr p = net::make_data_packet(f, 1, 99, 0);
    const int port = sw.port_for(*p);
    ASSERT_TRUE(port == 0 || port == 1);
    if (port == 0) ++port0;
  }
  // Expect 2/3 of flows on port 0, within 3% of the population.
  EXPECT_NEAR(static_cast<double>(port0), n * 2.0 / 3.0, n * 0.03);
}

TEST_F(TwoPortSwitch, EmptyWeightsMeanEqualCost) {
  sw.set_route_group(99, {0, 1});
  EXPECT_EQ(sw.route_width(99), 2);
  int port0 = 0;
  const int n = 10000;
  for (net::FlowId f = 1; f <= n; ++f) {
    net::PacketPtr p = net::make_data_packet(f, 1, 99, 0);
    if (sw.port_for(*p) == 0) ++port0;
  }
  EXPECT_NEAR(static_cast<double>(port0), n / 2.0, n * 0.05);
}

TEST_F(TwoPortSwitch, SinglePortGroupDegeneratesToPlainRoute) {
  sw.set_route_group(55, {1});
  EXPECT_EQ(sw.route_width(55), 1);
  EXPECT_EQ(sw.route_for(55), 1);
}

TEST_F(TwoPortSwitch, ReinstallingAGroupReusesItsSlot) {
  sw.set_route_group(99, {0, 1});
  sw.set_route_group(77, {1, 0});
  ASSERT_EQ(sw.num_route_groups(), 2u);
  // Reinstalling (same or different shape) must overwrite in place, not
  // accumulate stale groups.
  sw.set_route_group(99, {0, 1});
  sw.set_route_group(99, {1, 0}, {3, 1});
  EXPECT_EQ(sw.num_route_groups(), 2u);
  EXPECT_EQ(sw.route_width(99), 2);
  EXPECT_EQ(sw.route_for(99), 1);  // latest install wins
  EXPECT_EQ(sw.route_width(77), 2);
}

TEST(FatTreeRouting, RebuildingRoutesDoesNotLeakGroups) {
  sim::Simulator sim;
  const topo::FatTree t =
      topo::build_fat_tree(sim, topo::FatTreeConfig{}, droptail_factory());
  std::vector<std::size_t> before;
  for (const auto& s : t.topo->switches()) {
    before.push_back(s->num_route_groups());
  }
  // Changing the ECMP seed after the fact (the documented use of re-running
  // build_routes) must not grow any switch's group table.
  t.topo->set_ecmp_seed(7);
  t.topo->build_routes();
  t.topo->build_routes();
  for (std::size_t i = 0; i < t.topo->switches().size(); ++i) {
    EXPECT_EQ(t.topo->switches()[i]->num_route_groups(), before[i])
        << t.topo->switches()[i]->name();
  }
}

// --- No-route diagnostics ----------------------------------------------------

TEST(SwitchDiagnostics, NoRouteReportsNamesAndPortCount) {
  sim::Simulator sim;
  const topo::FatTree t =
      topo::build_fat_tree(sim, topo::FatTreeConfig{}, droptail_factory());
  net::Switch* edge0 = t.edges[0];
  try {
    edge0->receive(net::make_data_packet(1, 0, 9999, 0));
    FAIL() << "expected no-route to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("p0.edge0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4 ports"), std::string::npos) << msg;
    EXPECT_NE(msg.find("9999"), std::string::npos) << msg;
  }
  // A routable-but-unknown-name destination resolves through the topology's
  // name directory.
  net::Switch bare(500, "bare-sw");
  try {
    bare.receive(net::make_data_packet(1, 0, 7, 0));
    FAIL() << "expected no-route to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bare-sw"), std::string::npos) << msg;
    EXPECT_NE(msg.find("0 ports"), std::string::npos) << msg;
  }
}

TEST(SwitchDiagnostics, NoRouteResolvesDestinationName) {
  sim::Simulator sim;
  const topo::FatTree t =
      topo::build_fat_tree(sim, topo::FatTreeConfig{}, droptail_factory());
  // Drop a packet whose destination id is a real node the switch simply has
  // no route for by using an id past the route table (host ids are valid, so
  // use a fresh switch wired with the topology's resolver instead).
  net::Switch* edge0 = t.edges[0];
  const net::NodeId known = t.topo->host(15)->id();
  const std::string known_name = t.topo->host(15)->name();
  // edge0 does have a route to host 15; verify the resolver by asking the
  // topology directly (the same resolver throw_no_route uses).
  EXPECT_EQ(t.topo->node(known)->name(), known_name);
  EXPECT_GE(edge0->route_width(known), 1);
}

// --- Pod-aware partitioning --------------------------------------------------

// True when `l` starts or ends at a core switch (cores are created first,
// so their ids are [0, cores)).
bool touches_core(const topo::FatTree& t, const net::Link* l) {
  for (net::Switch* core : t.cores) {
    for (int p = 0; p < core->num_ports(); ++p) {
      if (&core->port_link(p) == l) return true;
    }
  }
  return l->destination()->id() < static_cast<net::NodeId>(t.cores.size());
}

std::vector<int> cores_per_domain(const topo::FatTree& t,
                                  const topo::Partition& part) {
  std::vector<int> n(static_cast<std::size_t>(part.domains), 0);
  for (net::Switch* core : t.cores) {
    ++n[static_cast<std::size_t>(part.domain_of_node(core->id()))];
  }
  return n;
}

TEST(FatTreePartition, OneDomainPerPod) {
  sim::Simulator sim;
  const topo::FatTree t =
      topo::build_fat_tree(sim, topo::FatTreeConfig{}, droptail_factory());
  const topo::Partition part = topo::partition_topology(*t.topo, 4);
  ASSERT_EQ(part.domains, 4);
  EXPECT_TRUE(part.usable());
  EXPECT_DOUBLE_EQ(part.lookahead, t.config.per_link_delay);

  // Every node of pod p (switches and hosts) shares one domain.
  for (int p = 0; p < 4; ++p) {
    const int d = part.domain_of_node(t.aggs[static_cast<std::size_t>(p * 2)]->id());
    EXPECT_EQ(part.domain_of_node(t.aggs[static_cast<std::size_t>(p * 2 + 1)]->id()), d);
    EXPECT_EQ(part.domain_of_node(t.edges[static_cast<std::size_t>(p * 2)]->id()), d);
    EXPECT_EQ(part.domain_of_node(t.edges[static_cast<std::size_t>(p * 2 + 1)]->id()), d);
    for (int h = 0; h < 4; ++h) {
      EXPECT_EQ(part.domain_of_node(t.topo->host(
                    static_cast<std::size_t>(p * 4 + h))->id()), d);
    }
  }
  // Pods land on distinct domains.
  std::set<int> pod_domains;
  for (int p = 0; p < 4; ++p) {
    pod_domains.insert(part.domain_of_node(t.edges[static_cast<std::size_t>(p * 2)]->id()));
  }
  EXPECT_EQ(pod_domains.size(), 4u);

  // Every cut link touches a core switch — pod boundaries are the cuts.
  for (const auto& c : part.cut_links) EXPECT_TRUE(touches_core(t, c.link));
}

TEST(FatTreePartition, TwoDomainsKeepPodsIntact) {
  sim::Simulator sim;
  const topo::FatTree t =
      topo::build_fat_tree(sim, topo::FatTreeConfig{}, droptail_factory());
  const topo::Partition part = topo::partition_topology(*t.topo, 2);
  ASSERT_EQ(part.domains, 2);
  // Pods 0,1 -> domain 0; pods 2,3 -> domain 1.
  EXPECT_EQ(part.domain_of_node(t.edges[0]->id()), 0);
  EXPECT_EQ(part.domain_of_node(t.edges[2]->id()), 0);
  EXPECT_EQ(part.domain_of_node(t.edges[4]->id()), 1);
  EXPECT_EQ(part.domain_of_node(t.edges[6]->id()), 1);
}

TEST(FatTreePartition, DomainCountClampsToPods) {
  sim::Simulator sim;
  const topo::FatTree t =
      topo::build_fat_tree(sim, topo::FatTreeConfig{}, droptail_factory());
  // 16 hosts but only 4 pods: asking for 8 domains must not split a pod.
  const topo::Partition part = topo::partition_topology(*t.topo, 8);
  EXPECT_EQ(part.domains, 4);
}

// A fat-tree partitions into one domain per pod at any worker count, so the
// engine's workers can balance whole pods between them.
TEST(FatTreePartition, DomainsFollowPodsNotWorkers) {
  sim::Simulator sim;
  topo::FatTreeConfig cfg;
  cfg.k = 8;
  const topo::FatTree t = topo::build_fat_tree(sim, cfg, droptail_factory());
  for (const int workers : {1, 2, 3, 4, 16}) {
    EXPECT_EQ(topo::domains_for_workers(*t.topo, workers), 8) << workers;
  }
}

// Each core has one agg neighbor in every pod, so at one domain per pod its
// vote is a k-way tie; the fewest-ports tie-break deals the cores out
// evenly instead of piling them all into domain 0.
TEST(FatTreePartition, CoresSpreadEvenlyOverPodDomains) {
  for (const int k : {4, 8}) {
    sim::Simulator sim;
    topo::FatTreeConfig cfg;
    cfg.k = k;
    const topo::FatTree t =
        topo::build_fat_tree(sim, cfg, droptail_factory());
    const topo::Partition part = topo::partition_topology(*t.topo, k);
    ASSERT_EQ(part.domains, k);
    for (const int n : cores_per_domain(t, part)) {
      EXPECT_EQ(n, k / 4) << "k=" << k;
    }
    for (const auto& c : part.cut_links) EXPECT_TRUE(touches_core(t, c.link));
  }
}

// Spreading the cores moves no cut: with two pods per domain every core
// still reaches six of its eight pods across the cut, exactly as when all
// cores sat in domain 0, and the lookahead stays the per-link delay.
TEST(FatTreePartition, SpreadCoresKeepCutCountAndLookahead) {
  sim::Simulator sim;
  topo::FatTreeConfig cfg;
  cfg.k = 8;
  const topo::FatTree t = topo::build_fat_tree(sim, cfg, droptail_factory());
  const topo::Partition part = topo::partition_topology(*t.topo, 4);
  ASSERT_EQ(part.domains, 4);
  EXPECT_EQ(part.cut_links.size(), 192u);  // 16 cores x 6 pods x 2 ways
  EXPECT_DOUBLE_EQ(part.lookahead, cfg.per_link_delay);
  for (const int n : cores_per_domain(t, part)) EXPECT_EQ(n, 4);
  for (const auto& c : part.cut_links) EXPECT_TRUE(touches_core(t, c.link));
}

// --- Engine determinism on the fat-tree --------------------------------------

std::uint64_t fattree_fingerprint(workload::Protocol p, int workers) {
  workload::ScenarioConfig cfg = fattree_scenario(p);
  cfg.workers = workers;
  return trace_fingerprint(workload::run_scenario(cfg));
}

TEST(FatTreeParallel, BitIdenticalAcrossWorkerCounts) {
  const workload::Protocol safe[] = {
      workload::Protocol::kDctcp, workload::Protocol::kD2tcp,
      workload::Protocol::kL2dct, workload::Protocol::kPdq,
      workload::Protocol::kPfabric};
  for (workload::Protocol p : safe) {
    const std::uint64_t seq = fattree_fingerprint(p, 1);
    for (int workers : {2, 4, 8}) {
      EXPECT_EQ(fattree_fingerprint(p, workers), seq)
          << workload::protocol_name(p) << " diverged at workers=" << workers;
    }
  }
}

TEST(FatTreeParallel, ParallelRunActuallyUsesMultipleDomains) {
  workload::ScenarioConfig cfg = fattree_scenario(workload::Protocol::kDctcp);
  cfg.workers = 4;
  const workload::ScenarioResult r = workload::run_scenario(cfg);
  EXPECT_EQ(r.workers_used, 4);
}

TEST(FatTreeParallel, EcmpSeedChangesFingerprint) {
  // Make the fabric the bottleneck (same rate as host links) and drive it
  // hard: fabric queues then congest, so which equal-cost port a flow hashes
  // to shifts queue dynamics — which the fingerprint observes. With the
  // default 10x-faster fabric the core never queues and FCTs are
  // path-invariant, making the fingerprint insensitive to the seed.
  workload::ScenarioConfig cfg =
      fattree_scenario(workload::Protocol::kDctcp, /*k=*/4, /*flows=*/150);
  cfg.fattree.fabric_rate_bps = cfg.fattree.host_rate_bps;
  cfg.traffic.load = 0.8;
  const std::uint64_t base = trace_fingerprint(workload::run_scenario(cfg));
  cfg.fattree.ecmp_seed = 99;
  const std::uint64_t reseeded = trace_fingerprint(workload::run_scenario(cfg));
  EXPECT_NE(base, reseeded);
}

// --- End-to-end: all six protocols through the sweep runner ------------------

TEST(FatTreeSweep, AllProtocolsRunOnK8) {
  const workload::Protocol all[] = {
      workload::Protocol::kDctcp,   workload::Protocol::kD2tcp,
      workload::Protocol::kL2dct,   workload::Protocol::kPdq,
      workload::Protocol::kPfabric, workload::Protocol::kPase};
  std::vector<exp::SweepCase> cases;
  for (workload::Protocol p : all) {
    workload::ScenarioConfig cfg = fattree_scenario(p, /*k=*/8, /*flows=*/60);
    cases.push_back({std::string(workload::protocol_name(p)) + "/ft8", cfg});
  }
  std::vector<workload::ScenarioConfig> configs;
  for (const auto& c : cases) configs.push_back(c.config);

  const exp::SweepRunner runner(2);
  const std::vector<workload::ScenarioResult> results = runner.run(configs);
  ASSERT_EQ(results.size(), cases.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_GT(results[i].data_packets_sent, 0u) << cases[i].label;
    EXPECT_GT(results[i].total_flows(), 0u) << cases[i].label;
  }
  // The sweep JSON names the topology and carries the balance metric.
  const std::string json = exp::sweep_to_json("fattree-smoke", cases, results);
  EXPECT_NE(json.find("\"topology\": \"fat_tree\""), std::string::npos);
  EXPECT_NE(json.find("fabric.core_link_imbalance"), std::string::npos);
}

}  // namespace
}  // namespace pase
