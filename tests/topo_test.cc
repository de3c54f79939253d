// Topology construction and routing tests.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/droptail_queue.h"
#include "obs/telemetry.h"
#include "topo/fat_tree.h"
#include "topo/single_rack.h"
#include "topo/three_tier.h"

namespace pase::topo {
namespace {

QueueFactory droptail() {
  return [](double) { return std::make_unique<net::DropTailQueue>(100); };
}

TEST(SingleRack, BuildsRequestedHosts) {
  sim::Simulator sim;
  SingleRackConfig cfg;
  cfg.num_hosts = 7;
  auto rack = build_single_rack(sim, cfg, droptail());
  EXPECT_EQ(rack.topo->num_hosts(), 7u);
  EXPECT_EQ(rack.topo->switches().size(), 1u);
  EXPECT_EQ(rack.tor->num_ports(), 7);  // one downlink per host
}

TEST(SingleRack, PacketsFlowBetweenAnyHostPair) {
  sim::Simulator sim;
  SingleRackConfig cfg;
  cfg.num_hosts = 4;
  auto rack = build_single_rack(sim, cfg, droptail());
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 4; ++d) {
      if (s == d) continue;
      auto* src = rack.topo->host(static_cast<std::size_t>(s));
      auto* dst = rack.topo->host(static_cast<std::size_t>(d));
      struct S : net::PacketSink {
        int n = 0;
        void deliver(net::PacketPtr) override { ++n; }
      } sink;
      dst->register_flow(99, &sink);
      src->send(net::make_data_packet(99, src->id(), dst->id(), 0));
      sim.run();
      EXPECT_EQ(sink.n, 1) << s << "->" << d;
      dst->unregister_flow(99);
    }
  }
}

TEST(SingleRack, IntraRackPropagationRtt) {
  sim::Simulator sim;
  SingleRackConfig cfg;
  cfg.num_hosts = 3;
  cfg.per_link_delay = 25e-6;
  auto rack = build_single_rack(sim, cfg, droptail());
  // host -> tor -> host each way: 4 x 25 us.
  EXPECT_NEAR(rack.topo->propagation_rtt(rack.topo->host(0)->id(),
                                         rack.topo->host(1)->id()),
              100e-6, 1e-12);
}

TEST(ThreeTier, StructureMatchesPaperBaseline) {
  sim::Simulator sim;
  ThreeTierConfig cfg;  // defaults: 4 ToR x 40 hosts, 2 agg, 1 core
  auto tt = build_three_tier(sim, cfg, droptail());
  EXPECT_EQ(tt.topo->num_hosts(), 160u);
  EXPECT_EQ(tt.tors.size(), 4u);
  EXPECT_EQ(tt.aggs.size(), 2u);
  ASSERT_NE(tt.core, nullptr);
  // Core has one port per agg.
  EXPECT_EQ(tt.core->num_ports(), 2);
  // Each ToR: 40 host downlinks + 1 agg uplink.
  for (auto* tor : tt.tors) EXPECT_EQ(tor->num_ports(), 41);
  // Each agg: 2 ToR links + 1 core link.
  for (auto* agg : tt.aggs) EXPECT_EQ(agg->num_ports(), 3);
}

TEST(ThreeTier, CoreRttIs300us) {
  sim::Simulator sim;
  ThreeTierConfig cfg;
  auto tt = build_three_tier(sim, cfg, droptail());
  // Host under ToR0 to host under ToR3 crosses the core: 6 hops each way.
  const auto a = tt.topo->host(0)->id();
  const auto b = tt.topo->host(159)->id();
  EXPECT_NEAR(tt.topo->propagation_rtt(a, b), 300e-6, 1e-12);
}

TEST(ThreeTier, IntraRackPathAvoidsCore) {
  sim::Simulator sim;
  ThreeTierConfig cfg;
  auto tt = build_three_tier(sim, cfg, droptail());
  // Same-rack pair: 2 hops each way only.
  const auto a = tt.topo->host(0)->id();
  const auto b = tt.topo->host(1)->id();
  EXPECT_NEAR(tt.topo->propagation_rtt(a, b), 100e-6, 1e-12);
}

TEST(ThreeTier, MalformedConfigThrowsEvenInRelease) {
  // Always-on validation, as for the fat-tree: direct callers bypass
  // ScenarioConfig validation and NDEBUG builds compile asserts out.
  sim::Simulator sim;
  ThreeTierConfig no_split;
  no_split.tors_per_agg = 0;  // would divide by zero
  EXPECT_THROW(build_three_tier(sim, no_split, droptail()),
               std::invalid_argument);
  ThreeTierConfig uneven;
  uneven.num_tors = 3;  // 3 % 2 != 0 would index past the aggs
  EXPECT_THROW(build_three_tier(sim, uneven, droptail()),
               std::invalid_argument);
  ThreeTierConfig no_tors;
  no_tors.num_tors = 0;
  EXPECT_THROW(build_three_tier(sim, no_tors, droptail()),
               std::invalid_argument);
  ThreeTierConfig no_hosts;
  no_hosts.hosts_per_tor = 0;
  EXPECT_THROW(build_three_tier(sim, no_hosts, droptail()),
               std::invalid_argument);
}

TEST(ThreeTier, CrossSubtreePacketDelivery) {
  sim::Simulator sim;
  ThreeTierConfig cfg;
  cfg.hosts_per_tor = 2;  // keep it small
  auto tt = build_three_tier(sim, cfg, droptail());
  auto* src = tt.topo->host(0);
  auto* dst = tt.topo->host(7);  // other agg subtree
  struct S : net::PacketSink {
    int n = 0;
    void deliver(net::PacketPtr) override { ++n; }
  } sink;
  dst->register_flow(5, &sink);
  src->send(net::make_data_packet(5, src->id(), dst->id(), 0));
  sim.run();
  EXPECT_EQ(sink.n, 1);
  // The packet crossed the core: its agg->core link transmitted something.
  EXPECT_GT(tt.core->port_link(0).packets_sent() +
                tt.core->port_link(1).packets_sent(),
            0u);
}

TEST(Topology, QueueAggregationCountsAllPorts) {
  sim::Simulator sim;
  SingleRackConfig cfg;
  cfg.num_hosts = 3;
  auto rack = build_single_rack(sim, cfg, droptail());
  int queues = 0;
  rack.topo->for_each_queue([&](net::NodeId, net::Queue&) { ++queues; });
  // 3 host uplinks + 3 ToR downlinks.
  EXPECT_EQ(queues, 6);
  EXPECT_EQ(rack.topo->total_drops(), 0u);
}

TEST(Topology, OversubscriptionRatioIsFourToOne) {
  ThreeTierConfig cfg;
  const double host_up = cfg.hosts_per_tor * cfg.host_rate_bps;
  EXPECT_DOUBLE_EQ(host_up / cfg.fabric_rate_bps, 4.0);
}

// --- Fabric roles derived by Topology ------------------------------------
// Each host's ToR, the agg above that ToR (the ToR's first port one tier
// up), pod, every switch's tier and the core links, read from the Topology
// alone and checked against each builder's own role vectors.

net::Switch* agg_above(const Topology& topo, net::Switch& tor) {
  const int up = topo.up_port(tor);
  return up < 0 ? nullptr : static_cast<net::Switch*>(tor.port_neighbor(up));
}

void expect_tier(const Topology& topo, const std::vector<net::Switch*>& sws,
                 Tier tier) {
  for (const net::Switch* sw : sws) {
    EXPECT_EQ(topo.tier(sw->id()), tier) << sw->name();
  }
}

TEST(FabricRoles, SingleRack) {
  sim::Simulator sim;
  SingleRackConfig cfg;
  cfg.num_hosts = 8;
  auto rack = build_single_rack(sim, cfg, droptail());
  const Topology& topo = *rack.topo;
  for (std::size_t i = 0; i < topo.num_hosts(); ++i) {
    net::Host& h = *rack.topo->host(i);
    EXPECT_EQ(topo.tier(h.id()), Tier::kHost);
    EXPECT_EQ(&Topology::tor_of(h), rack.tor);
    EXPECT_EQ(topo.partition_group(h.id()), -1);
  }
  expect_tier(topo, {rack.tor}, Tier::kEdge);
  EXPECT_EQ(agg_above(topo, *rack.tor), nullptr);
  EXPECT_TRUE(topo.core_links().empty());
}

void check_three_tier(const ThreeTierConfig& cfg, std::size_t core_links) {
  sim::Simulator sim;
  auto tt = build_three_tier(sim, cfg, droptail());
  const Topology& topo = *tt.topo;
  for (std::size_t i = 0; i < topo.num_hosts(); ++i) {
    net::Host& h = *tt.topo->host(i);
    const std::size_t tor = i / static_cast<std::size_t>(cfg.hosts_per_tor);
    EXPECT_EQ(topo.tier(h.id()), Tier::kHost);
    ASSERT_EQ(&Topology::tor_of(h), tt.tors[tor]) << h.name();
    EXPECT_EQ(agg_above(topo, *tt.tors[tor]),
              tt.aggs[tor / static_cast<std::size_t>(cfg.tors_per_agg)])
        << h.name();
    EXPECT_EQ(topo.partition_group(h.id()), -1);
  }
  expect_tier(topo, tt.tors, Tier::kEdge);
  expect_tier(topo, tt.aggs, Tier::kAgg);
  expect_tier(topo, {tt.core}, Tier::kCore);
  for (net::Switch* agg : tt.aggs) EXPECT_EQ(agg_above(topo, *agg), tt.core);
  EXPECT_EQ(agg_above(topo, *tt.core), nullptr);
  // Each agg's uplink and the core's port back, per agg.
  EXPECT_EQ(topo.core_links().size(), core_links);
}

TEST(FabricRoles, ThreeTierDefault) { check_three_tier(ThreeTierConfig{}, 4); }

TEST(FabricRoles, ThreeTierSixTorsThreePerAgg) {
  ThreeTierConfig cfg;
  cfg.num_tors = 6;
  cfg.tors_per_agg = 3;
  cfg.hosts_per_tor = 3;
  check_three_tier(cfg, 4);
}

class FatTreeRoles : public ::testing::TestWithParam<FatTreeConfig> {};

TEST_P(FatTreeRoles, MatchBuilderRoleVectors) {
  const FatTreeConfig cfg = GetParam();
  sim::Simulator sim;
  const FatTree t = build_fat_tree(sim, cfg, droptail());
  const Topology& topo = *t.topo;
  const auto per = [](int n) { return static_cast<std::size_t>(n); };
  for (std::size_t i = 0; i < topo.num_hosts(); ++i) {
    net::Host& h = *t.topo->host(i);
    const std::size_t pod = i / per(cfg.hosts_per_pod());
    net::Switch* edge = t.edges[i / per(cfg.hosts_per_edge())];
    EXPECT_EQ(topo.tier(h.id()), Tier::kHost);
    ASSERT_EQ(&Topology::tor_of(h), edge) << h.name();
    // The pod's slot-0 agg arbitrates for every edge of the pod.
    EXPECT_EQ(agg_above(topo, *edge), t.aggs[pod * per(cfg.aggs_per_pod())])
        << h.name();
    EXPECT_EQ(topo.partition_group(h.id()), static_cast<int>(pod))
        << h.name();
  }
  expect_tier(topo, t.edges, Tier::kEdge);
  expect_tier(topo, t.aggs, Tier::kAgg);
  expect_tier(topo, t.cores, Tier::kCore);
  for (std::size_t e = 0; e < t.edges.size(); ++e) {
    EXPECT_EQ(topo.partition_group(t.edges[e]->id()),
              static_cast<int>(e / per(cfg.edges_per_pod())));
  }
  for (std::size_t a = 0; a < t.aggs.size(); ++a) {
    EXPECT_EQ(topo.partition_group(t.aggs[a]->id()),
              static_cast<int>(a / per(cfg.aggs_per_pod())));
  }
  for (const net::Switch* c : t.cores) {
    EXPECT_EQ(topo.partition_group(c->id()), -1);
  }
  // Every core port and each agg's uplink to it: cores x pods, both ways
  // (k^3/2 on a full fat-tree).
  EXPECT_EQ(topo.core_links().size(),
            2 * per(cfg.num_cores()) * per(cfg.pods()));
}

FatTreeConfig fat_tree(int k, int pods = 0, double oversub = 1.0) {
  FatTreeConfig cfg;
  cfg.k = k;
  cfg.num_pods = pods;
  cfg.oversubscription = oversub;
  return cfg;
}

INSTANTIATE_TEST_SUITE_P(Families, FatTreeRoles,
                         ::testing::Values(fat_tree(2), fat_tree(4),
                                           fat_tree(8), fat_tree(8, 3),
                                           fat_tree(4, 0, 2.0)),
                         [](const auto& info) {
                           const FatTreeConfig& c = info.param;
                           return "K" + std::to_string(c.k) + "Pods" +
                                  std::to_string(c.pods()) + "Hosts" +
                                  std::to_string(c.num_hosts());
                         });

TEST(FabricRoles, FatTreeK4TelemetryGroups) {
  sim::Simulator sim;
  const FatTree t = build_fat_tree(sim, fat_tree(4), droptail());
  const obs::TelemetryPlane tel(*t.topo, obs::TelemetryConfig{});
  EXPECT_EQ(tel.group_names(),
            (std::vector<std::string>{"tier:host", "tier:edge", "tier:agg",
                                      "tier:core", "pod:0", "pod:1", "pod:2",
                                      "pod:3"}));
  // The plane files each queue under its owner's tier and pod.
  std::map<std::string, int> queues;
  t.topo->for_each_queue([&](net::NodeId owner, net::Queue&) {
    ++queues[std::string("tier:") + tier_name(t.topo->tier(owner))];
    const int pod = t.topo->partition_group(owner);
    if (pod >= 0) ++queues["pod:" + std::to_string(pod)];
  });
  EXPECT_EQ(queues, (std::map<std::string, int>{{"tier:host", 16},
                                                {"tier:edge", 32},
                                                {"tier:agg", 32},
                                                {"tier:core", 16},
                                                {"pod:0", 20},
                                                {"pod:1", 20},
                                                {"pod:2", 20},
                                                {"pod:3", 20}}));
}

}  // namespace
}  // namespace pase::topo
