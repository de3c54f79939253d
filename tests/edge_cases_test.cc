// Edge cases and cross-module details not covered elsewhere: flow byte
// accounting, control-packet capacity costs, EDF arbitration, scenario
// overrides, FIN propagation without delegation, and protocol law details.
#include <gtest/gtest.h>

#include "core/pase_sender.h"
#include "net/priority_queue_bank.h"
#include "test_util.h"
#include "transport/d2tcp.h"
#include "transport/l2dct.h"
#include "workload/scenario.h"

namespace pase {
namespace {

// --- Flow byte accounting -------------------------------------------------------

TEST(Flow, PacketizationRoundsUp) {
  transport::Flow f;
  f.size_bytes = 1;
  EXPECT_EQ(f.num_packets(), 1u);
  f.size_bytes = net::kMss;
  EXPECT_EQ(f.num_packets(), 1u);
  f.size_bytes = net::kMss + 1;
  EXPECT_EQ(f.num_packets(), 2u);
  f.size_bytes = 10 * net::kMss;
  EXPECT_EQ(f.num_packets(), 10u);
}

TEST(Flow, LastPacketCarriesTheRemainder) {
  transport::Flow f;
  f.size_bytes = 2 * net::kMss + 100;
  EXPECT_EQ(f.num_packets(), 3u);
  EXPECT_EQ(f.payload_of(0), net::kMss);
  EXPECT_EQ(f.payload_of(1), net::kMss);
  EXPECT_EQ(f.payload_of(2), 100u);
}

TEST(Flow, ReceiverHonorsShortLastPacket) {
  auto n = test::make_mini_net();
  auto flow = test::make_flow(*n, 0, 1, net::kMss + 7);
  transport::WindowSender s(n->sim, n->host(0), flow, {});
  auto recv = test::wire_flow(*n, s, flow);
  s.start();
  n->sim.run(1.0);
  EXPECT_TRUE(recv->complete());
  // Wire bytes: one full packet + one 7-byte payload packet + headers.
  EXPECT_EQ(n->host(0).uplink().bytes_sent(),
            (net::kMss + net::kDataHeaderBytes) + (7 + net::kDataHeaderBytes));
}

// --- Control packets consume real capacity --------------------------------------

TEST(ControlPlane, ArbitrationTrafficOccupiesLinks) {
  auto n = test::make_mini_net(2, [](double) -> std::unique_ptr<net::Queue> {
    return std::make_unique<net::PriorityQueueBank>(8, 500, 65);
  });
  core::PaseConfig cfg;
  core::ArbitrationPlane plane(n->sim, *n->rack.topo, cfg);
  auto flow = test::make_flow(*n, 0, 1, 10 * net::kMss);
  core::PaseSender s(n->sim, n->host(0), flow, plane);
  auto recv = test::wire_flow(*n, s, flow);
  plane.attach_receiver(*recv);
  s.start();
  n->sim.run(1.0);
  ASSERT_TRUE(recv->complete());
  // The receiver-half response is a real packet on host 1's uplink.
  EXPECT_GT(n->host(1).uplink().packets_sent(), 10u);  // ACKs + arb responses
}

// --- EDF arbitration -------------------------------------------------------------

TEST(EdfArbitration, EarlierDeadlineWinsRegardlessOfSize) {
  core::PaseConfig cfg;
  cfg.criterion = core::Criterion::kEarliestDeadlineFirst;
  core::FlowTable t(1e9, cfg.num_data_queues(), cfg.base_rate_bps(),
                    cfg.entry_timeout);
  // Big flow, near deadline vs small flow, far deadline.
  t.update_and_arbitrate(1, /*key=deadline*/ 1e-3, 1e9, 0.0);
  t.update_and_arbitrate(2, /*key=deadline*/ 9e-3, 1e9, 0.0);
  EXPECT_EQ(t.arbitrate(1).prio_queue, 0);
  EXPECT_EQ(t.arbitrate(2).prio_queue, 1);
}

TEST(EdfArbitration, ScenarioPicksEdfForDeadlineWorkloads) {
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kPase;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 8;
  cfg.traffic.num_flows = 60;
  cfg.traffic.load = 0.5;
  cfg.traffic.deadline_min = 5e-3;
  cfg.traffic.deadline_max = 25e-3;
  cfg.traffic.seed = 2;
  auto res = workload::run_scenario(cfg);
  EXPECT_EQ(res.unfinished(), 0u);
  EXPECT_GT(res.app_throughput(), 0.5);
}

// --- Scenario fabric overrides ----------------------------------------------------

TEST(ScenarioOverrides, QueueCapacityOverrideChangesDropBehaviour) {
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kPfabric;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 12;
  cfg.traffic.load = 0.8;
  cfg.traffic.num_flows = 200;
  cfg.traffic.seed = 3;
  auto big_buf = cfg;
  big_buf.queue_capacity_pkts = 10000;  // effectively infinite
  auto res_small = workload::run_scenario(cfg);
  auto res_big = workload::run_scenario(big_buf);
  EXPECT_GT(res_small.fabric_drops, res_big.fabric_drops);
  EXPECT_EQ(res_big.fabric_drops, 0u);
}

// --- D2TCP / L2DCT law details ----------------------------------------------------

TEST(D2tcpLaws, PenaltyBoundedByAlpha) {
  // p = alpha^d with d in [0.5, 2]: penalty can never exceed sqrt(alpha)/2.
  auto n = test::make_mini_net();
  auto tight = test::make_flow(*n, 0, 1, 400 * net::kMss, 0.5e-3);
  transport::D2tcpSender s(n->sim, n->host(0), tight, {});
  EXPECT_LE(s.urgency(), 2.0);
  EXPECT_GE(s.urgency(), 0.5);
}

TEST(D2tcpLaws, PastDeadlineFallsBackToDctcp) {
  auto n = test::make_mini_net();
  auto f = test::make_flow(*n, 0, 1, 10 * net::kMss, 1e-3);
  transport::D2tcpSender s(n->sim, n->host(0), f, {});
  n->sim.schedule(2e-3, [] {});
  n->sim.run();
  EXPECT_DOUBLE_EQ(s.urgency(), 1.0);  // deadline passed: behave like DCTCP
}

TEST(L2dctLaws, GainShrinksAndBackoffGrowsWithProgress) {
  struct Probe : transport::L2dctSender {
    using L2dctSender::ecn_decrease_factor;
    using L2dctSender::increase_gain;
    using L2dctSender::L2dctSender;
  };
  auto n = test::make_mini_net();
  auto f = test::make_flow(*n, 0, 1, 800 * net::kMss);
  Probe s(n->sim, n->host(0), f, {});
  auto recv = test::wire_flow(*n, s, f);
  const double gain_young = s.increase_gain();
  s.start();
  n->sim.run(1.0);
  ASSERT_TRUE(recv->complete());
  const double gain_old = s.increase_gain();
  EXPECT_GT(gain_young, gain_old);
  EXPECT_GT(s.weight_fraction(), 0.99);
}

// --- Priority bank drains through a real link -------------------------------------

TEST(PriorityBank, WorkConservationAcrossClasses) {
  // A high-class and a low-class flow share a link: when the high class goes
  // idle the low class uses the full capacity (work conservation).
  auto n = test::make_mini_net(3, [](double) -> std::unique_ptr<net::Queue> {
    return std::make_unique<net::PriorityQueueBank>(4, 500, 1000);
  });
  // Low-priority traffic only: must still flow at line rate.
  auto f = test::make_flow(*n, 0, 1, 200 * net::kMss);
  transport::WindowSenderOptions o;
  o.init_cwnd = 40;
  struct LowPrio : transport::WindowSender {
    using WindowSender::WindowSender;
    void fill_data(net::Packet& p) override { p.priority = 3; }
  } s(n->sim, n->host(0), f, o);
  auto recv = test::wire_flow(*n, s, f);
  s.start();
  n->sim.run(1.0);
  ASSERT_TRUE(recv->complete());
  const double service = 200 * 1500.0 * 8 / 1e9;
  EXPECT_LT(recv->completion_time(), service * 1.2);
}

// --- FIN propagation without delegation -------------------------------------------

TEST(ControlPlane, FinReachesAggWithoutDelegation) {
  sim::Simulator sim;
  topo::ThreeTierConfig tc;
  tc.hosts_per_tor = 2;
  auto tt = topo::build_three_tier(
      sim, tc, [](double) -> std::unique_ptr<net::Queue> {
        return std::make_unique<net::PriorityQueueBank>(8, 500, 65);
      });
  core::PaseConfig cfg;
  cfg.delegation = false;
  cfg.early_pruning = false;
  core::ArbitrationPlane plane(sim, *tt.topo, cfg);
  struct C : core::ArbitrationClient {
    void arbitration_update(int, double, bool) override {}
  } c;
  transport::Flow f;
  f.id = 1;
  f.src = tt.topo->host(0)->id();
  f.dst = tt.topo->host(7)->id();  // cross-core
  f.size_bytes = 100'000;
  plane.register_sender(c, f, 100e3, 1e9);
  sim.run(2e-3);
  auto* agg_arb = plane.up_arbitrator(tt.aggs[0]->id());
  ASSERT_NE(agg_arb, nullptr);
  EXPECT_TRUE(agg_arb->table().contains(1));
  plane.sender_finished(f);
  sim.run(4e-3);  // FIN travels host -> ToR -> Agg
  EXPECT_FALSE(agg_arb->table().contains(1));
}

// --- Simulator robustness ----------------------------------------------------------

TEST(SimulatorEdge, ZeroDelayEventsRunInOrder) {
  sim::Simulator s;
  std::vector<int> order;
  s.schedule(0.0, [&] {
    order.push_back(1);
    s.schedule(0.0, [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorEdge, ManyCancellationsStayConsistent) {
  sim::Simulator s;
  int fired = 0;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(s.schedule(1e-3 + i * 1e-6, [&] { ++fired; }));
  }
  for (int i = 0; i < 1000; i += 2) s.cancel(ids[static_cast<size_t>(i)]);
  s.run();
  EXPECT_EQ(fired, 500);
}

}  // namespace
}  // namespace pase
