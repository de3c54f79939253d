// Arbitration control plane tests: bottom-up arbitration over the tree,
// intra-rack locality, early pruning, delegation, FINs, local-only mode —
// plus PASE sender behaviour (Algorithm 2, probing recovery, barriers).
#include <gtest/gtest.h>

#include "core/pase_sender.h"
#include "net/priority_queue_bank.h"
#include "test_util.h"
#include "topo/fat_tree.h"
#include "topo/three_tier.h"
#include "workload/scenario.h"

namespace pase::core {
namespace {

topo::QueueFactory bank_factory(int queues = 8) {
  return [queues](double) {
    return std::make_unique<net::PriorityQueueBank>(queues, 500, 65);
  };
}

// A small 3-tier world: 2 hosts per rack, 4 racks, 2 aggs, 1 core.
struct PlaneWorld {
  sim::Simulator sim;
  topo::ThreeTier tt;
  std::unique_ptr<ArbitrationPlane> plane;

  explicit PlaneWorld(PaseConfig cfg = {}) {
    topo::ThreeTierConfig tc;
    tc.hosts_per_tor = 2;
    tt = topo::build_three_tier(sim, tc, bank_factory(cfg.num_queues));
    cfg.rtt = 300e-6;
    cfg.arbitration_period = 300e-6;
    plane = std::make_unique<ArbitrationPlane>(sim, *tt.topo, cfg);
  }

  net::Host& host(int i) { return *tt.topo->host(static_cast<std::size_t>(i)); }

  transport::Flow flow(net::FlowId id, int src, int dst,
                       std::uint64_t bytes = 100'000) {
    transport::Flow f;
    f.id = id;
    f.src = host(src).id();
    f.dst = host(dst).id();
    f.size_bytes = bytes;
    return f;
  }
};

struct FakeClient : ArbitrationClient {
  int prio = -1;
  double rate = -1;
  int rx_updates = 0;
  int tx_updates = 0;
  void arbitration_update(int p, double r, bool rx_half) override {
    prio = p;
    rate = r;
    (rx_half ? rx_updates : tx_updates)++;
  }
};

TEST(ArbitrationPlane, SoloFlowGetsTopQueueLocally) {
  PlaneWorld w;
  FakeClient c;
  auto f = w.flow(1, 0, 1);  // intra-rack
  auto r = w.plane->register_sender(c, f, 100e3, 1e9);
  EXPECT_EQ(r.prio_queue, 0);
  EXPECT_DOUBLE_EQ(r.ref_rate, 1e9);
}

TEST(ArbitrationPlane, IntraRackFlowSendsNoSenderHalfMessages) {
  PlaneWorld w;
  FakeClient c;
  auto f = w.flow(1, 0, 1);
  w.plane->register_sender(c, f, 100e3, 1e9);
  w.sim.run(2e-3);
  EXPECT_EQ(w.plane->stats().requests, 0u);
}

TEST(ArbitrationPlane, InterRackFlowTriggersFabricArbitration) {
  PlaneWorld w;
  FakeClient c;
  auto f = w.flow(1, 0, 7);  // cross-core
  w.plane->register_sender(c, f, 100e3, 1e9);
  w.sim.run(5e-3);
  EXPECT_GE(w.plane->stats().requests, 1u);
  EXPECT_GE(c.tx_updates, 1);  // fabric response reached the client
}

TEST(ArbitrationPlane, ReceiverHalfRespondsToDataArrival) {
  PlaneWorld w;
  FakeClient c;
  auto f = w.flow(1, 0, 1);
  w.plane->register_sender(c, f, 100e3, 1e9);
  // Simulate a data packet arriving at the destination.
  transport::Receiver recv(w.sim, w.host(1), f);
  w.plane->attach_receiver(recv);
  auto p = net::make_data_packet(f.id, f.src, f.dst, 0);
  p->remaining_size = 100e3;
  recv.deliver(std::move(p));
  w.sim.run(2e-3);
  EXPECT_GE(c.rx_updates, 1);
}

TEST(ArbitrationPlane, UplinkContentionDemotesLessCriticalFlow) {
  PlaneWorld w;
  FakeClient c1, c2;
  auto f1 = w.flow(1, 0, 1, 50'000);
  auto f2 = w.flow(2, 0, 1, 200'000);  // same source: shares the uplink
  auto r1 = w.plane->register_sender(c1, f1, 50e3, 1e9);
  auto r2 = w.plane->register_sender(c2, f2, 200e3, 1e9);
  EXPECT_EQ(r1.prio_queue, 0);
  EXPECT_EQ(r2.prio_queue, 1);
  EXPECT_DOUBLE_EQ(r2.ref_rate, w.plane->config().base_rate_bps());
}

TEST(ArbitrationPlane, SenderFinishedFreesUplink) {
  PlaneWorld w;
  FakeClient c1, c2;
  auto f1 = w.flow(1, 0, 1, 50'000);
  auto f2 = w.flow(2, 0, 1, 200'000);
  w.plane->register_sender(c1, f1, 50e3, 1e9);
  w.plane->register_sender(c2, f2, 200e3, 1e9);
  w.plane->sender_finished(f1);
  auto r2 = w.plane->source_arbitrate(f2, 200e3, 1e9);
  EXPECT_EQ(r2.prio_queue, 0);
}

TEST(ArbitrationPlane, EarlyPruningStopsLowPriorityAscent) {
  PaseConfig cfg;
  cfg.early_pruning = true;
  cfg.pruning_queues = 2;
  cfg.delegation = false;
  PlaneWorld w(cfg);
  // Saturate host 0's uplink with two critical flows, then register an
  // inter-rack flow that lands in queue 2: it must not ascend.
  FakeClient c1, c2, c3;
  w.plane->register_sender(c1, w.flow(1, 0, 7, 10'000), 10e3, 1e9);
  w.plane->register_sender(c2, w.flow(2, 0, 7, 20'000), 20e3, 1e9);
  const auto requests_before = w.plane->stats().requests;
  auto r3 = w.plane->register_sender(c3, w.flow(3, 0, 7, 900'000), 900e3, 1e9);
  EXPECT_GE(r3.prio_queue, 2);
  EXPECT_EQ(w.plane->stats().requests, requests_before);  // pruned at host
  EXPECT_GE(w.plane->stats().pruned_requests, 1u);
}

TEST(ArbitrationPlane, NoPruningWhenDisabled) {
  PaseConfig cfg;
  cfg.early_pruning = false;
  cfg.delegation = false;
  PlaneWorld w(cfg);
  FakeClient c1, c2, c3;
  w.plane->register_sender(c1, w.flow(1, 0, 7, 10'000), 10e3, 1e9);
  w.plane->register_sender(c2, w.flow(2, 0, 7, 20'000), 20e3, 1e9);
  const auto before = w.plane->stats().requests;
  w.plane->register_sender(c3, w.flow(3, 0, 7, 900'000), 900e3, 1e9);
  EXPECT_GT(w.plane->stats().requests, before);
}

TEST(ArbitrationPlane, LocalOnlyNeverSendsMessages) {
  PaseConfig cfg;
  cfg.local_only = true;
  PlaneWorld w(cfg);
  FakeClient c;
  auto f = w.flow(1, 0, 7);
  w.plane->register_sender(c, f, 100e3, 1e9);
  transport::Receiver recv(w.sim, *w.tt.topo->host(7), f);
  w.plane->attach_receiver(recv);
  recv.deliver(net::make_data_packet(f.id, f.src, f.dst, 0));
  w.sim.run(5e-3);
  EXPECT_EQ(w.plane->stats().messages_sent, 0u);
}

TEST(ArbitrationPlane, DelegationExchangesReportsAndGrants) {
  PaseConfig cfg;
  cfg.delegation = true;
  PlaneWorld w(cfg);
  w.sim.run(5e-3);  // several delegation periods
  EXPECT_GT(w.plane->stats().delegation_msgs, 0u);
}

TEST(ArbitrationPlane, DelegationShiftsVirtualCapacityTowardDemand) {
  PaseConfig cfg;
  cfg.delegation = true;
  cfg.delegation_update_period = 500e-6;
  PlaneWorld w(cfg);
  // Rack 0 has heavy inter-agg demand; rack 1 (same agg) has none.
  std::vector<std::unique_ptr<FakeClient>> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(std::make_unique<FakeClient>());
    auto f = w.flow(static_cast<net::FlowId>(i + 1), i % 2, 7,
                    100'000 + 1000 * static_cast<std::uint64_t>(i));
    // refresh periodically so table entries stay alive
    w.plane->register_sender(*clients.back(), f, 100e3, 1e9);
    for (int k = 1; k <= 10; ++k) {
      w.sim.schedule(k * 300e-6, [&w, f] {
        w.plane->source_arbitrate(f, 100e3, 1e9);
      });
    }
  }
  w.sim.run(4e-3);
  // ToR0's virtual uplink capacity should exceed ToR1's after reports.
  auto* t0 = w.plane->up_arbitrator(w.tt.tors[0]->id());
  ASSERT_NE(t0, nullptr);
  // (The virtual arbitrators are internal; observe indirectly: flows from
  // rack 0 should still be mapped to the top queues.)
  auto r = w.plane->source_arbitrate(w.flow(1, 0, 7, 100'000), 5e3, 1e9);
  EXPECT_LE(r.prio_queue, 1);
}

TEST(ArbitrationPlane, ControlMessagesAreRealPackets) {
  PlaneWorld w;
  FakeClient c;
  auto f = w.flow(1, 0, 7);
  const auto enqueues_before = w.tt.topo->total_enqueues();
  w.plane->register_sender(c, f, 100e3, 1e9);
  w.sim.run(2e-3);
  EXPECT_GT(w.tt.topo->total_enqueues(), enqueues_before);
}

// Each switch arbitrates the link above it at that link's rate; on a
// fat-tree only the pod's slot-0 agg arbitrates above the edges.
TEST(ArbitrationPlane, SwitchArbitratorsTakeTheirLinkRate) {
  sim::Simulator sim;
  topo::FatTreeConfig fc;
  fc.fabric_rate_bps = 40e9;
  const topo::FatTree t = topo::build_fat_tree(sim, fc, bank_factory());
  ArbitrationPlane plane(sim, *t.topo, PaseConfig{});
  for (const net::Switch* edge : t.edges) {
    const LinkArbitrator* up = plane.up_arbitrator(edge->id());
    ASSERT_NE(up, nullptr) << edge->name();
    EXPECT_EQ(up->table().capacity(), 40e9);
  }
  for (std::size_t a = 0; a < t.aggs.size(); ++a) {
    const LinkArbitrator* up = plane.up_arbitrator(t.aggs[a]->id());
    if (a % static_cast<std::size_t>(fc.aggs_per_pod()) == 0) {
      ASSERT_NE(up, nullptr) << t.aggs[a]->name();
      EXPECT_EQ(up->table().capacity(), 40e9);
    } else {
      EXPECT_EQ(up, nullptr) << t.aggs[a]->name();
    }
  }
  for (const net::Switch* core : t.cores) {
    EXPECT_EQ(plane.up_arbitrator(core->id()), nullptr);
  }

  auto n = test::make_mini_net(3, bank_factory());
  ArbitrationPlane rack_plane(n->sim, *n->rack.topo, PaseConfig{});
  EXPECT_EQ(rack_plane.up_arbitrator(n->rack.tor->id()), nullptr);
}

// --- PaseSender end-to-end -------------------------------------------------------

struct PaseNet {
  sim::Simulator* sim;
  std::unique_ptr<test::MiniNet> n;
  std::unique_ptr<ArbitrationPlane> plane;

  explicit PaseNet(int hosts, PaseConfig cfg = {}) {
    n = test::make_mini_net(hosts, bank_factory(cfg.num_queues));
    sim = &n->sim;
    cfg.rtt = 150e-6;
    cfg.arbitration_period = 150e-6;
    plane = std::make_unique<ArbitrationPlane>(n->sim, *n->rack.topo, cfg);
  }
  ~PaseNet() {
    plane.reset();  // plane holds pointers into n; drop it first
  }
};

std::unique_ptr<transport::Receiver> wire_pase(PaseNet& pn, PaseSender& s,
                                               const transport::Flow& f) {
  auto recv = test::wire_flow(*pn.n, s, f);
  pn.plane->attach_receiver(*recv);
  return recv;
}

TEST(PaseSender, CompletesWithGuidedStart) {
  PaseNet pn(2);
  auto f = test::make_flow(*pn.n, 0, 1, 100 * net::kMss);
  PaseSender s(*pn.sim, pn.n->host(0), f, *pn.plane);
  auto recv = wire_pase(pn, s, f);
  s.start();
  EXPECT_EQ(s.priority_queue(), 0);
  // Guided start: window is Rref x RTT, not slow-start's 3.
  EXPECT_GT(s.cwnd(), 5.0);
  pn.sim->run(1.0);
  EXPECT_TRUE(recv->complete());
  const double service = 100 * 1500.0 * 8 / 1e9;
  EXPECT_LT(recv->completion_time(), service + 2e-3);
}

TEST(PaseSender, SecondFlowFromSameHostWaitsInLowerQueue) {
  PaseNet pn(3);
  auto f1 = test::make_flow(*pn.n, 0, 1, 600 * net::kMss);
  f1.id = 1;
  auto f2 = test::make_flow(*pn.n, 0, 2, 60 * net::kMss);
  f2.id = 2;
  PaseSender s1(*pn.sim, pn.n->host(0), f1, *pn.plane);
  PaseSender s2(*pn.sim, pn.n->host(0), f2, *pn.plane);
  auto r1 = wire_pase(pn, s1, f1);
  auto r2 = wire_pase(pn, s2, f2);
  s1.start();
  pn.sim->schedule_at(1e-3, [&] { s2.start(); });
  // Sample while both flows are active: the smaller flow outranks the big
  // one on the shared uplink.
  int q1_seen = -1, q2_seen = -1;
  pn.sim->schedule_at(1.5e-3, [&] {
    q1_seen = s1.priority_queue();
    q2_seen = s2.priority_queue();
  });
  pn.sim->run(2e-3);
  EXPECT_EQ(q2_seen, 0);
  EXPECT_GE(q1_seen, 1);
  pn.sim->run(1.0);
  EXPECT_TRUE(r1->complete());
  EXPECT_TRUE(r2->complete());
  EXPECT_LT(r2->completion_time(), r1->completion_time());
}

TEST(PaseSender, ReceiverSideContentionDemotesCompetingSender) {
  PaseNet pn(3);
  // Two sources, one destination: contention only at the receiver downlink.
  auto f1 = test::make_flow(*pn.n, 0, 2, 600 * net::kMss);
  f1.id = 1;
  auto f2 = test::make_flow(*pn.n, 1, 2, 60 * net::kMss);
  f2.id = 2;
  PaseSender s1(*pn.sim, pn.n->host(0), f1, *pn.plane);
  PaseSender s2(*pn.sim, pn.n->host(1), f2, *pn.plane);
  auto r1 = wire_pase(pn, s1, f1);
  auto r2 = wire_pase(pn, s2, f2);
  s1.start();
  pn.sim->schedule_at(1e-3, [&] { s2.start(); });
  // Sample while both are active: receiver-half arbitration pushes the long
  // flow out of the top queue.
  int q1_seen = -1, q2_seen = -1;
  pn.sim->schedule_at(1.6e-3, [&] {
    q1_seen = s1.priority_queue();
    q2_seen = s2.priority_queue();
  });
  pn.sim->run(3e-3);
  EXPECT_GE(q1_seen, 1);
  EXPECT_EQ(q2_seen, 0);
  pn.sim->run(1.0);
  EXPECT_TRUE(r1->complete());
  EXPECT_TRUE(r2->complete());
  EXPECT_LT(r2->completion_time(), r1->completion_time());
}

TEST(PaseSender, BackgroundFlowPinnedToLowestQueue) {
  PaseNet pn(2);
  auto f = test::make_flow(*pn.n, 0, 1, 100 * net::kMss);
  f.background = true;
  PaseSender s(*pn.sim, pn.n->host(0), f, *pn.plane);
  auto recv = wire_pase(pn, s, f);
  s.start();
  EXPECT_EQ(s.priority_queue(), pn.plane->config().background_queue());
  EXPECT_EQ(s.wire_priority(), 7);
  pn.sim->run(1.0);
  EXPECT_TRUE(recv->complete());
  // Background flows never arbitrate.
  EXPECT_EQ(pn.plane->stats().arbitrations, 0u);
}

TEST(PaseSender, ProbeRecoversFromQueueingWithoutRetransmit) {
  // A background-priority long flow is starved by a top-queue flow; its RTO
  // fires but probing discovers the packets are queued, not lost.
  PaseNet pn(3);
  auto big = test::make_flow(*pn.n, 0, 2, 400 * net::kMss);
  big.id = 1;
  auto small = test::make_flow(*pn.n, 1, 2, 300 * net::kMss);
  small.id = 2;
  PaseSender s1(*pn.sim, pn.n->host(0), big, *pn.plane);
  PaseSender s2(*pn.sim, pn.n->host(1), small, *pn.plane);
  auto r1 = wire_pase(pn, s1, big);
  auto r2 = wire_pase(pn, s2, small);
  s1.start();
  s2.start();
  pn.sim->run(1.0);
  EXPECT_TRUE(r1->complete());
  EXPECT_TRUE(r2->complete());
  // No data was lost in this run: spurious-timeout protection means zero
  // unnecessary retransmissions even though the loser waited.
  EXPECT_EQ(pn.n->topo().total_drops(), 0u);
  EXPECT_EQ(s1.retransmissions() + s2.retransmissions(), 0u);
}

TEST(PaseSender, ProbeDetectsRealLossAndRetransmits) {
  // Drop one data packet of a demoted flow; the probe must trigger an actual
  // retransmission.
  int dropped = 0;
  auto base = bank_factory();
  // Drop a small burst of demoted-flow packets so fewer than three dupacks
  // follow the hole: recovery must come from the probe/RTO path.
  auto factory = test::FaultQueue::wrap_factory(
      base, [&dropped](const net::Packet& p) {
        if (p.type == net::PacketType::kData && p.priority >= 1 &&
            dropped < 4) {
          ++dropped;
          return true;
        }
        return false;
      });
  auto n = test::make_mini_net(3, factory);
  PaseConfig cfg;
  cfg.rtt = 150e-6;
  cfg.arbitration_period = 150e-6;
  cfg.min_rto_low = 5e-3;  // keep the test fast
  ArbitrationPlane plane(n->sim, *n->rack.topo, cfg);

  // The competing flow must outlive the demoted flow's RTO so the timeout
  // takes the lower-queue probe path rather than the top-queue one.
  auto big = test::make_flow(*n, 0, 2, 1000 * net::kMss);
  big.id = 1;
  auto small = test::make_flow(*n, 1, 2, 800 * net::kMss);
  small.id = 2;
  PaseSender s1(n->sim, n->host(0), big, plane);
  PaseSender s2(n->sim, n->host(1), small, plane);
  auto r1 = test::wire_flow(*n, s1, big);
  plane.attach_receiver(*r1);
  auto r2 = test::wire_flow(*n, s2, small);
  plane.attach_receiver(*r2);
  s1.start();
  s2.start();
  n->sim.run(2.0);
  EXPECT_TRUE(r1->complete());
  EXPECT_TRUE(r2->complete());
  EXPECT_GE(dropped, 1);
  EXPECT_GE(s1.probes_sent() + s2.probes_sent(), 1u);
  EXPECT_GE(s1.retransmissions() + s2.retransmissions(), 1u);
}

TEST(PaseSender, QueueAwareMinRto) {
  PaseNet pn(2);
  auto f = test::make_flow(*pn.n, 0, 1, 10 * net::kMss);
  PaseSender s(*pn.sim, pn.n->host(0), f, *pn.plane);
  auto recv = wire_pase(pn, s, f);
  s.start();
  pn.sim->run(1.0);
  EXPECT_TRUE(recv->complete());
  // Top-queue flows finished without ever waiting for the 200 ms low-queue
  // RTO; total runtime confirms the fast path.
  EXPECT_LT(recv->completion_time(), 10e-3);
}

TEST(PaseSenderAblation, NoReferenceRateFallsBackToSlowStart) {
  PaseConfig cfg;
  cfg.use_reference_rate = false;
  PaseNet pn(2, cfg);
  auto f = test::make_flow(*pn.n, 0, 1, 100 * net::kMss);
  PaseSender s(*pn.sim, pn.n->host(0), f, *pn.plane);
  auto recv = wire_pase(pn, s, f);
  s.start();
  EXPECT_LE(s.cwnd(), 3.0);  // stock initial window
  pn.sim->run(1.0);
  EXPECT_TRUE(recv->complete());
}

}  // namespace
}  // namespace pase::core
