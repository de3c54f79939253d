// Link serialization/propagation timing, switch routing/hooks, host demux.
#include <gtest/gtest.h>

#include <memory>

#include "net/droptail_queue.h"
#include "net/host.h"
#include "net/link.h"
#include "net/switch.h"
#include "sim/simulator.h"

namespace pase::net {
namespace {

class SinkNode : public Node {
 public:
  SinkNode(NodeId id) : Node(id, "sink") {}
  void receive(PacketPtr p) override {
    packets.push_back(std::move(p));
    arrival_times.push_back(last_now ? *last_now : -1.0);
  }
  std::vector<PacketPtr> packets;
  std::vector<double> arrival_times;
  const double* last_now = nullptr;  // bound to a simulator clock mirror
};

struct LinkFixture : ::testing::Test {
  sim::Simulator sim;
  SinkNode sink{99};
  DropTailQueue queue{100};
  // 1 Gbps, 10 us propagation.
  Link link{sim, 1e9, 10e-6, "test"};

  void SetUp() override { link.connect(&queue, &sink); }
};

TEST_F(LinkFixture, DeliversAfterSerializationPlusPropagation) {
  auto p = make_data_packet(1, 0, 99, 0);  // 1500 B wire
  const double expect = 1500.0 * 8 / 1e9 + 10e-6;
  double arrival = -1;
  queue.enqueue(std::move(p));
  sim.schedule_at(expect - 1e-12, [&] { EXPECT_TRUE(sink.packets.empty()); });
  sim.run();
  (void)arrival;
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_NEAR(sim.now(), expect, 1e-12);
}

TEST_F(LinkFixture, BackToBackPacketsSpacedBySerialization) {
  for (std::uint32_t i = 0; i < 3; ++i) {
    queue.enqueue(make_data_packet(1, 0, 99, i));
  }
  sim.run();
  // Last packet leaves at 3 * tx and lands tx*3 + prop later.
  const double tx = 1500.0 * 8 / 1e9;
  EXPECT_NEAR(sim.now(), 3 * tx + 10e-6, 1e-12);
  EXPECT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(sink.packets[0]->seq, 0u);
  EXPECT_EQ(sink.packets[2]->seq, 2u);
}

TEST_F(LinkFixture, ThroughputMatchesCapacity) {
  const int n = 90;  // stay within the queue's 100-packet capacity
  for (int i = 0; i < n; ++i) {
    queue.enqueue(make_data_packet(1, 0, 99, static_cast<std::uint32_t>(i)));
  }
  sim.run();
  const double duration = sim.now() - 10e-6;  // subtract last propagation
  const double bits = static_cast<double>(n) * 1500 * 8;
  EXPECT_NEAR(bits / duration, 1e9, 1e9 * 0.001);
  EXPECT_EQ(link.packets_sent(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(link.bytes_sent(), static_cast<std::uint64_t>(n) * 1500);
}

TEST_F(LinkFixture, SmallPacketsSerializeFaster) {
  auto ack = make_control_packet(PacketType::kAck, 1, 0, 99);
  queue.enqueue(std::move(ack));
  sim.run();
  EXPECT_NEAR(sim.now(), 40.0 * 8 / 1e9 + 10e-6, 1e-12);
}

TEST_F(LinkFixture, BusyTimeAccumulates) {
  queue.enqueue(make_data_packet(1, 0, 99, 0));
  queue.enqueue(make_data_packet(1, 0, 99, 1));
  sim.run();
  EXPECT_NEAR(link.busy_time(), 2 * 1500.0 * 8 / 1e9, 1e-12);
}

// A run can stop with a hop pending; the packet that hop carries must go
// back to the thread's pool when the simulator is destroyed, whether its
// tx-done (serializing) or its delivery (propagating) is the pending event.
// The network objects die first, as a scenario's topology does.
TEST(LinkTeardown, PendingHopReturnsPacketToPool) {
  for (const bool serialized : {false, true}) {
    PacketPool& pool = PacketPool::local();
    auto sim = std::make_unique<sim::Simulator>();
    {
      SinkNode sink{99};
      DropTailQueue queue{10};
      Link link{*sim, 1e9, 10e-6};
      link.connect(&queue, &sink);
      queue.enqueue(make_data_packet(1, 0, 99, 0));
      if (serialized) {
        ASSERT_TRUE(sim->step());  // tx-done fired and scheduled the delivery
      }
      ASSERT_EQ(sim->pending_events(), 1u);
      ASSERT_TRUE(sink.packets.empty());
    }
    const std::size_t held = pool.available();
    sim.reset();
    EXPECT_EQ(pool.available(), held + 1)
        << (serialized ? "delivery pending" : "tx-done pending");
  }
}

// --- Switch -------------------------------------------------------------------

struct SwitchFixture : ::testing::Test {
  sim::Simulator sim;
  Switch sw{10, "sw"};
  SinkNode a{0}, b{1};

  void SetUp() override {
    sw.add_port(std::make_unique<DropTailQueue>(10),
                std::make_unique<Link>(sim, 1e9, 1e-6), &a);
    sw.add_port(std::make_unique<DropTailQueue>(10),
                std::make_unique<Link>(sim, 1e9, 1e-6), &b);
    sw.set_route(0, 0);
    sw.set_route(1, 1);
  }
};

TEST_F(SwitchFixture, RoutesByDestination) {
  sw.receive(make_data_packet(1, 5, 0, 0));
  sw.receive(make_data_packet(2, 5, 1, 0));
  sim.run();
  ASSERT_EQ(a.packets.size(), 1u);
  ASSERT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(a.packets[0]->flow, 1u);
  EXPECT_EQ(b.packets[0]->flow, 2u);
}

TEST_F(SwitchFixture, ThrowsOnMissingRoute) {
  EXPECT_THROW(sw.receive(make_data_packet(1, 5, 42, 0)), std::runtime_error);
}

TEST_F(SwitchFixture, ForwardHooksSeePacketsAndPorts) {
  std::vector<int> ports;
  sw.add_forward_hook([&](Packet& p, int port) {
    ports.push_back(port);
    p.priority = 7;  // hooks may rewrite headers
  });
  sw.receive(make_data_packet(1, 5, 1, 0));
  sim.run();
  ASSERT_EQ(ports.size(), 1u);
  EXPECT_EQ(ports[0], 1);
  EXPECT_EQ(b.packets[0]->priority, 7);
}

TEST_F(SwitchFixture, ControlHandlerGetsOwnTraffic) {
  int control_seen = 0;
  sw.set_control_handler([&](PacketPtr) { ++control_seen; });
  sw.receive(make_control_packet(PacketType::kArbRequest, 1, 5, 10));
  EXPECT_EQ(control_seen, 1);
  EXPECT_TRUE(a.packets.empty());
}

// --- Host demux ----------------------------------------------------------------

struct RecordingSink : PacketSink {
  std::vector<PacketPtr> got;
  void deliver(PacketPtr p) override { got.push_back(std::move(p)); }
};

TEST(Host, DemuxesByFlowId) {
  sim::Simulator sim;
  Host h(0, "h");
  SinkNode tor(1);
  h.attach_uplink(std::make_unique<DropTailQueue>(10),
                  std::make_unique<Link>(sim, 1e9, 1e-6), &tor);
  RecordingSink s1, s2;
  h.register_flow(1, &s1);
  h.register_flow(2, &s2);
  h.receive(make_data_packet(1, 5, 0, 0));
  h.receive(make_data_packet(2, 5, 0, 0));
  h.receive(make_data_packet(3, 5, 0, 0));  // unknown: dropped silently
  EXPECT_EQ(s1.got.size(), 1u);
  EXPECT_EQ(s2.got.size(), 1u);
  h.unregister_flow(1);
  h.receive(make_data_packet(1, 5, 0, 0));
  EXPECT_EQ(s1.got.size(), 1u);
}

TEST(Host, ControlTrafficGoesToControlHandler) {
  sim::Simulator sim;
  Host h(0, "h");
  SinkNode tor(1);
  h.attach_uplink(std::make_unique<DropTailQueue>(10),
                  std::make_unique<Link>(sim, 1e9, 1e-6), &tor);
  int control = 0;
  h.set_control_handler([&](PacketPtr) { ++control; });
  h.receive(make_control_packet(PacketType::kArbResponse, 1, 5, 0));
  h.receive(make_control_packet(PacketType::kArbDelegate, 0, 5, 0));
  EXPECT_EQ(control, 2);
}

TEST(Host, SendHooksRunOnEgress) {
  sim::Simulator sim;
  Host h(0, "h");
  SinkNode tor(1);
  h.attach_uplink(std::make_unique<DropTailQueue>(10),
                  std::make_unique<Link>(sim, 1e9, 1e-6), &tor);
  h.add_send_hook([](Packet& p) { p.pdq.rate = 123.0; });
  h.send(make_data_packet(1, 0, 1, 0));
  sim.run();
  ASSERT_EQ(tor.packets.size(), 1u);
  EXPECT_EQ(tor.packets[0]->pdq.rate, 123.0);
}

}  // namespace
}  // namespace pase::net
