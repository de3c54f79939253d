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

// A run can stop with a hop pending; the packet it carries must go back to
// the thread's pool when the simulator is destroyed. A lone packet leaves
// one pending event, its delivery, which holds the packet. A packet that
// waits behind it adds a tx-done, which holds none (the waiting packet is
// the queue's), so teardown must not hand the pool a null. The network
// objects die first, as a scenario's topology does.
TEST(LinkTeardown, PendingHopReturnsPacketToPool) {
  for (const bool waiting : {false, true}) {
    PacketPool& pool = PacketPool::local();
    auto sim = std::make_unique<sim::Simulator>();
    {
      SinkNode sink{99};
      DropTailQueue queue{10};
      Link link{*sim, 1e9, 10e-6};
      link.connect(&queue, &sink);
      queue.enqueue(make_data_packet(1, 0, 99, 0));
      if (waiting) queue.enqueue(make_data_packet(1, 0, 99, 1));
      ASSERT_EQ(sim->pending_events(), waiting ? 2u : 1u);
      ASSERT_EQ(queue.len_packets(), waiting ? 1u : 0u);
      ASSERT_TRUE(sink.packets.empty());
    }
    const std::size_t held = pool.available();
    sim.reset();
    EXPECT_EQ(pool.available(), held + 1)
        << (waiting ? "delivery and tx-done pending" : "delivery pending");
  }
}

// --- One event per idle hop --------------------------------------------------

// Records each arrival's simulated time.
class ClockedSink : public Node {
 public:
  explicit ClockedSink(const sim::Simulator& sim)
      : Node(99, "sink"), sim_(sim) {}
  void receive(PacketPtr p) override {
    packets.push_back(std::move(p));
    arrival_times.push_back(sim_.now());
  }
  std::vector<PacketPtr> packets;
  std::vector<double> arrival_times;

 private:
  const sim::Simulator& sim_;
};

struct LinkHop : ::testing::Test {
  static constexpr double kRate = 1e9;
  static constexpr double kDelay = 10e-6;
  sim::Simulator sim;
  ClockedSink sink{sim};
  DropTailQueue queue{100};
  Link link{sim, kRate, kDelay, "hop"};
  const double tx = link.serialization_delay(1500);

  void SetUp() override { link.connect(&queue, &sink); }
  void send(std::uint32_t seq) {
    queue.enqueue(make_data_packet(1, 0, 99, seq));
  }
};

TEST_F(LinkHop, IdleHopIsOneEvent) {
  const double t0 = 3.3e-6;
  sim.schedule_at(t0, [this] { send(0); });
  sim.run();
  // The enqueueing event, then the delivery: no tx-done.
  EXPECT_EQ(sim.executed_events(), 2u);
  ASSERT_EQ(sink.arrival_times.size(), 1u);
  EXPECT_EQ(sink.arrival_times[0], (t0 + tx) + kDelay);
  EXPECT_TRUE(link.idle());
}

TEST_F(LinkHop, BurstCostsDeliveriesPlusWaitingTxDones) {
  const int n = 5;
  for (int k = 0; k < n; ++k) send(static_cast<std::uint32_t>(k));
  EXPECT_EQ(queue.len_packets(), static_cast<std::size_t>(n - 1));
  sim.run();
  // n deliveries, plus one tx-done per packet that waited.
  EXPECT_EQ(sim.executed_events(), static_cast<std::uint64_t>(2 * n - 1));
  ASSERT_EQ(sink.arrival_times.size(), static_cast<std::size_t>(n));
  double start = 0.0;
  for (int k = 0; k < n; ++k) {
    const double end = start + tx;
    EXPECT_EQ(sink.arrival_times[static_cast<std::size_t>(k)], end + kDelay)
        << "delivery " << k;
    EXPECT_EQ(sink.packets[static_cast<std::size_t>(k)]->seq,
              static_cast<std::uint32_t>(k));
    start = end;
  }
}

// At the instant a serialization ends, an arrival whose event orders before
// the reserved tx-done key finds the link busy and waits for the tx-done; one
// ordering after it finds the link idle and transmits at once. Either way
// the packet leaves at the end instant.
TEST_F(LinkHop, ArrivalAtSerializationEndQueuesIffItOrdersFirst) {
  const double end = 0.0 + tx;
  bool was_idle = true;
  std::size_t waiting = 0;
  // Scheduled before the transmit below draws the reserved key.
  sim.schedule_at(end, [&] {
    was_idle = link.idle();
    send(1);
    waiting = queue.len_packets();
  });
  send(0);
  sim.run();
  EXPECT_FALSE(was_idle);
  EXPECT_EQ(waiting, 1u);
  // The arrival, the tx-done that hands the link on, two deliveries.
  EXPECT_EQ(sim.executed_events(), 4u);
  ASSERT_EQ(sink.arrival_times.size(), 2u);
  EXPECT_EQ(sink.arrival_times[1], (end + tx) + kDelay);
}

TEST_F(LinkHop, ArrivalAfterReservedKeyTransmitsAtOnce) {
  const double end = 0.0 + tx;
  bool was_idle = false;
  std::size_t waiting = 1;
  send(0);
  // Scheduled after the transmit above drew the reserved key.
  sim.schedule_at(end, [&] {
    was_idle = link.idle();
    send(1);
    waiting = queue.len_packets();
  });
  sim.run();
  EXPECT_TRUE(was_idle);
  EXPECT_EQ(waiting, 0u);
  // The arrival and two deliveries.
  EXPECT_EQ(sim.executed_events(), 3u);
  ASSERT_EQ(sink.arrival_times.size(), 2u);
  EXPECT_EQ(sink.arrival_times[1], (end + tx) + kDelay);
}

// Outside any event at the end instant, every event there has run but a
// pending tx-done: with none armed the link is idle and an enqueue
// transmits at once; with one armed the arrival waits behind it.
TEST_F(LinkHop, SetupContextAtSerializationEnd) {
  const double end = 0.0 + tx;
  send(0);
  sim.run(end);  // nothing due by then; the clock stops at the end instant
  ASSERT_EQ(sim.now(), end);
  EXPECT_TRUE(link.idle());
  send(1);
  EXPECT_EQ(queue.len_packets(), 0u);
  EXPECT_EQ(sim.pending_events(), 2u);  // two deliveries, no tx-done
  sim.run();
  EXPECT_EQ(sink.arrival_times.size(), 2u);
}

TEST_F(LinkHop, SetupContextWaitsBehindArmedTxDone) {
  const double end = 0.0 + tx;
  sim.schedule_at(end, [] {});  // orders before the reserved key
  send(0);
  send(1);  // waits, arming the tx-done at the end instant
  ASSERT_TRUE(sim.step());  // the empty event; the tx-done is still due
  ASSERT_EQ(sim.now(), end);
  EXPECT_FALSE(link.idle());
  send(2);
  EXPECT_EQ(queue.len_packets(), 2u);
  sim.run();
  ASSERT_EQ(sink.packets.size(), 3u);
  for (std::uint32_t k = 0; k < 3; ++k) EXPECT_EQ(sink.packets[k]->seq, k);
  EXPECT_EQ(sink.arrival_times[2], ((end + tx) + tx) + kDelay);
}

TEST_F(LinkHop, UnlinkedQueueBuffers) {
  DropTailQueue unlinked{4};
  unlinked.enqueue(make_data_packet(1, 0, 99, 0));
  unlinked.enqueue(make_data_packet(1, 0, 99, 1));
  EXPECT_EQ(unlinked.len_packets(), 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
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
