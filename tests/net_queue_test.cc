// Queue discipline tests: DropTail, RED/ECN, strict-priority bank, pFabric.
#include <gtest/gtest.h>

#include "net/droptail_queue.h"
#include "net/packet_ring.h"
#include "net/pfabric_queue.h"
#include "net/priority_queue_bank.h"
#include "net/red_ecn_queue.h"

namespace pase::net {
namespace {

PacketPtr data(FlowId flow, std::uint32_t seq = 0, double remaining = 0.0,
               int priority = 0) {
  auto p = make_data_packet(flow, 0, 1, seq);
  p->remaining_size = remaining;
  p->priority = priority;
  return p;
}

// Pops every packet using the protected interface via a helper.
template <typename Q>
PacketPtr pop(Q& q) {
  struct Shim : Queue {
    using Queue::do_dequeue;
  };
  return (q.*(&Shim::do_dequeue))();
}
template <typename Q>
bool push(Q& q, PacketPtr p) {
  struct Shim : Queue {
    using Queue::do_enqueue;
  };
  return (q.*(&Shim::do_enqueue))(std::move(p));
}

// --- PacketRing --------------------------------------------------------------

TEST(PacketRing, GrowsWhileWrappedAndKeepsFifoOrder) {
  PacketRing r(100);
  EXPECT_EQ(r.buffer_bytes(), 0u);  // nothing allocated up front
  for (std::uint32_t i = 0; i < 6; ++i) r.push_back(data(1, i));
  EXPECT_EQ(r.buffer_bytes(), 8 * sizeof(PacketPtr));
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(r.pop_front()->seq, i);
  // Head at slot 4: the next six pushes wrap past the end of the 8 slots,
  // and the ninth live packet forces a growth with the FIFO wrapped.
  for (std::uint32_t i = 6; i < 13; ++i) r.push_back(data(1, i));
  EXPECT_EQ(r.size(), 9u);
  EXPECT_EQ(r.buffer_bytes(), 16 * sizeof(PacketPtr));
  for (std::uint32_t i = 13; i < 20; ++i) r.push_back(data(1, i));
  for (std::uint32_t i = 4; i < 20; ++i) EXPECT_EQ(r.pop_front()->seq, i);
  EXPECT_TRUE(r.empty());
}

TEST(PacketRing, StopsGrowingAtCapacity) {
  PacketRing r(20);
  for (std::uint32_t i = 0; i < 20; ++i) {
    EXPECT_FALSE(r.full());
    r.push_back(data(1, i));
  }
  EXPECT_TRUE(r.full());
  EXPECT_EQ(r.buffer_bytes(), 20 * sizeof(PacketPtr));  // 8, 16, then capped
  // Cycling through a full ring reuses its slots.
  for (std::uint32_t i = 20; i < 60; ++i) {
    EXPECT_EQ(r.pop_front()->seq, i - 20);
    r.push_back(data(1, i));
    EXPECT_TRUE(r.full());
  }
  EXPECT_EQ(r.buffer_bytes(), 20 * sizeof(PacketPtr));
}

// --- DropTail ---------------------------------------------------------------

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(10);
  for (std::uint32_t i = 0; i < 5; ++i) push(q, data(1, i));
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto p = pop(q);
    ASSERT_TRUE(p);
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q(3);
  EXPECT_TRUE(push(q, data(1, 0)));
  EXPECT_TRUE(push(q, data(1, 1)));
  EXPECT_TRUE(push(q, data(1, 2)));
  EXPECT_FALSE(push(q, data(1, 3)));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.len_packets(), 3u);
}

TEST(DropTailQueue, TracksBytes) {
  DropTailQueue q(10);
  push(q, data(1, 0));
  push(q, data(1, 1));
  EXPECT_EQ(q.len_bytes(), 2u * (kMss + kDataHeaderBytes));
  pop(q);
  EXPECT_EQ(q.len_bytes(), static_cast<std::size_t>(kMss + kDataHeaderBytes));
}

// --- RED / ECN ---------------------------------------------------------------

TEST(RedEcnQueue, NoMarkBelowThreshold) {
  RedEcnQueue q(100, 5);
  for (std::uint32_t i = 0; i < 5; ++i) push(q, data(1, i));
  EXPECT_EQ(q.marks(), 0u);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(pop(q)->ecn_ce);
}

TEST(RedEcnQueue, MarksAtOrAboveThreshold) {
  RedEcnQueue q(100, 3);
  for (std::uint32_t i = 0; i < 6; ++i) push(q, data(1, i));
  // Packets 0..2 arrive under the threshold; 3..5 see qlen >= 3 and are
  // marked.
  int marked = 0;
  for (int i = 0; i < 6; ++i) marked += pop(q)->ecn_ce ? 1 : 0;
  EXPECT_EQ(marked, 3);
  EXPECT_EQ(q.marks(), 3u);
}

TEST(RedEcnQueue, DoesNotMarkNonEcnCapablePackets) {
  RedEcnQueue q(100, 0);  // mark everything eligible
  auto p = data(1, 0);
  p->ecn_capable = false;
  push(q, std::move(p));
  EXPECT_FALSE(pop(q)->ecn_ce);
  EXPECT_EQ(q.marks(), 0u);
}

TEST(RedEcnQueue, TailDropsAtCapacity) {
  RedEcnQueue q(2, 1);
  push(q, data(1, 0));
  push(q, data(1, 1));
  EXPECT_FALSE(push(q, data(1, 2)));
  EXPECT_EQ(q.drops(), 1u);
}

TEST(RedEcnQueue, DropsAndMarksAtExactCapacityAndThreshold) {
  // The ring grows (8, 16, 32, 50) on the way, but every decision still
  // compares against the configured capacity and threshold.
  RedEcnQueue q(50, 10);
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(push(q, data(1, i))) << i;
    EXPECT_EQ(q.marks(), i < 10 ? 0u : i - 9u) << i;
  }
  EXPECT_EQ(q.drops(), 0u);
  EXPECT_FALSE(push(q, data(1, 50)));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.buffer_bytes(), 50 * sizeof(PacketPtr));
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(pop(q)->ecn_ce, i >= 10);
  // A queue that only ever held a few packets holds the minimum ring.
  RedEcnQueue shallow(500, 65);
  for (std::uint32_t i = 0; i < 3; ++i) push(shallow, data(1, i));
  EXPECT_EQ(shallow.buffer_bytes(), 8 * sizeof(PacketPtr));
}

// --- Priority bank -----------------------------------------------------------

TEST(PriorityQueueBank, StrictPriorityAcrossClasses) {
  PriorityQueueBank q(4, 100, 50);
  push(q, data(1, 0, 0, 3));
  push(q, data(2, 0, 0, 1));
  push(q, data(3, 0, 0, 0));
  push(q, data(4, 0, 0, 2));
  EXPECT_EQ(pop(q)->flow, 3u);  // class 0 first
  EXPECT_EQ(pop(q)->flow, 2u);
  EXPECT_EQ(pop(q)->flow, 4u);
  EXPECT_EQ(pop(q)->flow, 1u);
}

TEST(PriorityQueueBank, FifoWithinClass) {
  PriorityQueueBank q(2, 100, 50);
  for (std::uint32_t i = 0; i < 4; ++i) push(q, data(1, i, 0, 1));
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(pop(q)->seq, i);
}

TEST(PriorityQueueBank, ClampsOutOfRangePriorities) {
  PriorityQueueBank q(4, 100, 50);
  push(q, data(1, 0, 0, 99));   // clamp to class 3
  push(q, data(2, 0, 0, -5));   // clamp to class 0
  EXPECT_EQ(q.class_len(3), 1u);
  EXPECT_EQ(q.class_len(0), 1u);
  EXPECT_EQ(pop(q)->flow, 2u);
}

TEST(PriorityQueueBank, SharedBufferDropsAnyClassWhenFull) {
  PriorityQueueBank q(4, 3, 50);
  push(q, data(1, 0, 0, 3));
  push(q, data(1, 1, 0, 3));
  push(q, data(1, 2, 0, 3));
  // Even a class-0 packet is tail-dropped once the shared pool is full.
  EXPECT_FALSE(push(q, data(2, 0, 0, 0)));
  EXPECT_EQ(q.drops(), 1u);
}

TEST(PriorityQueueBank, PerClassEcnMarking) {
  PriorityQueueBank q(2, 100, 2);
  // Fill class 1 to the threshold; class 0 stays empty.
  push(q, data(1, 0, 0, 1));
  push(q, data(1, 1, 0, 1));
  auto marked = data(1, 2, 0, 1);
  push(q, std::move(marked));  // class-1 length is 2 -> marked
  auto unmarked = data(2, 0, 0, 0);
  push(q, std::move(unmarked));  // class 0 empty -> not marked
  EXPECT_EQ(q.marks(), 1u);
  EXPECT_FALSE(pop(q)->ecn_ce);  // class-0 packet
}

TEST(PriorityQueueBank, CountsDequeuesPerClass) {
  PriorityQueueBank q(3, 100, 50);
  push(q, data(1, 0, 0, 0));
  push(q, data(1, 1, 0, 2));
  pop(q);
  pop(q);
  EXPECT_EQ(q.class_dequeues(0), 1u);
  EXPECT_EQ(q.class_dequeues(2), 1u);
  EXPECT_EQ(q.class_dequeues(1), 0u);
}

TEST(PriorityQueueBank, ClassesGrowIndependentlyUnderSharedCap) {
  PriorityQueueBank q(8, 500, 50);
  EXPECT_EQ(q.buffer_bytes(), 0u);
  for (std::uint32_t i = 0; i < 20; ++i) push(q, data(1, i, 0, 2));
  EXPECT_EQ(q.buffer_bytes(), 32 * sizeof(PacketPtr));  // class 2 only
  for (std::uint32_t i = 0; i < 3; ++i) push(q, data(2, i, 0, 0));
  EXPECT_EQ(q.buffer_bytes(), (32 + 8) * sizeof(PacketPtr));
  // Class 5 takes the rest of the shared pool; the pool cap, not the class
  // ring, then drops arrivals of any class.
  for (std::uint32_t i = 0; i < 477; ++i) {
    ASSERT_TRUE(push(q, data(3, i, 0, 5))) << i;
  }
  EXPECT_EQ(q.len_packets(), 500u);
  EXPECT_FALSE(push(q, data(4, 0, 0, 7)));
  EXPECT_FALSE(push(q, data(4, 1, 0, 0)));
  EXPECT_EQ(q.drops(), 2u);
  EXPECT_EQ(q.class_len(5), 477u);
  // Class 5 doubled to 256 slots, then capped at the pool size.
  EXPECT_EQ(q.buffer_bytes(), (32 + 8 + 500) * sizeof(PacketPtr));
  // FIFO within each class survives the growth.
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(pop(q)->seq, i);
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(pop(q)->seq, i);
  for (std::uint32_t i = 0; i < 477; ++i) EXPECT_EQ(pop(q)->seq, i);
}

// --- pFabric ------------------------------------------------------------------

TEST(PfabricQueue, DequeuesSmallestRemainingFirst) {
  PfabricQueue q(10);
  push(q, data(1, 0, 100e3));
  push(q, data(2, 0, 5e3));
  push(q, data(3, 0, 50e3));
  EXPECT_EQ(pop(q)->flow, 2u);
  EXPECT_EQ(pop(q)->flow, 3u);
  EXPECT_EQ(pop(q)->flow, 1u);
}

TEST(PfabricQueue, DropsWorstBufferedPacketWhenFull) {
  PfabricQueue q(2);
  push(q, data(1, 0, 100e3));
  push(q, data(2, 0, 50e3));
  // Higher priority (smaller remaining) arrival pushes out flow 1.
  EXPECT_TRUE(push(q, data(3, 0, 1e3)));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(pop(q)->flow, 3u);
  EXPECT_EQ(pop(q)->flow, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(PfabricQueue, DropsArrivingPacketIfItIsWorst) {
  PfabricQueue q(2);
  push(q, data(1, 0, 10e3));
  push(q, data(2, 0, 20e3));
  EXPECT_FALSE(push(q, data(3, 0, 90e3)));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.len_packets(), 2u);
}

TEST(PfabricQueue, SendsEarliestPacketOfWinningFlow) {
  // Starvation/reordering guard: the highest-priority packet picks the flow,
  // but that flow's earliest buffered packet goes out first.
  PfabricQueue q(10);
  push(q, data(1, 7, 50e3));
  push(q, data(1, 8, 10e3));  // newer packet, higher priority
  auto p = pop(q);
  EXPECT_EQ(p->flow, 1u);
  EXPECT_EQ(p->seq, 7u);  // earliest of flow 1, despite lower priority
}

TEST(PfabricQueue, ControlPacketsWinWithZeroRemaining) {
  PfabricQueue q(10);
  push(q, data(1, 0, 5e3));
  auto ack = make_control_packet(PacketType::kAck, 2, 0, 1);
  ack->remaining_size = 0.0;
  push(q, std::move(ack));
  EXPECT_EQ(pop(q)->flow, 2u);
}

TEST(PfabricQueue, TieBreaksByArrivalOrder) {
  PfabricQueue q(2);
  push(q, data(1, 0, 10e3));
  push(q, data(2, 0, 10e3));
  // Same priority: the later arrival is "worse" and gets dropped.
  EXPECT_FALSE(push(q, data(3, 0, 10e3)));
  EXPECT_EQ(pop(q)->flow, 1u);
}

}  // namespace
}  // namespace pase::net
