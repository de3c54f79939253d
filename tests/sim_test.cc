// Tests for the discrete-event engine: ordering, cancellation, timers, RNG.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace pase::sim {

// Reaches the limits of the order key and the slot space without
// exhausting memory (a friend of Simulator).
struct SimulatorTestPeer {
  static void set_setup_counter(Simulator& s, std::uint64_t counter) {
    s.node_keys_[0] = counter;
  }
  static void exhaust_slots(Simulator& s) {
    s.num_slots_ = Simulator::kMaxSlots;
  }
};

namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(3e-3, [&] { order.push_back(3); });
  s.schedule(1e-3, [&] { order.push_back(1); });
  s.schedule(2e-3, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3e-3);
}

TEST(Simulator, SameTimeEventsFireInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(1e-3, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator s;
  double seen = -1.0;
  s.schedule(5e-3, [&] { seen = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(seen, 5e-3);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator s;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) s.schedule(1e-3, chain);
  };
  s.schedule(1e-3, chain);
  s.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(s.now(), 5e-3);
}

// The launch-ordering contract. Event A (1 ms) schedules a plain event for
// 3 ms; event B (2 ms) then schedules two setup roots for 3 ms, larger k
// first, and one more root with a larger k was scheduled before the run.
// At 3 ms the roots run first, in k order, and the plain event last — the
// order they would have had if every root had been scheduled up front.
std::vector<int> setup_root_order(Simulator& s) {
  std::vector<int> order;
  s.schedule_at(1e-3, [&] {
    order.push_back(0);
    s.schedule_at(3e-3, [&] { order.push_back(6); });
  });
  s.schedule_at(2e-3, [&] {
    order.push_back(1);
    s.schedule_setup_at(3e-3, 9, 0, [&] { order.push_back(4); });
    s.schedule_setup_at(3e-3, 4, 0, [&] { order.push_back(3); });
  });
  s.schedule_setup_at(3e-3, 11, 0, [&] { order.push_back(5); });
  s.run();
  return order;
}

TEST(Simulator, SetupRootsPrecedeScheduledEventsAndSortByIndex) {
  Simulator s;
  EXPECT_EQ(setup_root_order(s), (std::vector<int>{0, 1, 3, 4, 5, 6}));
  EXPECT_EQ(s.heap_closure_events(), 0u);
}

// --- The order key ---------------------------------------------------------
// Network node n executes with tag n + 1; the key is age:8 | tag:20 |
// counter:36 (sim/simulator.h).

// A (a root at node 3) and B (scheduled earlier by node 9) both fire at
// 1 ms with age 0. A's zero-delay child C carries node 3's tag, lower than
// B's, yet runs after B because its age is 1: a child never sorts before
// an event that was already due at its parent's instant. Without the age
// field C would run before B.
TEST(SimulatorOrderKey, ZeroDelayChildRunsAfterEveryAgeZeroEventAtItsInstant) {
  Simulator s;
  std::vector<char> order;
  s.schedule_setup_at(0.5e-3, 0, 9, [&] {
    s.schedule_at(1e-3, [&] { order.push_back('B'); });
  });
  s.schedule_setup_at(1e-3, 1, 3, [&] {
    order.push_back('A');
    s.schedule(0.0, [&] { order.push_back('C'); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C'}));
}

// Three events for 3 ms, scheduled by node 6 ('1'), node 2 ('Y') and node
// 6 again ('2'), in that order. Same-instant events from one node fire in
// scheduling order, and from two nodes in tag order whatever the
// scheduling order — not in the global scheduling (FIFO) order 1, Y, 2.
TEST(SimulatorOrderKey, SameInstantEventsOrderByNodeThenSchedulingOrder) {
  Simulator s;
  std::vector<char> order;
  s.schedule_setup_at(1e-3, 0, 6, [&] {
    s.schedule_at(3e-3, [&] { order.push_back('1'); });
  });
  s.schedule_setup_at(1.5e-3, 1, 2, [&] {
    s.schedule_at(3e-3, [&] { order.push_back('Y'); });
  });
  s.schedule_setup_at(2e-3, 2, 6, [&] {
    s.schedule_at(3e-3, [&] { order.push_back('2'); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<char>{'Y', '1', '2'}));
}

// A chain of same-instant events: each schedules the next with zero delay
// while `left` lasts, so the i-th descendant has age i.
struct SameInstantChain {
  Simulator* sim;
  int left;
  int ran = 0;
};
void chain_step(void* ctx, void* /*arg*/) {
  auto* c = static_cast<SameInstantChain*>(ctx);
  ++c->ran;
  if (c->left-- > 0) c->sim->schedule_raw(0.0, &chain_step, c);
}

// Runs a chain with `descendants` same-instant events after its head;
// returns the events that ran.
int run_same_instant_chain(int descendants) {
  Simulator s;
  SameInstantChain c{&s, descendants};
  s.schedule_raw(1e-3, &chain_step, &c);
  s.run();
  return c.ran;
}

TEST(SimulatorOrderKey, ChainOf255SameInstantEventsRuns) {
  EXPECT_EQ(run_same_instant_chain(255), 256);  // the age-0 head and 255
}

TEST(SimulatorDeathTest, The256thSameInstantEventAborts) {
  EXPECT_DEATH(run_same_instant_chain(256), "order key overflow");
}

TEST(SimulatorDeathTest, CounterPastItsFieldAborts) {
  EXPECT_DEATH(
      {
        Simulator s;
        SimulatorTestPeer::set_setup_counter(s, (std::uint64_t{1} << 36) - 1);
        s.schedule(1e-3, [] {});  // the counter's last value
        s.schedule(1e-3, [] {});
      },
      "order key overflow");
}

TEST(SimulatorDeathTest, NodeTagPastItsFieldAborts) {
  Simulator s;
  s.schedule_setup_at(1e-3, 0, (1u << 20) - 2, [] {});  // tag 2^20 - 1
  EXPECT_DEATH(s.schedule_setup_at(1e-3, 1, (1u << 20) - 1, [] {}),
               "order key overflow");
}

TEST(SimulatorDeathTest, SlotSpaceExhaustionAborts) {
  EXPECT_DEATH(
      {
        Simulator s;
        SimulatorTestPeer::exhaust_slots(s);
        s.schedule(1e-3, [] {});
      },
      "slot space exhausted");
}

TEST(Simulator, RunUntilStopsAtBound) {
  Simulator s;
  int fired = 0;
  s.schedule(1e-3, [&] { ++fired; });
  s.schedule(10e-3, [&] { ++fired; });
  s.run(5e-3);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 5e-3);  // clock parked at the bound
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  int fired = 0;
  EventId id = s.schedule(1e-3, [&] { ++fired; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelInvalidIdIsNoop) {
  Simulator s;
  EXPECT_FALSE(s.cancel(EventId{}));
}

TEST(Simulator, DoubleCancelReturnsFalse) {
  Simulator s;
  EventId id = s.schedule(1e-3, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

// Regression: cancelling an id whose event already fired must be a true
// no-op. The old lazy-cancellation scheme decremented pending_events() for
// any id it had not seen before, so a fired id made the size_t counter
// underflow to ~2^64.
TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator s;
  int fired = 0;
  EventId id = s.schedule(1e-3, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_FALSE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // and again
  EXPECT_EQ(s.pending_events(), 0u);  // no underflow
  // The engine must still work normally afterwards.
  s.schedule(1e-3, [&] { ++fired; });
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.pending_events(), 0u);
}

// A stale handle must stay dead even after its slot is recycled for a new
// event: cancelling via the old handle must not kill the new event.
TEST(Simulator, StaleHandleDoesNotCancelRecycledSlot) {
  Simulator s;
  EventId old_id = s.schedule(1e-3, [] {});
  EXPECT_TRUE(s.cancel(old_id));
  int fired = 0;
  // Recycle: keep scheduling until some slot (typically the freed one) is
  // reused; the generation stamp must protect every one of them.
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(s.schedule(1e-3, [&] { ++fired; }));
  EXPECT_FALSE(s.cancel(old_id));
  EXPECT_EQ(s.pending_events(), 8u);
  s.run();
  EXPECT_EQ(fired, 8);
  for (const EventId& id : ids) EXPECT_FALSE(s.cancel(id));
  EXPECT_EQ(s.pending_events(), 0u);
}

// Cancellation must work both while an event is still in the staging list
// (scheduled, nothing executed yet) and after it has been flushed into the
// calendar buckets by an intervening run.
TEST(Simulator, CancelWorksBeforeAndAfterFlush) {
  Simulator s;
  int fired = 0;
  // Staged: cancel immediately after scheduling.
  EventId staged = s.schedule(1e-3, [&] { ++fired; });
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_TRUE(s.cancel(staged));
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_FALSE(s.cancel(staged));

  // Flushed: run an earlier event first so the target is moved out of the
  // staging list, then cancel it.
  EventId later = s.schedule(5e-3, [&] { ++fired; });
  s.schedule(1e-3, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_TRUE(s.cancel(later));
  EXPECT_EQ(s.pending_events(), 0u);
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopHaltsRun) {
  Simulator s;
  int fired = 0;
  s.schedule(1e-3, [&] {
    ++fired;
    s.stop();
  });
  s.schedule(2e-3, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator s;
  int fired = 0;
  s.schedule(1e-3, [&] { ++fired; });
  s.schedule(2e-3, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, ExecutedEventCounterCounts) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule(1e-3 * i, [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 7u);
}

TEST(Timer, FiresAfterDelay) {
  Simulator s;
  int fired = 0;
  Timer t(s, [&] { ++fired; });
  t.restart(2e-3);
  EXPECT_TRUE(t.pending());
  EXPECT_DOUBLE_EQ(t.expiry(), 2e-3);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, RestartReplacesPendingTimer) {
  Simulator s;
  std::vector<double> fire_times;
  Timer t(s, [&] { fire_times.push_back(s.now()); });
  t.restart(1e-3);
  t.restart(5e-3);  // replaces the 1 ms timer
  s.run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_DOUBLE_EQ(fire_times[0], 5e-3);
}

TEST(Timer, CancelStopsFiring) {
  Simulator s;
  int fired = 0;
  Timer t(s, [&] { ++fired; });
  t.restart(1e-3);
  t.cancel();
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CanRestartFromWithinCallback) {
  Simulator s;
  int fired = 0;
  Timer* tp = nullptr;
  Timer t(s, [&] {
    if (++fired < 3) tp->restart(1e-3);
  });
  tp = &t;
  t.restart(1e-3);
  s.run();
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(s.now(), 3e-3);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, UniformStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto x = r.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= (x == 0);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}


// --- Typed-event engine: raw events, inline/heap closure split, reserve ---

namespace rawev {
struct Ctx {
  std::vector<std::pair<void*, double>>* fired;
  Simulator* sim;
};
void record(void* ctx, void* arg) {
  auto* c = static_cast<Ctx*>(ctx);
  c->fired->push_back({arg, c->sim->now()});
}
}  // namespace rawev

TEST(SimulatorTypedEvents, ScheduleRawPassesContextAndArg) {
  Simulator s;
  std::vector<std::pair<void*, double>> fired;
  rawev::Ctx ctx{&fired, &s};
  int token_a = 0, token_b = 0;
  s.schedule_raw(2e-3, &rawev::record, &ctx, &token_b);
  s.schedule_raw(1e-3, &rawev::record, &ctx, &token_a);
  s.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].first, &token_a);
  EXPECT_EQ(fired[0].second, 1e-3);
  EXPECT_EQ(fired[1].first, &token_b);
  EXPECT_EQ(fired[1].second, 2e-3);
  EXPECT_EQ(s.heap_closure_events(), 0u);
}

TEST(SimulatorTypedEvents, RawEventsCancelLikeClosures) {
  Simulator s;
  std::vector<std::pair<void*, double>> fired;
  rawev::Ctx ctx{&fired, &s};
  const EventId id = s.schedule_raw(1e-3, &rawev::record, &ctx);
  s.schedule_raw(2e-3, &rawev::record, &ctx);
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  s.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].second, 2e-3);
}

TEST(SimulatorTypedEvents, SmallTrivialClosuresStayInline) {
  Simulator s;
  // 24 bytes of trivially copyable capture: exactly at the inline limit.
  std::uint64_t a = 1, b = 2;
  std::uint64_t* sum = new std::uint64_t(0);
  s.schedule(1e-3, [a, b, sum] { *sum = a + b; });
  EXPECT_EQ(s.heap_closure_events(), 0u);
  s.run();
  EXPECT_EQ(*sum, 3u);
  delete sum;
}

TEST(SimulatorTypedEvents, OversizedClosuresFallBackToHeap) {
  Simulator s;
  // 32 bytes of capture: one word past the 24-byte inline payload.
  std::uint64_t a = 1, b = 2, c = 3;
  std::uint64_t out = 0;
  auto* po = &out;
  s.schedule(1e-3, [a, b, c, po] { *po = a + b + c; });
  EXPECT_EQ(s.heap_closure_events(), 1u);
  s.run();
  EXPECT_EQ(out, 6u);
}

TEST(SimulatorTypedEvents, NonTrivialClosuresFallBackToHeapAndAreFreedOnCancel) {
  Simulator s;
  auto tracer = std::make_shared<int>(7);
  const EventId id = s.schedule(1e-3, [tracer] { (void)*tracer; });
  EXPECT_EQ(s.heap_closure_events(), 1u);  // shared_ptr is not trivially copyable
  EXPECT_EQ(tracer.use_count(), 2);
  EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(tracer.use_count(), 1) << "cancel must destroy the heap closure";
  s.run();
  EXPECT_EQ(tracer.use_count(), 1);
}

TEST(SimulatorTypedEvents, PendingHeapClosuresFreedByDestructor) {
  auto tracer = std::make_shared<int>(7);
  {
    Simulator s;
    s.schedule(1.0, [tracer] { (void)*tracer; });
    EXPECT_EQ(tracer.use_count(), 2);
  }
  EXPECT_EQ(tracer.use_count(), 1);
}

TEST(SimulatorTypedEvents, ReservePreallocatesSlotChunks) {
  Simulator s;
  s.reserve(10000);
  const std::size_t chunks = s.slot_chunks_allocated();
  EXPECT_GE(chunks, 3u);
  int fired = 0;
  for (int i = 0; i < 10000; ++i) {
    s.schedule(1e-6 * (i + 1), [&fired] { ++fired; });
  }
  EXPECT_EQ(s.slot_chunks_allocated(), chunks)
      << "reserve() should cover the whole burst";
  s.run();
  EXPECT_EQ(fired, 10000);
}

}  // namespace
}  // namespace pase::sim

