// Tests for the discrete-event engine: ordering, cancellation, timers, RNG.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace pase::sim {

// Where a pending event sits in the calendar (see sim/simulator.h).
enum class Tier { kStaged, kRun, kBucket, kRotationAhead, kInfinite };

// Reaches the limits of the order key and the slot space without
// exhausting memory, and reports where the calendar keeps an event (a
// friend of Simulator).
struct SimulatorTestPeer {
  static void set_setup_counter(Simulator& s, std::uint64_t counter) {
    s.node_keys_[0] = counter;
  }
  static void exhaust_slots(Simulator& s) {
    s.num_slots_ = Simulator::kMaxSlots;
  }
  static Tier tier_of(Simulator& s, EventId id) {
    if (s.staged_list_ != Simulator::kNil) return Tier::kStaged;
    const std::uint64_t day = s.day_of(s.slot_at(id.slot_).t);
    if (day < s.next_day_) return Tier::kRun;
    if (day == Simulator::kInfDay) return Tier::kInfinite;
    return day - s.next_day_ >= s.bucket_heads_.size() ? Tier::kRotationAhead
                                                       : Tier::kBucket;
  }
  static std::size_t buckets(const Simulator& s) {
    return s.bucket_heads_.size();
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
  const std::uint64_t run_reallocations = s.run_reallocations();
  EXPECT_GE(chunks, 3u);
  int fired = 0;
  for (int i = 0; i < 10000; ++i) {
    s.schedule(1e-6 * (i + 1), [&fired] { ++fired; });
  }
  EXPECT_EQ(s.slot_chunks_allocated(), chunks)
      << "reserve() should cover the whole burst";
  s.run();
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(s.run_reallocations(), run_reallocations);
}

// A pile-up at one instant is one day: it is detached into the run at
// once, sorted by std::sort (past the insertion-sort cutoff), and fires in
// scheduling order. Without reserve() the run grows to hold it, and the
// growth is counted.
TEST(Simulator, PileUpAtOneInstantFiresInScheduleOrder) {
  Simulator s;
  s.schedule(1e-3, [] {});  // a live calendar, so the pile-up links directly
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    s.schedule(2e-3, [&order, i] { order.push_back(i); });
  }
  const std::uint64_t before = s.run_reallocations();
  s.run();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  EXPECT_GT(s.run_reallocations(), before);
}

// next_event_time() detaches the day of the earliest pending event, a
// second ahead; a burst then scheduled before it (as a partitioned run's
// mailbox deliveries land after the barrier asked for the next event time)
// must go to the buckets, not one by one into the run ahead of that day,
// where each insertion would shift every earlier one.
TEST(Simulator, BurstBeforeADetachedDayStaysOutOfTheRun) {
  constexpr int kLater = 2000;
  constexpr int kBurst = 3000;  // with kLater, too few to outgrow the ring
  Simulator s;
  s.enable_profiling();
  int fired = 0;
  for (int i = 0; i < kLater; ++i) {
    s.schedule_at(1.0 + 1e-6 * i, [&fired] { ++fired; });
  }
  ASSERT_EQ(s.next_event_time(), 1.0);
  for (int i = 0; i < kBurst; ++i) {
    s.schedule_at(1e-6 * (i + 1), [&fired] { ++fired; });
  }
  EXPECT_EQ(s.profile_run_inserts(), 0u);
  s.run();
  EXPECT_EQ(fired, kLater + kBurst);
  EXPECT_LT(s.profile_sort_moves(), std::uint64_t{10} * (kLater + kBurst));
}

// --- Differential test: the calendar against a reference ordered set -------
//
// CalendarOracle schedules through every scheduling form, keeps each
// pending event's (t, key) in a std::set, and checks at every fire that the
// engine runs the set's first element — at its time, with its key and node
// tag — and that pending_events() matches the set's size. The keys a
// scheduling draws are predicted from the documented rule (sim/simulator.h:
// age:8 | tag:20 | counter:36, per-node counters), so the oracle also pins
// the order key.
class CalendarOracle {
 public:
  // What a firing event does: how many children it schedules (0, 1 or 2
  // with these weights) and how often it cancels a pending event and
  // reschedules it (the retransmission-timer pattern).
  struct Policy {
    double p_no_child = 0.25;
    double p_two_children = 0.25;
    double p_cancel = 1.0 / 16;
    bool allow_infinite = true;
  };

  explicit CalendarOracle(std::uint64_t seed) : rng_(seed) {
    sim_.enable_profiling();
  }

  Simulator& sim() { return sim_; }
  Policy& policy() { return policy_; }
  std::size_t pending() const { return ref_.size(); }
  std::uint64_t fired() const { return fired_; }
  std::uint64_t zero_delay_fires() const { return zero_delay_fires_; }
  const std::map<Tier, int>& cancels_by_tier() const { return cancels_; }
  bool only_infinite_pending() const {
    return !ref_.empty() && std::get<0>(*ref_.begin()) == kTimeInfinity;
  }

  // A delay drawn from a mixture spanning the calendar's regimes: the
  // current instant, the current day, the next few days, a rotation or
  // more ahead, and (when allowed) never.
  Time draw_time() {
    const double u = rng_();
    const Time now = sim_.now();
    if (u < 0.15 && sim_.current_key() >> 56 < 100) return now;
    if (u < 0.45) return now + rng_.uniform(0.0, 2e-6);
    if (u < 0.80) return now + rng_.uniform(1e-6, 50e-6);
    if (u < 0.995 || !policy_.allow_infinite) {
      return now + rng_.uniform(1e-3, 100e-3);
    }
    return kTimeInfinity;
  }

  // Schedules one event at `t` through a randomly chosen scheduling form.
  void schedule_at(Time t) {
    const int id = next_id_++;
    const auto node = static_cast<std::uint32_t>(rng_.uniform_int(0, 40));
    Info info{t, 0, sim_.current_tag(), EventId{}};
    void* const arg = reinterpret_cast<void*>(static_cast<std::uintptr_t>(id));
    int form = static_cast<int>(rng_.uniform_int(0, 6));
    // A setup root scheduled at the executing event's own instant would
    // sort before it (roots take keys below every counter).
    if (form == 6 && t == sim_.now() && sim_.current_key() != 0) form = 0;
    switch (form) {
      case 0: {
        // now + (t - now) may round off t; the engine keeps its own sum.
        const Time delay = t - sim_.now();
        info.t = sim_.now() + delay;
        info.key = draw_key(info.t);
        info.id = sim_.schedule_raw(delay, &fire, this, arg);
        break;
      }
      case 1:
        info.key = draw_key(t);
        info.id = sim_.schedule_raw_at(t, &fire, this, arg);
        break;
      case 2:
        info.key = draw_key(t);
        info.tag = node + 1;
        info.id = sim_.schedule_raw_at_node(t, node, &fire, this, arg);
        break;
      case 3:  // an inline closure
        info.key = draw_key(t);
        info.id = sim_.schedule_at(t, [this, id] { on_fire(id); });
        break;
      case 4: {  // a closure too big for the slot: a heap closure
        info.key = draw_key(t);
        const std::array<std::uint64_t, 3> pad{1, 2, 3};
        info.id = sim_.schedule_at(t, [this, id, pad] {
          EXPECT_EQ(pad[2], 3u);
          on_fire(id);
        });
        break;
      }
      case 5: {  // a key drawn up front, as a link's reserved tx-done
        const std::uint64_t key = sim_.next_key(t);
        info.key = draw_key(t);
        EXPECT_EQ(key, info.key) << "next_key broke the documented rule";
        info.tag = node + 1;
        info.id = sim_.schedule_with_key(t, key, node + 1, &fire, this, arg);
        break;
      }
      default: {  // a setup root
        const std::uint32_t k = next_root_++;
        info.key = std::uint64_t{k} + 1;
        info.tag = node + 1;
        info.id = sim_.schedule_setup_at(t, k, node, [this, id] { on_fire(id); });
        break;
      }
    }
    ASSERT_TRUE(info.id.valid());
    ref_.emplace(info.t, info.key, id);
    live_.emplace(id, info);
    live_ids_.push_back(id);
  }

  // Cancels the n-th earliest pending event (n < pending()).
  void cancel_nth(std::size_t n) {
    auto it = ref_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(n));
    cancel(std::get<2>(*it));
  }

  // Cancels the latest pending finite-time event.
  void cancel_latest_finite() {
    for (auto it = ref_.rbegin(); it != ref_.rend(); ++it) {
      if (std::get<0>(*it) != kTimeInfinity) {
        cancel(std::get<2>(*it));
        return;
      }
    }
  }

  // Cancels a uniformly random pending event.
  void cancel_random() {
    while (!live_ids_.empty()) {
      const auto i = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(live_ids_.size()) - 1));
      const int id = live_ids_[i];
      live_ids_[i] = live_ids_.back();
      live_ids_.pop_back();
      if (live_.count(id) != 0) {
        cancel(id);
        return;
      }
    }
  }

  // Cancels a random pending event and schedules a replacement: the
  // retransmission-timer pattern.
  void cancel_and_reschedule() {
    if (ref_.empty()) return;
    cancel_random();
    schedule_at(draw_time());
  }

  // The engine's view must match the reference's after every operation.
  void check() {
    ASSERT_EQ(sim_.pending_events(), ref_.size());
    const Time want =
        ref_.empty() ? kTimeInfinity : std::get<0>(*ref_.begin());
    ASSERT_EQ(sim_.next_event_time(), want);
    ASSERT_EQ(sim_.pending_events(), ref_.size());
  }

  // Fires and forgets a cancelled handle: it must stay dead.
  void check_dead_handle() {
    if (dead_.empty()) return;
    EXPECT_FALSE(sim_.cancel(dead_.back()));
  }

 private:
  struct Info {
    Time t;
    std::uint64_t key;
    std::uint32_t tag;
    EventId id;
  };

  static void fire(void* ctx, void* arg) {
    static_cast<CalendarOracle*>(ctx)->on_fire(
        static_cast<int>(reinterpret_cast<std::uintptr_t>(arg)));
  }

  // The key the engine draws for a scheduling made now for time `t`.
  std::uint64_t draw_key(Time t) {
    const std::uint32_t tag = sim_.current_tag();
    const auto [it, fresh] = counters_.try_emplace(
        tag, tag == 0 ? (std::uint64_t{1} << 32) + 1
                      : std::uint64_t{tag} << 36);
    const std::uint64_t n = it->second++;
    if (t != sim_.now()) return n;
    const std::uint64_t cur = sim_.current_key();
    const std::uint64_t age = cur == 0 ? 0 : (cur >> 56) + 1;
    return n | age << 56;
  }

  void cancel(int id) {
    const auto it = live_.find(id);
    ASSERT_NE(it, live_.end());
    const Info info = it->second;
    ++cancels_[SimulatorTestPeer::tier_of(sim_, info.id)];
    ASSERT_TRUE(sim_.cancel(info.id));
    EXPECT_FALSE(sim_.cancel(info.id));
    ref_.erase({info.t, info.key, id});
    live_.erase(it);
    dead_.push_back(info.id);
  }

  void on_fire(int id) {
    ASSERT_FALSE(ref_.empty()) << "an event fired that the reference lacks";
    const auto [t, key, want] = *ref_.begin();
    ASSERT_EQ(id, want) << "fired out of (t, key) order at t=" << sim_.now();
    const Info info = live_.at(id);
    EXPECT_EQ(sim_.now(), t);
    EXPECT_EQ(sim_.current_key(), key);
    EXPECT_EQ(sim_.current_tag(), info.tag);
    ref_.erase(ref_.begin());
    live_.erase(id);
    dead_.push_back(info.id);
    ++fired_;
    if (key >> 56 != 0) ++zero_delay_fires_;
    EXPECT_EQ(sim_.pending_events(), ref_.size());
    if (t == kTimeInfinity) return;  // past the horizon, nothing to add
    const double u = rng_();
    const int children = u < policy_.p_no_child             ? 0
                         : u < 1.0 - policy_.p_two_children ? 1
                                                            : 2;
    for (int i = 0; i < children; ++i) schedule_at(draw_time());
    if (rng_() < policy_.p_cancel) cancel_and_reschedule();
    EXPECT_EQ(sim_.pending_events(), ref_.size());
  }

  Simulator sim_;
  Rng rng_;
  Policy policy_;
  std::set<std::tuple<Time, std::uint64_t, int>> ref_;  // (t, key, id)
  std::unordered_map<int, Info> live_;
  std::vector<int> live_ids_;  // may hold fired ids; skipped when drawn
  std::vector<EventId> dead_;
  std::map<std::uint32_t, std::uint64_t> counters_;  // tag -> next counter
  std::map<Tier, int> cancels_;
  int next_id_ = 0;
  std::uint32_t next_root_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t zero_delay_fires_ = 0;
};

void run_calendar_oracle(std::uint64_t seed) {
  CalendarOracle o(seed);
  Simulator& s = o.sim();
  Rng rng(seed + 1000);

  // Staging: a batch scheduled into the empty calendar waits on the
  // staging list until the next event is needed; cancel some of it there.
  for (int i = 0; i < 300; ++i) o.schedule_at(o.draw_time());
  for (int i = 0; i < 30; ++i) o.cancel_random();
  ASSERT_NO_FATAL_FAILURE(o.check());

  // Steady state: every fire schedules about one event, 1 in 16 cancels
  // and reschedules; the driver interleaves step, run_before,
  // next_event_time, setup-context schedules and cancels that hit the
  // run's head.
  const auto steady = [&](int iterations) {
    for (int i = 0; i < iterations && !o.only_infinite_pending(); ++i) {
      const double u = rng();
      if (u < 0.70) {
        ASSERT_TRUE(s.step());
      } else if (u < 0.80) {
        s.run_before(s.next_event_time() + rng.uniform(0.0, 5e-6));
      } else if (u < 0.88) {
        o.schedule_at(o.draw_time());
      } else if (u < 0.94 && o.pending() > 3) {
        o.cancel_nth(static_cast<std::size_t>(rng.uniform_int(1, 3)));
      } else {
        o.cancel_and_reschedule();
      }
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_NO_FATAL_FAILURE(o.check());
      if (i % 97 == 0) o.check_dead_handle();
    }
  };
  steady(5000);
  if (::testing::Test::HasFatalFailure()) return;

  // reserve() for a larger population rebuilds in place, re-deriving the
  // day width from the observed fire gaps (the staged batch's was a guess
  // from its span), so later events lie a rotation or more ahead.
  const std::uint64_t before_reserve = s.calendar_rebuilds();
  s.reserve(SimulatorTestPeer::buckets(s) * 2);
  EXPECT_EQ(s.calendar_rebuilds(), before_reserve + 1);
  ASSERT_NO_FATAL_FAILURE(o.check());
  for (int i = 0; i < 10; ++i) o.schedule_at(s.now() + rng.uniform(5.0, 10.0));
  for (int i = 0; i < 5; ++i) o.cancel_latest_finite();
  ASSERT_NO_FATAL_FAILURE(o.check());
  steady(15000);
  if (::testing::Test::HasFatalFailure()) return;

  // Occupancy: a burst into the live calendar outgrows its buckets.
  const std::uint64_t before_burst = s.calendar_rebuilds();
  const std::size_t buckets_before = SimulatorTestPeer::buckets(s);
  for (int i = 0; i < 6000; ++i) o.schedule_at(o.draw_time());
  EXPECT_GT(s.calendar_rebuilds(), before_burst);
  EXPECT_GT(SimulatorTestPeer::buckets(s), buckets_before);
  ASSERT_NO_FATAL_FAILURE(o.check());
  for (int i = 0; i < 3000; ++i) ASSERT_TRUE(s.step());
  if (::testing::Test::HasFatalFailure()) return;

  // Drain to a sparse calendar: fires stop adding events, and a few events
  // seconds apart outlast the rest, so the ring outsizes the population and
  // the locator shrinks it, then jumps straight to the next pending day.
  o.policy().p_no_child = 1.0;
  o.policy().p_cancel = 0.0;
  for (int i = 1; i <= 5; ++i) o.schedule_at(s.now() + i * 1.0);
  const std::size_t big = SimulatorTestPeer::buckets(s);
  while (!o.only_infinite_pending()) {
    ASSERT_TRUE(s.step());
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(s.pending_events(), o.pending());
  }
  EXPECT_LT(SimulatorTestPeer::buckets(s), big) << "the ring never shrank";

  // Only infinite-time events left: they join the run, and finite events
  // scheduled now are inserted ahead of them.
  o.policy().allow_infinite = false;
  for (int i = 0; i < 3; ++i) o.schedule_at(kTimeInfinity);
  ASSERT_NO_FATAL_FAILURE(o.check());
  for (int i = 0; i < 50; ++i) o.schedule_at(o.draw_time());
  o.cancel_nth(o.pending() - 1);  // an infinite-time event, in the run
  ASSERT_NO_FATAL_FAILURE(o.check());
  while (o.pending() > 0) {
    ASSERT_TRUE(s.step());
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_NO_FATAL_FAILURE(o.check());
  }
  EXPECT_FALSE(s.step());

  // Every tier of the calendar was cancelled from, and the engine's own
  // counters confirm the run's insert and sort paths ran.
  for (const Tier t : {Tier::kStaged, Tier::kRun, Tier::kBucket,
                       Tier::kRotationAhead, Tier::kInfinite}) {
    EXPECT_GT(o.cancels_by_tier().count(t), 0u)
        << "no cancel hit tier " << static_cast<int>(t);
  }
  EXPECT_GT(o.zero_delay_fires(), 0u);
  EXPECT_GT(s.profile_run_inserts(), 0u);
  EXPECT_GT(s.profile_sort_moves(), 0u);
  EXPECT_GT(o.fired(), 20000u);
}

TEST(SimulatorDifferential, MatchesOrderedSetReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    run_calendar_oracle(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace pase::sim

