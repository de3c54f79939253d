// Discrete-event simulation engine.
//
// The engine is a monotonic clock plus a two-tier calendar queue (Brown
// 1988, the structure behind ns-2's scheduler, with the Ladder Queue's
// sorted bottom: Tang, Goh & Thng, ACM TOMACS 2005). Time is cut into "days"
// of width `width_` seconds, and the locator's position `next_day_` splits
// the pending events in two:
//   - every event of an earlier day lives in the *run*, one contiguous array
//     sorted by (t, key), latest first, so a pop takes its last entry;
//   - every later event sits on its day's bucket, a singly-linked list in a
//     power-of-two ring (day mod num_buckets), pushed at the head.
// When the run empties, the locator walks the ring from `next_day_` to the
// first non-empty day, detaches that day's events into the run and sorts
// them once (insertion sort for a handful, std::sort past a small cutoff,
// so a pile-up at one instant cannot go quadratic). An event scheduled into
// the run's day is inserted at its sorted place; one scheduled before it
// (the locator detached ahead of the clock, as next_event_time() does)
// hands the run back to its bucket and restarts the locator. Cancel
// binary-searches the run or walks the event's short bucket. Events past
// the last representable day (t = infinity) wait on a side list that joins
// the run only once no finite event is left.
//
// Event order. Every event carries one fixed 64-bit order key, computed the
// same way in sequential and partitioned runs, and events fire in (time,
// key) order. The key follows the age-based tie-breaking of Ronngren &
// Liljenstam (PADS 1999) and packs age:8 | tag:20 | counter:36:
//   - tag and counter: the node the *scheduling* event executes at (network
//     node n has tag n + 1; tag 0 is the setup context) and that node's own
//     count of schedulings;
//   - age: the executing event's age + 1 for an event scheduled at the
//     executing event's own instant, otherwise 0 (and 0 outside any event).
// A child therefore always sorts after its parent, so the keys a simulator
// executes rise, and a node's counter advances in the same order however
// the nodes are partitioned into domains. Setup roots (schedule_setup_at)
// take the key k + 1 with k < 2^32, below every counter, so they precede
// every other event at their instant, in k order. Each event also records
// the node it executes at: the scheduling event's, unless the scheduling
// call names one (schedule_raw_at_node, schedule_setup_at).
//
// Events are typed, fixed-size payloads, not std::functions. A slot holds a
// raw invoker `void(*)(void* ctx, void* arg)` plus a 24-byte payload that is
// one of three things, discriminated by a kind tag:
//   - kRaw: {ctx, arg} passed straight to the invoker — the packet hot path
//     (link hops, timer fires) schedules this form, writing one cache line
//     with zero allocations and zero virtual/std::function indirections;
//   - kInlineClosure: a lambda placement-constructed into the payload, chosen
//     at compile time when it is trivially copyable, at most 24 bytes and at
//     most 8-aligned (the trampoline is a template instantiated per lambda
//     type, so the call is a direct function-pointer call);
//   - kHeapClosure: {object pointer, destroy fn} for closures too big or
//     non-trivial to inline (owning captures, std::function) — the only form
//     that allocates, counted in heap_closure_events() so tests can pin the
//     steady state to zero.
//
// Each pending event owns one 64-byte slot (invoker, payload, time, order
// key, generation, bucket link), so scheduling into a later day writes only
// the slot plus a 4-byte bucket head, and no allocation happens outside
// slot-table or run growth. Run entries carry (t, key) and the slot's
// address, so popping and the two-deep prefetch pipeline read no slot but
// the one they need. Slots live in stable chunked storage and are recycled
// through a free list; a per-slot generation stamp makes cancelling an
// already-fired, already-cancelled, or reused id a true no-op that returns
// false. Cancellation physically removes the event, so the queue never
// carries stale entries.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/dcheck.h"

namespace pase::sim {

using Time = double;  // seconds

inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::infinity();

// The typed-event invoker signature. `ctx` is the scheduling site's context
// (an object pointer, or the inline payload buffer); `arg` is the optional
// second word (e.g. a released Packet*), null for closures.
using RawFn = void (*)(void* ctx, void* arg);

// Handle for a scheduled event; used to cancel it. Default-constructed
// handles are inert. A handle is invalidated (cancel() returns false) once
// its event fires or is cancelled, even if the underlying slot is reused.
class EventId {
 public:
  EventId() = default;
  bool valid() const { return gen_ != 0; }

 private:
  friend class Simulator;
  friend struct SimulatorTestPeer;
  EventId(std::uint32_t slot, std::uint32_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;  // 0 = inert handle; slot generations start at 1
};

class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  Time now() const { return now_; }

  // Schedules a raw typed event: `fn(ctx, arg)` fires `delay` seconds from
  // now, at the node the executing event runs at. The zero-overhead form for
  // hot-path call sites that already have a stable object to point at
  // (links, timers, queues).
  EventId schedule_raw(Time delay, RawFn fn, void* ctx, void* arg = nullptr) {
    return schedule_raw_at(now_ + delay, fn, ctx, arg);
  }
  EventId schedule_raw_at(Time t, RawFn fn, void* ctx, void* arg = nullptr) {
    return schedule_keyed(t, next_key(t), cur_tag_, fn, ctx, arg);
  }
  // The same, for an event that executes at network node `node` (a link
  // delivery executes at the link's destination).
  EventId schedule_raw_at_node(Time t, std::uint32_t node, RawFn fn,
                               void* ctx, void* arg = nullptr) {
    return schedule_keyed(t, next_key(t), tag_of(node), fn, ctx, arg);
  }

  // Schedules any callable to run `delay` seconds from now (>= 0). Small
  // trivially-copyable closures are stored inline in the event slot (no
  // allocation); larger or non-trivial ones fall back to the heap.
  template <typename Fn>
  EventId schedule(Time delay, Fn&& fn) {
    PASE_DCHECK(delay >= 0.0 && "cannot schedule in the past");
    return schedule_at(now_ + delay, std::forward<Fn>(fn));
  }

  // Schedules any callable at absolute time `t` (>= now()).
  template <typename Fn>
  EventId schedule_at(Time t, Fn&& fn) {
    PASE_DCHECK(t >= now_ && "cannot schedule in the past");
    Slot& s = acquire_slot();
    emplace_closure(s, std::forward<Fn>(fn));
    return commit_slot(s, t, next_key(t), cur_tag_);
  }

  // Schedules a setup root at absolute time `t` (>= now()), executing at
  // network node `node`. Its key is k + 1 (k < 2^32), so at its instant it
  // fires before every event that an executing event scheduled, and among
  // setup roots in `k` order: the order of events scheduled before the run
  // starts (control-plane timers, then flow launches), kept whether the
  // root is scheduled during setup, from inside an event or between runs.
  // k must be unique across all domains of a run.
  template <typename Fn>
  EventId schedule_setup_at(Time t, std::uint32_t k, std::uint32_t node,
                            Fn&& fn) {
    PASE_DCHECK(t >= now_ && "cannot schedule in the past");
    // Scheduled inside an event at its own instant (a launch chain
    // re-arming), the root sorts after that event only by its larger k.
    PASE_DCHECK((t != now_ || std::uint64_t{k} + 1 > cur_key_) &&
                "setup root sorts before the executing event");
    const std::uint32_t tag = tag_of(node);
    Slot& s = acquire_slot();
    emplace_closure(s, std::forward<Fn>(fn));
    return commit_slot(s, t, std::uint64_t{k} + 1, tag);
  }

  // Cancels a pending event. Returns true iff the event was still pending;
  // cancelling a fired, cancelled, or default-constructed id returns false
  // and has no effect on engine state.
  bool cancel(EventId id);

  // Pre-sizes internal structures for a workload of roughly `n` concurrently
  // pending events: calendar buckets, free-list and run capacity, and
  // enough slot chunks that the first `n` concurrent events never allocate.
  void reserve(std::size_t n);

  // Runs events until the queue drains or the clock passes `until`. Like
  // run_before() and step(), it returns in the setup context, so a
  // scheduling made between runs is a setup-context one in every mode.
  void run(Time until = kTimeInfinity);

  // Runs exactly one event if available; returns false when the queue is
  // empty or the next event is past `until`.
  bool step(Time until = kTimeInfinity);

  // Makes run() return after the current event completes.
  void stop() { stopped_ = true; }

  // --- Conservative-parallel execution support ----------------------------
  //
  // A parallel run partitions the network into domains, one Simulator each,
  // and executes them in barrier-synchronized windows (see sim/parallel.h).
  // Cross-domain posts and completion reports carry order keys.

  // The executing event's order key and the tag of the node it executes at
  // (both 0 in the setup context).
  std::uint64_t current_key() const { return cur_key_; }
  std::uint32_t current_tag() const { return cur_tag_; }
  // Draws the key of an event the executing event schedules for time `t`:
  // one step of its node's counter. Every scheduling call draws one; a
  // partitioned run's cross-domain post draws it in the source domain,
  // exactly as a local delivery would.
  std::uint64_t next_key(Time t) {
    const std::uint64_t n = (*counter_)++;
    if (n >= counter_limit_) [[unlikely]] key_overflow();
    if (t != now_) [[likely]] return n;
    if (child_age_ > kMaxAge) [[unlikely]] key_overflow();
    return n | (std::uint64_t{child_age_} << kAgeShift);
  }
  // The tag of network node `node` (node + 1; aborts if it needs more than
  // 20 bits).
  static std::uint32_t tag_of(std::uint32_t node) {
    if (node >= kTagLimit - 1) [[unlikely]] key_overflow();
    return node + 1;
  }
  // Schedules an event whose key was drawn earlier (next_key), executing at
  // the node with tag `tag`: a cross-domain delivery, keyed in its source
  // domain, or a link's tx-done, keyed when its serialization began. The
  // caller keeps the child-after-parent rule: (t, key) must sort after the
  // executing event.
  EventId schedule_with_key(Time t, std::uint64_t key, std::uint32_t tag,
                            RawFn fn, void* ctx, void* arg = nullptr) {
    PASE_DCHECK(tag < kTagLimit);
    return schedule_keyed(t, key, tag, fn, ctx, arg);
  }

  // Time of the earliest pending event (kTimeInfinity when none): the
  // per-domain input to the safe-horizon computation.
  Time next_event_time();
  // Runs events strictly before `bound` (exclusive, unlike run()): a
  // conservative window [now, bound) may not execute events at the horizon
  // itself, since a cross-domain delivery can still arrive exactly there.
  // Does not advance the clock to `bound`.
  void run_before(Time bound);

  std::size_t pending_events() const {
    return calendar_count_ + staged_count_;
  }
  std::uint64_t executed_events() const { return executed_; }

  // Allocation telemetry for the zero-alloc steady-state tests: cumulative
  // heap-fallback closures scheduled, calendar rebuilds performed, times the
  // run's storage was reallocated (reserve() included), and slot chunks
  // allocated. A warmed steady state must hold all four constant.
  std::uint64_t heap_closure_events() const { return heap_closure_events_; }
  std::uint64_t calendar_rebuilds() const { return calendar_rebuilds_; }
  std::uint64_t run_reallocations() const { return run_reallocations_; }
  std::size_t slot_chunks_allocated() const { return slot_chunks_.size(); }
  // Bytes of event-slot storage allocated (chunks are never freed mid-run,
  // so this is also the high-water mark).
  std::size_t slot_bytes() const {
    return slot_chunks_.size() * kSlotChunkSize * sizeof(Slot);
  }

  // Registers a prefetch helper for a raw-event function. While an event
  // executes, the engine prefetches the payload pointers of the next two
  // pending events; when the *next* event's fn has a registered hint, the
  // hint is also invoked with that event's payload — its objects were
  // prefetched one event earlier, so the hint can cheaply chase one pointer
  // deeper (e.g. a link delivery prefetching the destination node). Hints
  // must be pure prefetch: no state changes, no scheduling, no reliance on
  // being called at all. Re-registering the same fn overwrites its hint.
  using PrefetchHint = void (*)(void* ctx, void* arg);
  void set_prefetch_hint(RawFn fn, PrefetchHint hint) {
    for (std::uint32_t i = 0; i < num_hints_; ++i) {
      if (hints_[i].fn == fn) {
        hints_[i].hint = hint;
        return;
      }
    }
    PASE_DCHECK(num_hints_ < kMaxPrefetchHints && "too many prefetch hints");
    if (num_hints_ < kMaxPrefetchHints) {
      hints_[num_hints_++] = HintEntry{fn, hint};
    }
  }

  // Registers how to free the `arg` word of a raw event that never fires:
  // ~Simulator passes every still-pending `fn` event's arg to it, and a
  // parallel engine does the same for mailbox records addressed to this
  // domain. Registered alongside prefetch hints and profile labels. The
  // disposer may run after `ctx` has been destroyed, so it may only release
  // what `arg` owns. Re-registering the same fn overwrites its disposer.
  using ArgDisposer = void (*)(void* arg);
  void set_arg_disposer(RawFn fn, ArgDisposer dispose) {
    for (std::uint32_t i = 0; i < num_disposers_; ++i) {
      if (disposers_[i].fn == fn) {
        disposers_[i].dispose = dispose;
        return;
      }
    }
    PASE_CHECK(num_disposers_ < kMaxDisposers && "too many arg disposers");
    disposers_[num_disposers_++] = DisposerEntry{fn, dispose};
  }
  // Frees `arg` with fn's registered disposer; a no-op for other fns.
  void dispose_arg(RawFn fn, void* arg) const {
    for (std::uint32_t i = 0; i < num_disposers_; ++i) {
      if (disposers_[i].fn == fn) disposers_[i].dispose(arg);
    }
  }

  // --- Engine self-profiler -----------------------------------------------
  //
  // Off by default: the per-dispatch cost is one predictable not-taken
  // branch. When enabled (the harness's --profile flag), every dispatch is
  // tallied by payload kind and by registered raw-fn label, the locator
  // records how many days it detached and how much each cost, and the
  // pending-event high-water mark is tracked — the inputs to the "where do
  // the events go and how long are the bucket chains" analysis that
  // previously required a hand-run profiler.
  void enable_profiling() { profiling_ = true; }

  // Human-readable label for a raw event function (e.g. "link.deliver").
  // Registered alongside prefetch hints; re-registering is idempotent.
  void set_profile_label(RawFn fn, const char* label) {
    for (std::uint32_t i = 0; i < num_profiled_fns_; ++i) {
      if (profiled_fns_[i].fn == fn) return;
    }
    if (num_profiled_fns_ < kMaxProfiledFns) {
      profiled_fns_[num_profiled_fns_++] = ProfiledFn{fn, label, 0};
    }
  }

  std::uint64_t profile_raw_dispatches() const { return profile_raw_; }
  std::uint64_t profile_inline_dispatches() const { return profile_inline_; }
  std::uint64_t profile_heap_dispatches() const { return profile_heap_; }
  // Raw dispatches whose fn carries no registered label.
  std::uint64_t profile_unlabeled_dispatches() const { return profile_other_; }
  // Calendar-queue behavior: days the locator detached into the run, total
  // and maximum bucket entries visited per detach, events inserted into a
  // run that already covered their day, entries shifted to keep the run
  // sorted (by the insertion sort of each detached day, or std::sort's
  // comparisons for a day past its cutoff, and by each insertion), and the
  // pending-set high-water mark (bucket occupancy pressure).
  std::uint64_t profile_top_walks() const { return profile_walks_; }
  std::uint64_t profile_scan_sum() const { return profile_scan_sum_; }
  std::uint64_t profile_scan_max() const { return profile_scan_max_; }
  std::uint64_t profile_run_inserts() const { return profile_run_inserts_; }
  std::uint64_t profile_sort_moves() const { return profile_sort_moves_; }
  std::uint64_t profile_peak_pending() const { return profile_peak_pending_; }
  // Labeled raw-fn dispatch counts, in registration order.
  std::vector<std::pair<const char*, std::uint64_t>> profiled_fn_counts()
      const {
    std::vector<std::pair<const char*, std::uint64_t>> out;
    out.reserve(num_profiled_fns_);
    for (std::uint32_t i = 0; i < num_profiled_fns_; ++i) {
      out.emplace_back(profiled_fns_[i].label, profiled_fns_[i].count);
    }
    return out;
  }

 private:
  // Lets the engine's death tests reach the order-key and slot-space limits
  // without exhausting memory.
  friend struct SimulatorTestPeer;

  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  static std::size_t next_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  static constexpr std::size_t kMinBuckets = 64;
  static constexpr std::size_t kInlinePayloadSize = 24;
  // Order-key layout (see the file comment): age:8 | tag:20 | counter:36.
  static constexpr unsigned kCounterBits = 36;
  static constexpr unsigned kAgeShift = 56;
  static constexpr std::uint32_t kMaxAge = 255;
  static constexpr std::uint32_t kTagLimit = 1u << 20;
  // Keys up to 2^32 belong to setup roots (k + 1); the setup context's own
  // counter starts just above them.
  static constexpr std::uint64_t kFirstSetupCounter =
      (std::uint64_t{1} << 32) + 1;
  // Slot indices stay below the list sentinel.
  static constexpr std::uint32_t kMaxSlots = kNil;

  enum class Kind : std::uint8_t {
    kRaw = 0,         // payload = RawPayload{ctx, arg}; nothing owned
    kInlineClosure,   // payload = the closure object (trivially copyable)
    kHeapClosure,     // payload = HeapPayload{object, destroy}
  };

  struct RawPayload {
    void* ctx;
    void* arg;
  };
  struct HeapPayload {
    void* obj;
    void (*destroy)(void*);
  };

  template <typename F>
  static constexpr bool kInlineEligible =
      sizeof(F) <= kInlinePayloadSize && alignof(F) <= 8 &&
      std::is_trivially_copyable_v<F>;

  template <typename F>
  static void invoke_inline_closure(void* ctx, void* /*arg*/) {
    (*std::launder(reinterpret_cast<F*>(ctx)))();
  }
  template <typename F>
  static void invoke_heap_closure(void* ctx, void* /*arg*/) {
    std::unique_ptr<F> obj(static_cast<F*>(ctx));  // freed even on throw
    (*obj)();
  }
  template <typename F>
  static void destroy_heap_closure(void* obj) {
    delete static_cast<F*>(obj);
  }

  // Aborts on an order key that does not fit its fields: age >= 2^8,
  // counter >= 2^36 or node tag >= 2^20. Kept out of line and cold so the
  // checks cost one compare on the scheduling path.
  [[noreturn, gnu::cold, gnu::noinline]] static void key_overflow();

  // Cache-line sized and aligned: scheduling or firing an event touches
  // exactly one line of the slot arena.
  struct alignas(64) Slot {
    RawFn fn = nullptr;
    alignas(8) unsigned char payload[kInlinePayloadSize];
    std::uint64_t key = 0;   // order key; breaks time ties. 0: not pending
    Time t = 0.0;            // event time; locates the calendar day
    std::uint32_t gen = 1;   // bumped on fire/cancel to kill old handles
    std::uint32_t next = kNil;  // intrusive bucket/staging-list link
    std::uint32_t index = 0;    // the slot's own index, for the free list
    Kind kind = Kind::kRaw;
    std::uint32_t tag : 24 = 0;  // the node the event executes at
  };
  static_assert(sizeof(Slot) == 64);

  // Stable chunked slot storage: growth never moves a live slot (vector
  // reallocation would), so slot references stay valid while a callback
  // schedules new events, and inline payloads never relocate. A chunk is
  // constructed (so touched) whole; 64 KiB keeps that floor small for the
  // per-domain simulators of a parallel run.
  static constexpr std::size_t kSlotChunkShift = 10;
  static constexpr std::size_t kSlotChunkSize = 1ull << kSlotChunkShift;

  Slot& slot_at(std::uint32_t i) {
    return slot_chunks_[i >> kSlotChunkShift][i & (kSlotChunkSize - 1)];
  }

  // Never lands on the inert generation 0.
  static void bump_gen(Slot& s) {
    if (++s.gen == 0) s.gen = 1;
  }

  void retire_slot(Slot& s) {
    s.key = 0;
    bump_gen(s);
    free_slots_.push_back(s.index);
  }

  // Frees whatever the payload owns (heap closures only) and downgrades the
  // slot to kRaw so a later destroy is a no-op. Used by cancel and teardown;
  // step() instead transfers ownership to the invoke.
  void destroy_payload(Slot& s) {
    if (s.kind == Kind::kHeapClosure) {
      HeapPayload hp;
      std::memcpy(&hp, s.payload, sizeof(hp));
      hp.destroy(hp.obj);
    }
    s.kind = Kind::kRaw;
  }

  // Absolute day number of time `t`, or kInfDay when t is infinite (or so
  // large the day number would overflow). day_of is monotone in t, so
  // overflow events sort after everything the calendar can hold; they live
  // in a side list consumed only once all finite events have fired. The
  // conversion goes through int64_t, a single instruction (an unsigned one
  // is a branchy sequence on x86-64).
  static constexpr std::uint64_t kInfDay = ~std::uint64_t{0} - 1;
  // Locator position once the side list has joined the run: every day,
  // kInfDay included, lies before it.
  static constexpr std::uint64_t kAllDays = ~std::uint64_t{0};
  std::uint64_t day_of(Time t) const {
    const double d = t * inv_width_;
    return d < 9.2e18
               ? static_cast<std::uint64_t>(static_cast<std::int64_t>(d))
               : kInfDay;
  }

  // Removes a pending (not staged) event from the run or its bucket.
  void unlink(Slot& s);
  // Picks a day width for `n` pending events: a few observed inter-fire
  // gaps when enough events have run (robust against a few far-future
  // outliers stretching the pending span), otherwise the span-based
  // estimate.
  double preferred_width(Time lo, Time hi, std::size_t n) const;
  void set_width(double w) {
    if (std::isfinite(w) && w > 0.0) {
      width_ = w;
      inv_width_ = 1.0 / w;
    }
  }
  // Distributes the staging list into the calendar (see commit_slot).
  void flush_staged();
  // Ensures the run is non-empty (its last entry is the earliest pending
  // event). Returns false if nothing is pending.
  bool refill_run();
  // Detaches day `day`'s events from its bucket into the (empty) run and
  // returns how many bucket entries it visited.
  std::size_t detach_day(std::uint64_t day);
  // Orders a freshly detached run (see RunEntry).
  void sort_run();
  // Places an event of day `day` < next_day_: at its sorted place in the
  // run, or, when it precedes the run's day, back in the buckets with the
  // run (see the definition).
  void run_insert(Slot& s, std::uint64_t day);
  void rebuild(std::size_t new_num_buckets);

  // The run: pending events of every day before next_day_, in descending
  // (t, key) order, so a pop takes the last entry and a day detached from
  // its newest-first bucket needs few moves. Each entry carries the
  // slot's address, so popping and prefetching skip the chunk table, and
  // the time as its bit pattern: for t >= +0.0 (and t = -0.0, normalized
  // to +0.0) it orders like t, so (when, key) compares as one 128-bit
  // integer, without a branch.
  struct RunEntry {
    std::uint64_t when;
    std::uint64_t key;
    Slot* slot;
  };
  static RunEntry entry_of(Slot& s) {
    return RunEntry{std::bit_cast<std::uint64_t>(s.t + 0.0), s.key, &s};
  }
  static Time time_of(const RunEntry& e) { return std::bit_cast<Time>(e.when); }
  __extension__ using Order = unsigned __int128;
  static Order order_of(const RunEntry& e) {
    return (Order{e.when} << 64) | e.key;
  }
  // The run's sort order: `a` fires after `b`.
  static bool entry_after(const RunEntry& a, const RunEntry& b) {
    return order_of(a) > order_of(b);
  }
  // Appends to the run, counting a reallocation when it is full.
  void run_push(const RunEntry& e) {
    if (run_.size() == run_.capacity()) ++run_reallocations_;
    run_.push_back(e);
  }
  std::vector<RunEntry> run_;
  std::uint64_t next_day_ = 0;  // locator position (see the file comment)

  std::vector<std::uint32_t> bucket_heads_;  // kNil-terminated lists
  std::size_t bucket_mask_ = 0;
  double width_ = 1e-6;
  double inv_width_ = 1e6;
  // Events in the run, the buckets and the side list (not staged ones).
  std::size_t calendar_count_ = 0;

  std::uint32_t inf_list_ = kNil;  // events past the calendar horizon
  std::size_t inf_count_ = 0;

  // Staging list: newly scheduled events accumulate here (O(1) prepend, no
  // bucket traffic) and are distributed in a batch when the next event is
  // needed. Events are staged only while the calendar is empty, so a
  // non-empty staging list means every other pending event is staged too.
  // The batch's span and size are tracked incrementally so the
  // distribution pass can size the calendar and width up front.
  std::uint32_t staged_list_ = kNil;
  std::size_t staged_count_ = 0;   // live (uncancelled) staged events
  std::size_t staged_finite_ = 0;  // ... of those, finite-time ones
  Time staged_lo_ = kTimeInfinity;
  Time staged_hi_ = -kTimeInfinity;

  // Prefetch-hint registry (see set_prefetch_hint). Two or three distinct
  // raw fns in practice (link tx-done / delivery), so a linear scan over a
  // tiny array beats any map.
  static constexpr std::uint32_t kMaxPrefetchHints = 4;
  struct HintEntry {
    RawFn fn;
    PrefetchHint hint;
  };
  HintEntry hints_[kMaxPrefetchHints] = {};
  std::uint32_t num_hints_ = 0;

  // Profiler registry and tallies (cold; only touched when profiling_).
  // profile_count stays out of line so the step() hot loop carries nothing
  // but the flag test.
  void profile_count(RawFn fn, Kind kind);
  static constexpr std::uint32_t kMaxProfiledFns = 8;
  struct ProfiledFn {
    RawFn fn;
    const char* label;
    std::uint64_t count;
  };
  ProfiledFn profiled_fns_[kMaxProfiledFns] = {};
  std::uint32_t num_profiled_fns_ = 0;
  std::uint64_t profile_raw_ = 0;
  std::uint64_t profile_inline_ = 0;
  std::uint64_t profile_heap_ = 0;
  std::uint64_t profile_other_ = 0;
  std::uint64_t profile_walks_ = 0;
  std::uint64_t profile_scan_sum_ = 0;
  std::uint64_t profile_scan_max_ = 0;
  std::uint64_t profile_run_inserts_ = 0;
  std::uint64_t profile_sort_moves_ = 0;
  std::uint64_t profile_peak_pending_ = 0;
  bool profiling_ = false;

  // --- Hot-path scheduling, defined in-class so call sites (links, timers,
  // hosts) compile the whole schedule to straight-line code. The cold
  // restructuring operations (rebuild, flush_staged, refill_run) stay in
  // simulator.cc.
  Slot& acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot_at(slot);
    }
    const std::uint32_t slot = num_slots_++;
    PASE_CHECK(slot < kMaxSlots && "pending-event slot space exhausted");
    if ((slot >> kSlotChunkShift) >= slot_chunks_.size()) {
      slot_chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
    }
    Slot& s = slot_at(slot);
    s.index = slot;
    return s;
  }

  // Places a closure in the slot's payload (see the file comment).
  template <typename Fn>
  void emplace_closure(Slot& s, Fn&& fn) {
    using F = std::decay_t<Fn>;
    static_assert(std::is_invocable_v<F&>, "event callbacks take no args");
    if constexpr (kInlineEligible<F>) {
      ::new (static_cast<void*>(s.payload)) F(std::forward<Fn>(fn));
      s.fn = &invoke_inline_closure<F>;
      s.kind = Kind::kInlineClosure;
    } else {
      HeapPayload hp{new F(std::forward<Fn>(fn)), &destroy_heap_closure<F>};
      std::memcpy(s.payload, &hp, sizeof(hp));
      s.fn = &invoke_heap_closure<F>;
      s.kind = Kind::kHeapClosure;
      ++heap_closure_events_;
    }
  }

  EventId schedule_keyed(Time t, std::uint64_t key, std::uint32_t tag,
                         RawFn fn, void* ctx, void* arg) {
    PASE_DCHECK(t >= now_ && "cannot schedule in the past");
    PASE_DCHECK(fn != nullptr);
    Slot& s = acquire_slot();
    s.fn = fn;
    const RawPayload rp{ctx, arg};
    std::memcpy(s.payload, &rp, sizeof(rp));
    s.kind = Kind::kRaw;
    return commit_slot(s, t, key, tag);
  }

  EventId commit_slot(Slot& s, Time t, std::uint64_t key, std::uint32_t tag) {
    s.key = key;
    s.t = t;
    s.tag = tag;
    // Steady state: link straight into the calendar — a later day costs the
    // slot line just written plus one bucket head.
    if (staged_list_ == kNil && calendar_count_ > 0) {
      link(s);
      maybe_grow();
      return EventId{s.index, s.gen};
    }
    // Empty calendar (or a staged batch already accumulating): stage instead,
    // so the whole burst is distributed — and the calendar sized and its
    // day width derived for it in one pass — when the next event is
    // actually needed (see flush_staged).
    s.next = staged_list_;
    staged_list_ = s.index;
    ++staged_count_;
    if (std::isfinite(t)) {
      ++staged_finite_;
      staged_lo_ = std::min(staged_lo_, t);
      staged_hi_ = std::max(staged_hi_, t);
    }
    return EventId{s.index, s.gen};
  }

  void link(Slot& s) {
    const std::uint64_t day = day_of(s.t);
    ++calendar_count_;
    if (day < next_day_) [[unlikely]] {
      run_insert(s, day);
      return;
    }
    push_bucket(s, day);
  }

  void push_bucket(Slot& s, std::uint64_t day) {
    std::uint32_t* head = &bucket_heads_[day & bucket_mask_];
    if (day == kInfDay) [[unlikely]] {
      head = &inf_list_;
      ++inf_count_;
    }
    s.next = *head;
    *head = s.index;
  }

  void maybe_grow() {
    // Jump past the trigger point (2x occupancy) so refill-heavy workloads see
    // O(log n) rebuilds totalling O(n) relinks, not O(n log n).
    const std::size_t finite = calendar_count_ - inf_count_;
    if (finite > bucket_heads_.size() * 2) rebuild(next_pow2(finite * 2));
  }

  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  std::uint32_t num_slots_ = 0;
  std::vector<std::uint32_t> free_slots_;

  // Makes the dispatched event (key `key`, executing at `tag`) the context
  // every scheduling call draws keys from.
  void enter_event(std::uint64_t key, std::uint32_t tag) {
    if (tag >= node_keys_.size()) [[unlikely]] grow_node_keys(tag);
    cur_key_ = key;
    cur_tag_ = tag;
    counter_ = &node_keys_[tag];
    counter_limit_ = std::uint64_t{tag + 1} << kCounterBits;
    child_age_ = static_cast<std::uint32_t>(key >> kAgeShift) + 1;
  }
  void enter_setup_context();
  void grow_node_keys(std::uint32_t tag);
  // Runs the next event if it is due by `until` (step() without returning
  // to the setup context).
  bool dispatch(Time until);

  // Order-key state. node_keys_[tag] is that node's next key without its
  // age (tag << 36 | counter); it grows to the largest tag this simulator
  // executes, so the domains of a partitioned run share no table.
  std::vector<std::uint64_t> node_keys_;
  std::uint64_t* counter_ = nullptr;  // &node_keys_[cur_tag_]
  std::uint64_t counter_limit_ = 0;   // (cur_tag_ + 1) << 36
  std::uint64_t cur_key_ = 0;         // executing event's key
  std::uint32_t cur_tag_ = 0;         // node it executes at
  std::uint32_t child_age_ = 0;       // age of its same-instant children

  Time now_ = 0.0;
  std::uint64_t executed_ = 0;
  std::uint64_t last_rebuild_exec_ = 0;  // rebuild cooldown (see refill_run)
  std::uint64_t heap_closure_events_ = 0;
  std::uint64_t calendar_rebuilds_ = 0;
  std::uint64_t run_reallocations_ = 0;
  // Smoothed gap between consecutive fires, folded in once per detached
  // day from the first event of the previous detached day (gap_mark_*).
  double fire_gap_ewma_ = 0.0;
  Time gap_mark_t_ = 0.0;
  std::uint64_t gap_mark_exec_ = 0;
  bool stopped_ = false;

  // Arg-disposer registry (see set_arg_disposer). Read only at teardown, so
  // it trails every field the event loop touches.
  static constexpr std::uint32_t kMaxDisposers = 4;
  struct DisposerEntry {
    RawFn fn;
    ArgDisposer dispose;
  };
  DisposerEntry disposers_[kMaxDisposers] = {};
  std::uint32_t num_disposers_ = 0;
};

}  // namespace pase::sim
