// Discrete-event simulation engine.
//
// The engine is a monotonic clock plus a calendar queue (Brown 1988, the
// structure behind ns-2's scheduler): a power-of-two ring of "day" buckets of
// width `width_` seconds, where an event at time t belongs to bucket
// floor(t / width_) mod num_buckets. The next event overall is found by
// walking buckets from the current calendar day — O(1) amortized instead of
// the O(log n) pointer-chasing sift of a binary heap. Events scheduled for
// the same instant fire in scheduling order (FIFO, via a monotonic sequence
// number), which keeps packet pipelines deterministic. Setup roots
// (schedule_setup_at) are the one exception: they precede every other event
// at their instant, in the order of their caller-given index.
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
// Buckets are intrusive doubly-linked lists threaded through the slot table:
// each pending event owns one slot (invoker, payload, time, sequence,
// generation, prev/next links), so scheduling writes only the slot plus a
// 4-byte bucket head, and no allocation happens outside slot-table growth.
// The prev link makes unlink O(1) — popping the top no longer rescans its
// bucket — and a sorted top cache (the K smallest pending events, captured
// by the day scan that located the top) lets one day-walk serve up to K
// consecutive pops. Slots live in stable chunked storage and are recycled
// through a
// free list; a per-slot generation stamp makes cancelling an already-fired,
// already-cancelled, or reused id a true no-op that returns false.
// Cancellation physically unlinks the event, so the queue never carries
// stale entries.
#pragma once

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
#include "sim/det_lineage.h"

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
  // now. The zero-overhead form for hot-path call sites that already have a
  // stable object to point at (links, timers, queues).
  EventId schedule_raw(Time delay, RawFn fn, void* ctx, void* arg = nullptr) {
    return schedule_raw_at(now_ + delay, fn, ctx, arg);
  }
  EventId schedule_raw_at(Time t, RawFn fn, void* ctx,
                          void* arg = nullptr);  // defined after the class

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
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_at(slot);
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
    return commit_slot(slot, t);
  }

  // Schedules a setup root at absolute time `t` (>= now()). At its instant a
  // setup root fires before every event that an executing event scheduled,
  // and among setup roots in `k` order: the order of events scheduled before
  // the run starts (control-plane timers, then flow launches), kept whether
  // the root is scheduled during setup, from inside an event or between
  // runs. Without det mode the root takes sequence number k + 1 (runtime
  // sequence numbers start above 2^32); in det mode it interns the lineage
  // root {sigma 0, no parent, k}, so k must be unique across all domains.
  // It is scheduled as from the setup context, which is then left as found.
  template <typename Fn>
  EventId schedule_setup_at(Time t, std::uint32_t k, Fn&& fn) {
    const std::uint64_t seq = next_seq_;
    const DetLineage::NodeId node = cur_node_;
    const std::uint32_t child = cur_k_;
    next_seq_ = std::uint64_t{k} + 1;
    cur_node_ = DetLineage::kNull;
    cur_k_ = k;
    const EventId id = schedule_at(t, std::forward<Fn>(fn));
    next_seq_ = seq;
    cur_node_ = node;
    cur_k_ = child;
    return id;
  }

  // Cancels a pending event. Returns true iff the event was still pending;
  // cancelling a fired, cancelled, or default-constructed id returns false
  // and has no effect on engine state.
  bool cancel(EventId id);

  // Pre-sizes internal structures for a workload of roughly `n` concurrently
  // pending events: calendar buckets, free-list capacity, and enough slot
  // chunks that the first `n` concurrent events never allocate.
  void reserve(std::size_t n);

  // Runs events until the queue drains or the clock passes `until`.
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
  // Sequential runs break same-instant ties with the FIFO sequence number;
  // per-domain counters cannot reproduce that global order, so in det mode
  // every scheduled event interns a lineage node {sigma, parent, k} in a
  // shared DetLineage and same-time ties compare by walking the ancestry —
  // which replays the sequential order exactly, at any tie depth (see
  // sim/det_lineage.h). Cross-domain link deliveries carry their node
  // through the mailbox (make_post_node consumes the k slot the delivery
  // would have taken locally) and are re-injected with schedule_injected.
  // The engine compacts the shared lineage at round barriers, rewriting the
  // ids this domain holds (for_each_lineage_ref).

  // Turns on lineage tracking for this domain. Must be called before any
  // event is scheduled into this simulator. Sequential runs never call this
  // and pay only a predictable not-taken branch per schedule/step. Setup
  // roots that must order identically across partitionings (flow launches,
  // control-plane timers) are scheduled with schedule_setup_at.
  void enable_det(std::uint32_t domain_id, DetLineage* lineage);
  bool det_enabled() const { return det_; }
  // Lineage node for a cross-domain post (or any out-of-band record) made by
  // the currently executing event: takes the child slot `k` the event would
  // have consumed scheduling it locally, keeping sibling order exact.
  DetLineage::NodeId make_post_node() {
    PASE_DCHECK(det_);
    return lineage_->add(static_cast<int>(domain_id_), now_, cur_node_,
                         cur_k_++);
  }
  // Injects a cross-domain event carrying a node captured in the source
  // domain.
  EventId schedule_injected(Time t, DetLineage::NodeId node, RawFn fn,
                            void* ctx,
                            void* arg = nullptr);  // defined after the class
  // Visits every lineage reference this domain holds between events — the
  // node of each pending event and the last executed event's node (the
  // parent of any plain out-of-event scheduling made after it) — as a
  // NodeId& that a compaction pass rewrites in place.
  template <typename Visit>
  void for_each_lineage_ref(Visit&& visit) {
    PASE_DCHECK(injected_node_ == DetLineage::kNull);
    for (std::uint32_t i = 0; i < num_slots_; ++i) {
      if (slot_at(i).seq != 0) visit(det_nodes_[i]);  // seq 0: not pending
    }
    if (cur_node_ != DetLineage::kNull) visit(cur_node_);
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
    return finite_entries_ + inf_count_ + staged_count_;
  }
  std::uint64_t executed_events() const { return executed_; }

  // Allocation telemetry for the zero-alloc steady-state tests: cumulative
  // heap-fallback closures scheduled, calendar rebuilds performed, and slot
  // chunks allocated. A warmed steady state must hold all three constant.
  std::uint64_t heap_closure_events() const { return heap_closure_events_; }
  std::uint64_t calendar_rebuilds() const { return calendar_rebuilds_; }
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
  // tallied by payload kind and by registered raw-fn label, calendar day
  // scans record their walk lengths, and the pending-event high-water mark
  // is tracked — the inputs to the "where do the events go and how long are
  // the bucket chains" analysis that previously required a hand-run
  // profiler.
  void enable_profiling() { profiling_ = true; }
  bool profiling_enabled() const { return profiling_; }

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
  // Calendar-queue behavior: day walks performed by the top locator, total
  // and maximum entries visited per walk, and the pending-set high-water
  // mark (bucket occupancy pressure).
  std::uint64_t profile_top_walks() const { return profile_walks_; }
  std::uint64_t profile_scan_sum() const { return profile_scan_sum_; }
  std::uint64_t profile_scan_max() const { return profile_scan_max_; }
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
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  static std::size_t next_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  static constexpr std::size_t kMinBuckets = 64;
  static constexpr std::size_t kInlinePayloadSize = 24;
  // Sequence numbers up to 2^32 belong to setup roots (k + 1); ordinary
  // schedulings count up from just above them.
  static constexpr std::uint64_t kFirstRuntimeSeq = (std::uint64_t{1} << 32) + 1;

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

  // Cache-line sized and aligned: scheduling or firing an event touches
  // exactly one line of the slot arena.
  struct alignas(64) Slot {
    RawFn fn = nullptr;
    alignas(8) unsigned char payload[kInlinePayloadSize];
    std::uint64_t seq = 0;   // scheduling order; breaks time ties (FIFO)
    Time t = 0.0;            // event time; locates the calendar bucket
    std::uint32_t gen = 1;   // bumped on fire/cancel to kill old handles
    std::uint32_t next = kNil;  // intrusive bucket/staging-list links
    std::uint32_t prev = kNil;  // (prev maintained for linked events only)
    Kind kind = Kind::kRaw;
    bool staged = false;     // on the staging list, not yet in a bucket
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

  void retire_slot(std::uint32_t slot_index, Slot& s) {
    s.seq = 0;
    bump_gen(s);
    free_slots_.push_back(slot_index);
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
  // in a side list consumed only once all finite events have fired.
  static constexpr std::uint64_t kInfDay = ~std::uint64_t{0};
  std::uint64_t day_of(Time t) const {
    const double d = t * inv_width_;
    return d < 9.2e18 ? static_cast<std::uint64_t>(d) : kInfDay;
  }

  void unlink(std::uint32_t slot_index, const Slot& s);
  // Picks a bucket width for `n` pending events: the observed inter-fire gap
  // when enough events have run (robust against a few far-future outliers
  // stretching the pending span), otherwise the span-based estimate.
  double preferred_width(Time lo, Time hi, std::size_t n) const;
  void set_width(double w) {
    if (std::isfinite(w) && w > 0.0) {
      width_ = w;
      inv_width_ = 1.0 / w;
    }
  }
  // Distributes the staging list into calendar buckets (see commit_slot).
  void flush_staged();
  // Ensures the top cache is non-empty (its head is the earliest pending
  // event). Returns false if nothing is pending.
  bool locate_top();
  void rebuild(std::size_t new_num_buckets);

  std::vector<std::uint32_t> bucket_heads_;  // kNil-terminated lists
  std::size_t bucket_mask_ = 0;
  double width_ = 1e-6;
  double inv_width_ = 1e6;
  std::uint64_t cur_day_ = 0;  // calendar position: no pending event is older
  std::size_t finite_entries_ = 0;

  std::uint32_t inf_list_ = kNil;  // events past the calendar horizon
  std::size_t inf_count_ = 0;

  // Staging list: newly scheduled events accumulate here (O(1) prepend, no
  // bucket traffic) and are distributed in a batch when the next event is
  // needed. The batch's span and size are tracked incrementally so the
  // distribution pass can size the calendar and width up front.
  std::uint32_t staged_list_ = kNil;
  std::size_t staged_count_ = 0;   // live (uncancelled) staged events
  std::size_t staged_finite_ = 0;  // ... of those, finite-time ones
  Time staged_lo_ = kTimeInfinity;
  Time staged_hi_ = -kTimeInfinity;

  // Top cache: the first top_count_ entries of the global (t, seq) pending
  // order, sorted. The day scan that locates the next event visits every
  // event of that day anyway, so it captures the day's K smallest — provably
  // the K globally smallest, since later days hold strictly later times —
  // and one walk then serves up to K consecutive pops. link() keeps the
  // prefix exact (insert when the new event beats the cached tail, skip
  // otherwise); unlink() removes in place. An empty cache means "unknown",
  // never "no events".
  struct TopEntry {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static constexpr std::uint32_t kTopCacheSize = 16;
  TopEntry top_cache_[kTopCacheSize];
  std::uint32_t top_count_ = 0;

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
  std::uint64_t profile_peak_pending_ = 0;
  bool profiling_ = false;

  // Same-time ties fall back to the FIFO seq sequentially, or to the
  // partition-invariant lineage order when det mode is on (the slot indices
  // locate the nodes). Time-distinct comparisons never touch the lineage.
  bool entry_before(Time t, std::uint64_t seq, std::uint32_t slot,
                    const TopEntry& e) const {
    if (t != e.t) return t < e.t;
    if (!det_) return seq < e.seq;
    return lineage_->less(det_nodes_[slot], det_nodes_[e.slot]);
  }
  // Inserts into the sorted cache if (t, seq) beats the tail (or there is
  // room to grow the prefix during a scan); drops the overflow.
  void top_insert(Time t, std::uint64_t seq, std::uint32_t slot) {
    std::uint32_t n = top_count_;
    if (n == kTopCacheSize) {
      if (!entry_before(t, seq, slot, top_cache_[n - 1])) return;
      --n;  // tail falls out
    }
    std::uint32_t i = n;
    while (i > 0 && entry_before(t, seq, slot, top_cache_[i - 1])) {
      top_cache_[i] = top_cache_[i - 1];
      --i;
    }
    top_cache_[i] = TopEntry{t, seq, slot};
    top_count_ = n + 1;
  }


  // --- Hot-path scheduling, defined in-class so call sites (links, timers,
  // hosts) compile the whole schedule to straight-line code. The cold
  // restructuring operations (rebuild, flush_staged, locate_top) stay in
  // simulator.cc.
  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    const std::uint32_t slot = num_slots_++;
    PASE_DCHECK(slot != kNil && "pending-event slot space exhausted");
    if ((slot >> kSlotChunkShift) >= slot_chunks_.size()) {
      slot_chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
    }
    return slot;
  }

  EventId commit_slot(std::uint32_t slot, Time t) {
    Slot& s = slot_at(slot);
    s.seq = next_seq_++;
    s.t = t;
    if (det_) [[unlikely]] record_det_node(slot);
    // Steady state: link straight into the calendar — everything lands on the
    // slot line just written plus one bucket head, and the memo update inside
    // link() usually keeps the next pop O(1).
    if (staged_list_ == kNil && finite_entries_ + inf_count_ > 0) {
      s.staged = false;
      link(slot, s);
      maybe_grow();
      return EventId{slot, s.gen};
    }
    // Empty calendar (or a staged batch already accumulating): stage instead,
    // so the whole burst is distributed — and the calendar sized and its
    // bucket width derived for it in one pass — when the next event is
    // actually needed (see flush_staged).
    s.staged = true;
    s.next = staged_list_;
    staged_list_ = slot;
    ++staged_count_;
    if (std::isfinite(t)) {
      ++staged_finite_;
      staged_lo_ = std::min(staged_lo_, t);
      staged_hi_ = std::max(staged_hi_, t);
    }
    return EventId{slot, s.gen};
  }

  // Interns the lineage node of a freshly committed event from the execution
  // context: scheduled now, by the event currently firing, as its next child.
  // An injected event instead adopts the node carried from its source domain
  // (set by schedule_injected) — and it must be in place here, before link()
  // runs top-cache comparisons against it.
  void record_det_node(std::uint32_t slot) {
    if (slot >= det_nodes_.size()) {
      det_nodes_.resize(slot_chunks_.size() << kSlotChunkShift);
    }
    if (injected_node_ != DetLineage::kNull) {
      det_nodes_[slot] = injected_node_;
      injected_node_ = DetLineage::kNull;
    } else {
      // Setup-context schedulings (before the first event, or through
      // schedule_setup_at) have no parent: they are roots at sigma 0
      // ("before all execution"), numbered by the setup index.
      const Time sigma = cur_node_ == DetLineage::kNull ? 0.0 : now_;
      det_nodes_[slot] = lineage_->add(static_cast<int>(domain_id_), sigma,
                                       cur_node_, cur_k_++);
    }
  }

  void link(std::uint32_t slot_index, Slot& s) {
    const std::uint64_t day = day_of(s.t);
    std::uint32_t& head =
        day == kInfDay ? inf_list_ : bucket_heads_[day & bucket_mask_];
    s.next = head;
    s.prev = kNil;
    if (head != kNil) slot_at(head).prev = slot_index;
    head = slot_index;
    if (day == kInfDay) {
      ++inf_count_;
    } else {
      ++finite_entries_;
    }
    if (top_count_ > 0 &&
        entry_before(s.t, s.seq, slot_index, top_cache_[top_count_ - 1])) {
      // The new event lands inside the cached prefix; insert it (dropping the
      // overflow — still a valid, shorter prefix). Events past the cached tail
      // must be skipped, not appended: pending events outside the cache may
      // sort between the tail and the newcomer. If the newcomer preempts the
      // cached top, rewind the calendar cursor so the next walk starts no
      // later than its day.
      if (entry_before(s.t, s.seq, slot_index, top_cache_[0]) &&
          day < cur_day_) {
        cur_day_ = day;
      }
      top_insert(s.t, s.seq, slot_index);
    }
  }

  void maybe_grow() {
    // Jump past the trigger point (2x occupancy) so refill-heavy workloads see
    // O(log n) rebuilds totalling O(n) relinks, not O(n log n).
    if (finite_entries_ > bucket_heads_.size() * 2) {
      rebuild(next_pow2(finite_entries_ * 2));
    }
  }


  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  std::uint32_t num_slots_ = 0;
  std::vector<std::uint32_t> free_slots_;

  // Parallel-mode ordering state (see the det section above). det_nodes_ is
  // a slot-indexed side table so the 64-byte Slot stays untouched; it is
  // only consulted on exact time ties.
  std::vector<DetLineage::NodeId> det_nodes_;
  DetLineage* lineage_ = nullptr;
  DetLineage::NodeId cur_node_ = DetLineage::kNull;  // executing event's node
  DetLineage::NodeId injected_node_ = DetLineage::kNull;  // pending adoption
  std::uint32_t cur_k_ = 0;  // its next child index
  std::uint32_t domain_id_ = 0;
  bool det_ = false;

  Time now_ = 0.0;
  std::uint64_t next_seq_ = kFirstRuntimeSeq;
  std::uint64_t executed_ = 0;
  std::uint64_t last_rebuild_exec_ = 0;  // rebuild cooldown (see locate_top)
  std::uint64_t heap_closure_events_ = 0;
  std::uint64_t calendar_rebuilds_ = 0;
  double fire_gap_ewma_ = 0.0;  // smoothed gap between consecutive fires
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

inline EventId Simulator::schedule_raw_at(Time t, RawFn fn, void* ctx, void* arg) {
  PASE_DCHECK(t >= now_ && "cannot schedule in the past");
  PASE_DCHECK(fn != nullptr);
  const std::uint32_t slot = acquire_slot();
  Slot& s = slot_at(slot);
  s.fn = fn;
  const RawPayload rp{ctx, arg};
  std::memcpy(s.payload, &rp, sizeof(rp));
  s.kind = Kind::kRaw;
  return commit_slot(slot, t);
}

inline EventId Simulator::schedule_injected(Time t, DetLineage::NodeId node,
                                            RawFn fn, void* ctx, void* arg) {
  PASE_DCHECK(det_ && "schedule_injected requires det mode");
  PASE_DCHECK(node != DetLineage::kNull);
  // Ordering uses the carried node, interned when the source domain posted
  // the event; record_det_node adopts it during commit so every comparison
  // made while linking already sees the right key.
  injected_node_ = node;
  return schedule_raw_at(t, fn, ctx, arg);
}

}  // namespace pase::sim
