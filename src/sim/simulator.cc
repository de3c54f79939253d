#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/trace.h"

namespace pase::sim {

double Simulator::preferred_width(Time lo, Time hi, std::size_t n) const {
  if (executed_ > 64 && fire_gap_ewma_ > 0.0 &&
      std::isfinite(fire_gap_ewma_)) {
    // A few events per day keeps day scans short while the top cache still
    // amortizes one walk over several pops (the multiplier is empirical:
    // wider days make buckets — and every scan — proportionally longer).
    return fire_gap_ewma_ * 4.0;
  }
  if (n > 1 && hi > lo) return (hi - lo) * 2.0 / static_cast<double>(n);
  return width_;  // degenerate: keep the current width
}

Simulator::Simulator() {
  bucket_heads_.assign(kMinBuckets, kNil);
  bucket_mask_ = kMinBuckets - 1;
  free_slots_.reserve(256);
  node_keys_.push_back(kFirstSetupCounter);
  enter_setup_context();
}

void Simulator::key_overflow() {
  std::fprintf(stderr,
               "PASE_CHECK failed: event order key overflow (age >= 2^8, "
               "counter >= 2^36 or node tag >= 2^20)\n");
  std::abort();
}

void Simulator::enter_setup_context() {
  cur_key_ = 0;
  cur_tag_ = 0;
  counter_ = &node_keys_[0];
  counter_limit_ = std::uint64_t{1} << kCounterBits;
  child_age_ = 0;
}

void Simulator::grow_node_keys(std::uint32_t tag) {
  std::size_t n = node_keys_.size();
  node_keys_.resize(std::max<std::size_t>(tag + 1, n * 2));
  for (; n < node_keys_.size(); ++n) {
    node_keys_[n] = std::uint64_t{n} << kCounterBits;
  }
}

Simulator::~Simulator() {
  // Pending events may own memory: heap closures their object, raw events
  // whatever their fn's registered disposer frees (a link delivery's packet).
  // Fired and cancelled slots carry key 0 and were already downgraded to
  // kRaw, so they release nothing.
  for (std::uint32_t i = 0; i < num_slots_; ++i) {
    Slot& s = slot_at(i);
    if (s.key != 0 && s.kind == Kind::kRaw) {
      RawPayload rp;
      std::memcpy(&rp, s.payload, sizeof(rp));
      dispose_arg(s.fn, rp.arg);
    }
    destroy_payload(s);
  }
}



void Simulator::unlink(std::uint32_t slot_index, const Slot& s) {
  const std::uint64_t day = day_of(s.t);
  if (s.prev != kNil) {
    slot_at(s.prev).next = s.next;
  } else {
    std::uint32_t& head =
        day == kInfDay ? inf_list_ : bucket_heads_[day & bucket_mask_];
    PASE_DCHECK(head == slot_index && "pending event missing from its bucket");
    head = s.next;
  }
  if (s.next != kNil) slot_at(s.next).prev = s.prev;
  if (day == kInfDay) {
    --inf_count_;
  } else {
    --finite_entries_;
  }
  if (top_count_ > 0) {
    if (top_cache_[0].slot == slot_index) {
      // Popping the cached top (the common case): promote the rest of the
      // prefix. The new head is by construction the minimum of the remaining
      // pending set, and every other event is at or past its day, so the
      // calendar cursor may jump forward to it.
      --top_count_;
      for (std::uint32_t i = 0; i < top_count_; ++i) {
        top_cache_[i] = top_cache_[i + 1];
      }
      if (top_count_ > 0) {
        const std::uint64_t d = day_of(top_cache_[0].t);
        if (d != kInfDay && d > cur_day_) cur_day_ = d;
      } else {
        // Cache exhausted; restart the next walk from the clock's day.
        cur_day_ = day_of(now_);
      }
    } else {
      // Cancellation of a non-top event: drop it from the prefix if cached.
      for (std::uint32_t i = 1; i < top_count_; ++i) {
        if (top_cache_[i].slot == slot_index) {
          --top_count_;
          for (std::uint32_t j = i; j < top_count_; ++j) {
            top_cache_[j] = top_cache_[j + 1];
          }
          break;
        }
      }
    }
  }
}

void Simulator::flush_staged() {
  std::uint32_t chain = staged_list_;
  staged_list_ = kNil;
  const std::size_t incoming = staged_count_;
  staged_count_ = 0;

  // If the calendar is empty, size it and derive the bucket width from the
  // batch itself (its span/size were tracked at schedule time), so the batch
  // is linked exactly once — no growth rebuilds mid-distribution.
  if (finite_entries_ == 0 && inf_count_ == 0 && incoming > 0) {
    set_width(preferred_width(staged_lo_, staged_hi_, staged_finite_));
    const std::size_t want = std::max(kMinBuckets, next_pow2(incoming * 2));
    if (want != bucket_heads_.size()) {
      bucket_heads_.assign(want, kNil);
      bucket_mask_ = want - 1;
    }
    cur_day_ = day_of(now_);
    top_count_ = 0;
  }
  staged_finite_ = 0;
  staged_lo_ = kTimeInfinity;
  staged_hi_ = -kTimeInfinity;

  while (chain != kNil) {
    const std::uint32_t i = chain;
    Slot& s = slot_at(i);
    chain = s.next;
    if (s.key == 0) {
      // Cancelled while staged (payload already freed); reclaim the slot now
      // that it is unchained.
      free_slots_.push_back(i);
    } else {
      link(i, s);
    }
  }
  maybe_grow();
}

bool Simulator::locate_top() {
  if (staged_list_ != kNil) flush_staged();
  if (top_count_ > 0) return true;
  if (finite_entries_ > 0) {
    const std::size_t nb = bucket_heads_.size();
    for (std::size_t k = 0; k < nb; ++k) {
      const std::uint64_t day = cur_day_ + k;
      std::uint32_t i = bucket_heads_[day & bucket_mask_];
      if (i == kNil) continue;
      // Bucket lists are unsorted; scan for the day's (t, key)-smallest
      // events — the day's m smallest are the globally m smallest, since
      // every later day holds strictly later times — capturing up to
      // kTopCacheSize of them, and skipping events a full rotation (or
      // more) ahead.
      std::size_t scanned = 0;
      for (; i != kNil;) {
        const Slot& s = slot_at(i);
        const std::uint32_t nx = s.next;
        // Bucket neighbours live on unrelated cache lines; overlap the next
        // fetch with this entry's day check and cache insert.
        if (nx != kNil) __builtin_prefetch(&slot_at(nx));
        ++scanned;
        if (day_of(s.t) == day) top_insert(s.t, s.key, i);
        i = nx;
      }
      if (top_count_ > 0) {
        // A grossly overfull bucket means the width no longer matches the
        // event density (the workload's timescale changed); re-derive it.
        // The cooldown keeps coincident-time pileups, which no width can
        // spread, from triggering a rebuild per pop.
        if (scanned > 64 &&
            executed_ - last_rebuild_exec_ > finite_entries_) {
          rebuild(bucket_heads_.size());
          return locate_top();
        }
        if (profiling_) [[unlikely]] {
          ++profile_walks_;
          profile_scan_sum_ += scanned;
          profile_scan_max_ =
              std::max<std::uint64_t>(profile_scan_max_, scanned);
        }
        cur_day_ = day;
        return true;
      }
    }
    // Nothing within one full rotation: the calendar is too sparse for its
    // size. Shrink it (also re-deriving the width) while the occupancy
    // invariant is off, then retry; once sized to the population, fall
    // through to a direct search over every finite event (whose smallest
    // prefix is global: infinite-time events sort after all of them).
    const std::size_t want =
        std::max(kMinBuckets, next_pow2(finite_entries_ * 2));
    if (want < nb) {
      rebuild(want);
      return locate_top();
    }
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::uint32_t i = bucket_heads_[b]; i != kNil; i = slot_at(i).next) {
        const Slot& s = slot_at(i);
        top_insert(s.t, s.key, i);
      }
    }
    PASE_DCHECK(top_count_ > 0);
    cur_day_ = day_of(top_cache_[0].t);
    return true;
  }
  if (inf_count_ > 0) {
    // Only past-horizon events remain; their smallest prefix is global.
    for (std::uint32_t i = inf_list_; i != kNil; i = slot_at(i).next) {
      const Slot& s = slot_at(i);
      top_insert(s.t, s.key, i);
    }
    return true;
  }
  return false;
}

void Simulator::rebuild(std::size_t new_num_buckets) {
  // Gather every pending event into a temporary chain (no allocation: the
  // links are intrusive) while measuring the finite-time span.
  std::uint32_t chain = kNil;
  double lo = kTimeInfinity, hi = -kTimeInfinity;
  std::size_t finite_count = 0;
  const auto gather = [&](std::uint32_t head) {
    std::uint32_t i = head;
    while (i != kNil) {
      Slot& s = slot_at(i);
      const std::uint32_t nx = s.next;
      s.next = chain;
      chain = i;
      if (std::isfinite(s.t)) {
        lo = std::min(lo, s.t);
        hi = std::max(hi, s.t);
        ++finite_count;
      }
      i = nx;
    }
  };
  for (const std::uint32_t head : bucket_heads_) gather(head);
  gather(inf_list_);
  inf_list_ = kNil;
  inf_count_ = 0;

  bucket_heads_.assign(new_num_buckets, kNil);
  bucket_mask_ = new_num_buckets - 1;

  set_width(preferred_width(lo, hi, finite_count));

  finite_entries_ = 0;
  cur_day_ = day_of(now_);
  top_count_ = 0;  // cleared before relinking: link() must not see stale entries
  last_rebuild_exec_ = executed_;
  ++calendar_rebuilds_;
  while (chain != kNil) {
    const std::uint32_t i = chain;
    Slot& s = slot_at(i);
    chain = s.next;
    link(i, s);
  }
}

void Simulator::reserve(std::size_t n) {
  free_slots_.reserve(n);
  while (slot_chunks_.size() * kSlotChunkSize < n) {
    slot_chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
  }
  if (n > bucket_heads_.size()) rebuild(next_pow2(n));
}

bool Simulator::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= num_slots_) return false;
  Slot& s = slot_at(id.slot_);
  if (s.gen != id.gen_) return false;  // already fired, cancelled, or reused
  if (s.prev == kStaged) {
    // Cheaply unlinking from the middle of the staging list isn't possible,
    // so mark the node dead (key = 0) and leave it chained; the slot is
    // retired — and removed — when the staging list is next flushed.
    --staged_count_;
    if (std::isfinite(s.t)) --staged_finite_;
    s.key = 0;
    destroy_payload(s);
    bump_gen(s);
    return true;
  }
  unlink(id.slot_, s);
  destroy_payload(s);
  retire_slot(id.slot_, s);
  return true;
}

bool Simulator::step(Time until) {
  const bool fired = dispatch(until);
  enter_setup_context();
  return fired;
}

bool Simulator::dispatch(Time until) {
  // Fast path: the top cache already knows the next event (~(K-1)/K of
  // pops); fall into the full locator only on a cache miss or staged batch.
  if (staged_list_ != kNil || top_count_ == 0) {
    if (!locate_top()) return false;
  }
  if (top_cache_[0].t > until) return false;
  const std::uint32_t slot = top_cache_[0].slot;
  const Time t = top_cache_[0].t;
  Slot& s = slot_at(slot);
  // Unlink, copy the event out, and retire before invoking, so the callback
  // may freely schedule (possibly reusing this very slot) or cancel. The
  // payload is 24 trivially-copyable bytes; heap-closure ownership transfers
  // to the invoker (which frees it), so the slot is downgraded to kRaw.
  unlink(slot, s);
  const RawFn fn = s.fn;
  const Kind kind = s.kind;
  const std::uint64_t key = s.key;
  const std::uint32_t tag = s.tag;
  if (profiling_) [[unlikely]] profile_count(fn, kind);
  alignas(8) unsigned char payload[kInlinePayloadSize];
  std::memcpy(payload, s.payload, sizeof(payload));
  s.kind = Kind::kRaw;
  retire_slot(slot, s);
  if (executed_ > 0) {
    fire_gap_ewma_ = fire_gap_ewma_ * 0.98 + (t - now_) * 0.02;
  }
  now_ = t;
  ++executed_;
  enter_event(key, tag);
  if (obs::TraceBuffer* tb = obs::tracer(); tb != nullptr) [[unlikely]] {
    // Stamp the tracing context once per dispatch: everything the callback
    // emits (queue drops, cwnd samples, ...) inherits this event's time and
    // order key, so emit sites need neither a clock nor the engine.
    tb->begin_event(t, key);
  }
  // Overlap upcoming events' cache misses with this callback's execution.
  // The promoted top cache names the upcoming slots, so the objects the next
  // raw payloads point at (a Link, a Packet in flight, a timer context) can
  // be fetched while the current event runs — at fabric scale those lines
  // have been evicted between a packet's consecutive hops, and this serial
  // miss chain otherwise dominates the event loop. Reading the payload of a
  // pending slot is safe (single-threaded engine, slots are stable), and a
  // prefetch of whatever bytes a closure payload holds is harmless.
  //
  // The pipeline is two events deep: depth 1's payload objects were already
  // prefetched while the previous event ran (when it sat at depth 2), so a
  // registered hint can chase one pointer further (e.g. a delivery
  // prefetching the destination node); depth 2's slot line was prefetched
  // one step early, so its payload read below lands warm and its objects
  // start fetching now.
  if (top_count_ > 0) {
    const Slot& n0 = slot_at(top_cache_[0].slot);
    RawPayload np;
    std::memcpy(&np, n0.payload, sizeof(np));
    if (np.ctx != nullptr) __builtin_prefetch(np.ctx);
    if (np.arg != nullptr) __builtin_prefetch(np.arg);
    if (n0.kind == Kind::kRaw) {
      for (std::uint32_t i = 0; i < num_hints_; ++i) {
        if (hints_[i].fn == n0.fn) {
          hints_[i].hint(np.ctx, np.arg);
          break;
        }
      }
    }
    if (top_count_ > 1) {
      const Slot& n1 = slot_at(top_cache_[1].slot);
      RawPayload n1p;
      std::memcpy(&n1p, n1.payload, sizeof(n1p));
      if (n1p.ctx != nullptr) __builtin_prefetch(n1p.ctx);
      if (n1p.arg != nullptr) __builtin_prefetch(n1p.arg);
      if (top_count_ > 2) __builtin_prefetch(&slot_at(top_cache_[2].slot));
    }
  }
  switch (kind) {
    case Kind::kRaw: {
      RawPayload rp;
      std::memcpy(&rp, payload, sizeof(rp));
      fn(rp.ctx, rp.arg);
      break;
    }
    case Kind::kInlineClosure:
      fn(payload, nullptr);
      break;
    case Kind::kHeapClosure: {
      HeapPayload hp;
      std::memcpy(&hp, payload, sizeof(hp));
      fn(hp.obj, nullptr);
      break;
    }
  }
  return true;
}

void Simulator::run(Time until) {
  stopped_ = false;
  while (!stopped_ && dispatch(until)) {
  }
  enter_setup_context();
  if (until != kTimeInfinity && now_ < until && !stopped_) now_ = until;
}

void Simulator::profile_count(RawFn fn, Kind kind) {
  switch (kind) {
    case Kind::kRaw: ++profile_raw_; break;
    case Kind::kInlineClosure: ++profile_inline_; break;
    case Kind::kHeapClosure: ++profile_heap_; break;
  }
  const std::size_t pending = pending_events();
  if (pending > profile_peak_pending_) profile_peak_pending_ = pending;
  if (kind != Kind::kRaw) return;
  for (std::uint32_t i = 0; i < num_profiled_fns_; ++i) {
    if (profiled_fns_[i].fn == fn) {
      ++profiled_fns_[i].count;
      return;
    }
  }
  ++profile_other_;
}

Time Simulator::next_event_time() {
  if (staged_list_ != kNil || top_count_ == 0) {
    if (!locate_top()) return kTimeInfinity;
  }
  return top_cache_[0].t;
}

void Simulator::run_before(Time bound) {
  stopped_ = false;
  while (!stopped_) {
    if (staged_list_ != kNil || top_count_ == 0) {
      if (!locate_top()) break;
    }
    if (top_cache_[0].t >= bound) break;
    dispatch(kTimeInfinity);
  }
  enter_setup_context();
}

}  // namespace pase::sim
