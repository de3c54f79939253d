#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/trace.h"

namespace pase::sim {

namespace {

// Day width in observed inter-fire gaps. Narrower days mean more detaches
// (and more empty buckets walked); wider ones longer sorts and more events
// inserted into the run; EXPERIMENTS.md ("One sorted day") has the counts
// behind the choice.
constexpr double kDayGaps = 2.0;

// Detached days up to this size are insertion-sorted (a day holds a few
// events); larger ones, such as a pile-up at one instant, go to std::sort.
constexpr std::size_t kInsertionSortMax = 32;

}  // namespace

double Simulator::preferred_width(Time lo, Time hi, std::size_t n) const {
  if (executed_ > 64 && fire_gap_ewma_ > 0.0 &&
      std::isfinite(fire_gap_ewma_)) {
    return fire_gap_ewma_ * kDayGaps;
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



void Simulator::unlink(Slot& s) {
  --calendar_count_;
  const std::uint64_t day = day_of(s.t);
  if (day < next_day_) {
    // In the run: find it by (t, key), unique among pending events.
    const auto it =
        std::lower_bound(run_.begin(), run_.end(), entry_of(s), entry_after);
    PASE_DCHECK(it != run_.end() && it->slot == &s &&
                "pending event missing from the run");
    run_.erase(it);
    return;
  }
  std::uint32_t* link = &bucket_heads_[day & bucket_mask_];
  if (day == kInfDay) {
    link = &inf_list_;
    --inf_count_;
  }
  while (*link != s.index) {
    PASE_DCHECK(*link != kNil && "pending event missing from its bucket");
    link = &slot_at(*link).next;
  }
  *link = s.next;
}

void Simulator::run_insert(Slot& s, std::uint64_t day) {
  if (day + 1 < next_day_) {
    // The run holds one day, next_day_ - 1, and the newcomer precedes it:
    // the locator detached ahead of the clock (next_event_time, or a
    // window or run() that ended before that day). Rather than insert
    // every event up to that day into the run, hand the run back to its
    // bucket, newest on top as it came, and restart the locator at the
    // clock.
    for (auto it = run_.rbegin(); it != run_.rend(); ++it) {
      push_bucket(*it->slot, next_day_ - 1);
    }
    run_.clear();
    next_day_ = day_of(now_);
    push_bucket(s, day);
    return;
  }
  // Only the entries that fire before the newcomer move; a zero-delay child
  // usually lands among the last few.
  const RunEntry e = entry_of(s);
  const auto it = std::upper_bound(run_.begin(), run_.end(), e, entry_after);
  const auto moves = static_cast<std::uint64_t>(run_.end() - it);
  if (run_.size() == run_.capacity()) ++run_reallocations_;
  run_.insert(it, e);
  if (profiling_) [[unlikely]] {
    ++profile_run_inserts_;
    profile_sort_moves_ += moves;
  }
}

void Simulator::flush_staged() {
  std::uint32_t chain = staged_list_;
  staged_list_ = kNil;
  const std::size_t incoming = staged_count_;
  staged_count_ = 0;

  // Events are staged only into an empty calendar: size it and derive the
  // day width from the batch itself (its span/size were tracked at schedule
  // time), so the batch is linked exactly once — no growth rebuilds
  // mid-distribution.
  PASE_DCHECK(calendar_count_ == 0);
  if (incoming > 0) {
    set_width(preferred_width(staged_lo_, staged_hi_, staged_finite_));
    const std::size_t want = std::max(kMinBuckets, next_pow2(incoming * 2));
    if (want != bucket_heads_.size()) {
      bucket_heads_.assign(want, kNil);
      bucket_mask_ = want - 1;
    }
  }
  next_day_ = day_of(now_);
  staged_finite_ = 0;
  staged_lo_ = kTimeInfinity;
  staged_hi_ = -kTimeInfinity;

  while (chain != kNil) {
    Slot& s = slot_at(chain);
    chain = s.next;
    if (s.key == 0) {
      // Cancelled while staged (payload already freed); reclaim the slot now
      // that it is unchained.
      free_slots_.push_back(s.index);
    } else {
      link(s);
    }
  }
  maybe_grow();
}

std::size_t Simulator::detach_day(std::uint64_t day) {
  std::uint32_t* link = &bucket_heads_[day & bucket_mask_];
  std::size_t scanned = 0;
  for (std::uint32_t i = *link; i != kNil;) {
    Slot& s = slot_at(i);
    const std::uint32_t nx = s.next;
    // Bucket neighbours live on unrelated cache lines; overlap the next
    // fetch with this entry's day check.
    if (nx != kNil) __builtin_prefetch(&slot_at(nx));
    ++scanned;
    if (day_of(s.t) == day) {
      *link = nx;
      run_push(entry_of(s));
    } else {
      link = &s.next;  // a rotation or more ahead: stays in the bucket
    }
    i = nx;
  }
  return scanned;
}

void Simulator::sort_run() {
  // A bucket is pushed at its head, so its chain runs newest first: a day
  // whose events were scheduled in time order is detached already in the
  // run's latest-first order, and costs the insertion sort no moves.
  const std::size_t m = run_.size();
  std::uint64_t moves = 0;
  if (m <= kInsertionSortMax) {
    RunEntry* const r = run_.data();
    for (std::size_t i = 1; i < m; ++i) {
      // The entry travels in registers, not as a stack copy that every
      // comparison would reload.
      const std::uint64_t when = r[i].when;
      const std::uint64_t key = r[i].key;
      Slot* const slot = r[i].slot;
      const Order order = (Order{when} << 64) | key;
      std::size_t j = i;
      for (; j > 0 && order > order_of(r[j - 1]); --j) r[j] = r[j - 1];
      r[j] = RunEntry{when, key, slot};
      moves += i - j;
    }
  } else {
    std::sort(run_.begin(), run_.end(),
              [&moves](const RunEntry& a, const RunEntry& b) {
                ++moves;
                return entry_after(a, b);
              });
  }
  if (profiling_) [[unlikely]] profile_sort_moves_ += moves;
}

bool Simulator::refill_run() {
  // Fold the gaps between the events fired since the last refill into the
  // fire-gap average, weighted as that many per-event updates would be
  // (roughly), before anything re-derives the width from it. The first
  // window, which starts at time 0 rather than at a fire, is skipped.
  const std::uint64_t fired = executed_ - gap_mark_exec_;
  if (fired > 0) {
    if (gap_mark_exec_ > 0) {
      const double n = static_cast<double>(fired);
      fire_gap_ewma_ += ((now_ - gap_mark_t_) / n - fire_gap_ewma_) *
                        std::min(1.0, 0.02 * n);
    }
    gap_mark_t_ = now_;
    gap_mark_exec_ = executed_;
  }
  if (staged_list_ != kNil) flush_staged();
  PASE_DCHECK(run_.empty());
  if (calendar_count_ == 0) return false;
  if (calendar_count_ == inf_count_) {
    // Only past-horizon events remain: they join the run, which from now
    // on covers every day.
    for (std::uint32_t i = inf_list_; i != kNil;) {
      Slot& s = slot_at(i);
      run_push(entry_of(s));
      i = s.next;
    }
    inf_list_ = kNil;
    inf_count_ = 0;
    sort_run();
    next_day_ = kAllDays;
    return true;
  }
  const std::size_t nb = bucket_heads_.size();
  for (;;) {
    for (std::size_t k = 0; k < nb; ++k) {
      const std::uint64_t day = next_day_ + k;
      if (bucket_heads_[day & bucket_mask_] == kNil) continue;
      const std::size_t scanned = detach_day(day);
      if (run_.empty()) continue;  // only later rotations in this bucket
      // A grossly overfull bucket means the width no longer matches the
      // event density (the workload's timescale changed); re-derive it.
      // The cooldown keeps coincident-time pileups, which no width can
      // spread, from triggering a rebuild per detach.
      if (scanned > 64 &&
          executed_ - last_rebuild_exec_ > calendar_count_ - inf_count_) {
        rebuild(nb);
        return refill_run();
      }
      sort_run();
      next_day_ = day + 1;
      if (profiling_) [[unlikely]] {
        ++profile_walks_;
        profile_scan_sum_ += scanned;
        profile_scan_max_ =
            std::max<std::uint64_t>(profile_scan_max_, scanned);
      }
      return true;
    }
    // Nothing within one full rotation: the calendar is too sparse for its
    // size. Shrink it (also re-deriving the width) while the occupancy
    // invariant is off, then retry; once sized to the population, jump the
    // locator straight to the earliest pending day.
    const std::size_t finite = calendar_count_ - inf_count_;
    const std::size_t want = std::max(kMinBuckets, next_pow2(finite * 2));
    if (want < nb) {
      rebuild(want);
      return refill_run();
    }
    std::uint64_t earliest = kInfDay;
    for (const std::uint32_t head : bucket_heads_) {
      for (std::uint32_t i = head; i != kNil; i = slot_at(i).next) {
        earliest = std::min(earliest, day_of(slot_at(i).t));
      }
    }
    next_day_ = earliest;
  }
}

void Simulator::rebuild(std::size_t new_num_buckets) {
  // Gather every pending event into a temporary chain (no allocation: the
  // links are intrusive) while measuring the finite-time span.
  std::uint32_t chain = kNil;
  double lo = kTimeInfinity, hi = -kTimeInfinity;
  std::size_t finite_count = 0;
  const auto gather = [&](Slot& s) {
    s.next = chain;
    chain = s.index;
    if (std::isfinite(s.t)) {
      lo = std::min(lo, s.t);
      hi = std::max(hi, s.t);
      ++finite_count;
    }
  };
  for (const RunEntry& e : run_) gather(*e.slot);
  const auto gather_list = [&](std::uint32_t i) {
    while (i != kNil) {
      Slot& s = slot_at(i);
      i = s.next;
      gather(s);
    }
  };
  for (const std::uint32_t head : bucket_heads_) gather_list(head);
  gather_list(inf_list_);
  inf_list_ = kNil;
  inf_count_ = 0;
  run_.clear();

  bucket_heads_.assign(new_num_buckets, kNil);
  bucket_mask_ = new_num_buckets - 1;

  set_width(preferred_width(lo, hi, finite_count));

  // Every pending event is at or after now_, so the whole set relinks into
  // buckets and the next pop detaches afresh.
  calendar_count_ = 0;
  next_day_ = day_of(now_);
  last_rebuild_exec_ = executed_;
  ++calendar_rebuilds_;
  while (chain != kNil) {
    Slot& s = slot_at(chain);
    chain = s.next;
    link(s);
  }
}

void Simulator::reserve(std::size_t n) {
  free_slots_.reserve(n);
  while (slot_chunks_.size() * kSlotChunkSize < n) {
    slot_chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
  }
  if (n > run_.capacity()) {
    ++run_reallocations_;
    run_.reserve(n);
  }
  if (n > bucket_heads_.size()) rebuild(next_pow2(n));
}

bool Simulator::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= num_slots_) return false;
  Slot& s = slot_at(id.slot_);
  if (s.gen != id.gen_) return false;  // already fired, cancelled, or reused
  if (staged_list_ != kNil) {
    // Only staged events are pending. Cheaply unlinking from the middle of
    // the staging list isn't possible, so mark the node dead (key = 0) and
    // leave it chained; the slot is retired — and removed — when the
    // staging list is next flushed.
    --staged_count_;
    if (std::isfinite(s.t)) --staged_finite_;
    s.key = 0;
    destroy_payload(s);
    bump_gen(s);
    return true;
  }
  unlink(s);
  destroy_payload(s);
  retire_slot(s);
  return true;
}

bool Simulator::step(Time until) {
  const bool fired = dispatch(until);
  enter_setup_context();
  return fired;
}

bool Simulator::dispatch(Time until) {
  if (run_.empty() && !refill_run()) return false;
  const RunEntry top = run_.back();
  if (time_of(top) > until) return false;
  run_.pop_back();
  --calendar_count_;
  Slot& s = *top.slot;
  const Time t = s.t;
  // Copy the event out and retire its slot before invoking, so the callback
  // may freely schedule (possibly reusing this very slot) or cancel. The
  // payload is 24 trivially-copyable bytes; heap-closure ownership transfers
  // to the invoker (which frees it), so the slot is downgraded to kRaw.
  const RawFn fn = s.fn;
  const Kind kind = s.kind;
  const std::uint64_t key = s.key;
  const std::uint32_t tag = s.tag;
  if (profiling_) [[unlikely]] profile_count(fn, kind);
  alignas(8) unsigned char payload[kInlinePayloadSize];
  std::memcpy(payload, s.payload, sizeof(payload));
  s.kind = Kind::kRaw;
  retire_slot(s);
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
  // The run names the upcoming slots, so the objects the next raw payloads
  // point at (a Link, a Packet in flight, a timer context) can be fetched
  // while the current event runs — at fabric scale those lines have been
  // evicted between a packet's consecutive hops, and this serial miss chain
  // otherwise dominates the event loop. Reading the payload of a pending
  // slot is safe (single-threaded engine, slots are stable), and a prefetch
  // of whatever bytes a closure payload holds is harmless.
  //
  // The pipeline is two events deep: depth 1's payload objects were already
  // prefetched while the previous event ran (when it sat at depth 2), so a
  // registered hint can chase one pointer further (e.g. a delivery
  // prefetching the destination node); depth 2's slot line was prefetched
  // one step early, so its payload read below lands warm and its objects
  // start fetching now.
  const std::size_t ahead = run_.size();
  if (ahead > 0) {
    const RunEntry* next = run_.data() + ahead - 1;  // next[-i]: i + 1 ahead
    const Slot& n0 = *next[0].slot;
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
    if (ahead > 1) {
      const Slot& n1 = *next[-1].slot;
      RawPayload n1p;
      std::memcpy(&n1p, n1.payload, sizeof(n1p));
      if (n1p.ctx != nullptr) __builtin_prefetch(n1p.ctx);
      if (n1p.arg != nullptr) __builtin_prefetch(n1p.arg);
      if (ahead > 2) __builtin_prefetch(next[-2].slot);
    }
  }
  if (ahead < 3) {
    // The run ends within the pipeline's reach: start fetching the first
    // entry of the bucket the locator reads next.
    const std::uint32_t head = bucket_heads_[next_day_ & bucket_mask_];
    if (head != kNil) __builtin_prefetch(&slot_at(head));
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
  if (run_.empty() && !refill_run()) return kTimeInfinity;
  return time_of(run_.back());
}

void Simulator::run_before(Time bound) {
  stopped_ = false;
  while (!stopped_) {
    if (run_.empty() && !refill_run()) break;
    if (time_of(run_.back()) >= bound) break;
    dispatch(kTimeInfinity);
  }
  enter_setup_context();
}

}  // namespace pase::sim
