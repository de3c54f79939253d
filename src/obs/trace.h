// Zero-overhead-when-off tracing primitives.
//
// This is the bottom layer of the tree: it includes nothing from the rest of
// the codebase (only the standard library), so every other layer — sim, net,
// transport, core — may emit trace events without violating the layering
// bans in tools/check_includes.sh.
//
// The contract:
//   - Disabled at compile time (PASE_OBS_ENABLED=0): tracer() is a constexpr
//     nullptr, every emit site folds to nothing, and the subsystem costs
//     zero bytes and zero cycles.
//   - Disabled at run time (no buffer installed, the default): an emit site
//     costs one thread-local load plus one predictable not-taken branch —
//     no allocation, no virtual call, no change to simulation behaviour.
//   - Enabled: the harness preallocates one TraceBuffer per execution
//     domain, and sim::ParallelEngine installs it on whichever thread runs
//     that domain, for as long as it runs (a sequential run is one domain on
//     the caller's thread), then restores the thread's previous buffer.
//     Emitting writes one fixed-size record into the ring; the ring never
//     grows, so an enabled run stays allocation-free in steady state too.
//
// Determinism: records carry the executing event's time and order key
// (stamped once per event dispatch by the simulator through begin_event),
// which every execution mode computes the same way, so per-domain buffers
// from a parallel run merge into exactly the sequential emission order (see
// trace_sink.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#ifndef PASE_OBS_ENABLED
#define PASE_OBS_ENABLED 1
#endif

namespace pase::obs {

// --- Event taxonomy --------------------------------------------------------

// Category bitmask, used both for runtime filtering (TraceBuffer accepts a
// subset) and for --trace-filter parsing.
enum Category : std::uint32_t {
  kFlowCat = 1u << 0,      // flow lifecycle: start / first byte / complete
  kPacketCat = 1u << 1,    // per-packet fabric events: drops, ECN marks
  kArbCat = 1u << 2,       // PASE arbitration decisions (prio queue, Rref)
  kEndpointCat = 1u << 3,  // endpoint state samples: cwnd, alpha, rate
  kEngineCat = 1u << 4,    // engine self-profiling (worker-count dependent!)
  kAllCategories = (1u << 5) - 1,
};

enum class EventType : std::uint8_t {
  kFlowStart = 0,      // flow=id, v0=size_bytes, v1=deadline (0 = none)
  kFlowFirstByte,      // flow=id
  kFlowComplete,       // flow=id, v0=completion time - start time (FCT)
  kFlowDeadlineMiss,   // flow=id, v0=lateness (completion - absolute deadline)
  kPktDrop,            // flow=id, a=seq, b=queue id, v0=size_bytes
  kPktEcnMark,         // flow=id, a=seq, b=queue id, v0=size_bytes
  kArbDecision,        // flow=id, a=prio queue, b=half (0=src,1=rx), v0=Rref
  kCwndSample,         // flow=id, v0=cwnd (pkts), v1=srtt (s)
  kAlphaSample,        // flow=id, v0=alpha, v1=marked fraction this window
  kRateSample,         // flow=id, v0=rate_bps, a=paused (0/1)
  kEngineSample,       // a=domain, v0=events executed, v1=heap closures
  kParallelRound,      // a=rounds, b=cross posts, v0=mean horizon width (s),
                       // v1=drain rounds — all deltas for this window
};

// Category a type belongs to; drives accepts() at emit sites that batch
// several types.
std::uint32_t category_of(EventType type);
// Stable wire name, e.g. "flow.start", "pkt.drop" (JSONL `type` field).
const char* type_name(EventType type);
// "flow,packet" -> mask; "all"/"" -> kAllCategories. Unknown names are
// ignored (a mask of 0 disables everything). Also accepts "engine", etc.
std::uint32_t parse_categories(const std::string& spec);
// Canonical comma-separated list for a mask, in bit order.
std::string categories_string(std::uint32_t mask);

// --- Records ---------------------------------------------------------------

// One fixed-size, trivially-copyable record. `t` and `order` are stamped
// from the buffer's per-event context (begin_event); emit sites fill the
// rest. `order` is the executing event's order key (sim/simulator.h), or
// kNoOrder for records emitted outside any event. It never appears in
// serialized output — it only drives the deterministic merge.
struct TraceEvent {
  double t = 0.0;
  std::uint64_t order = 0;
  std::uint64_t flow = 0;
  double v0 = 0.0;
  double v1 = 0.0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  EventType type = EventType::kFlowStart;
};
static_assert(sizeof(TraceEvent) <= 64, "keep trace records cache-friendly");

inline constexpr std::uint64_t kNoOrder = ~std::uint64_t{0};

// --- Ring buffer -----------------------------------------------------------

// Single-producer ring of TraceEvents. Capacity is rounded up to a power of
// two and fully preallocated at construction; when the ring wraps, the
// oldest records are overwritten and dropped() counts what was lost. All
// methods are called from the one thread the buffer is installed on.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity, std::uint32_t categories);

  bool accepts(std::uint32_t category) const {
    return (categories_ & category) != 0;
  }
  std::uint32_t categories() const { return categories_; }

  // Stamps the context every subsequent emit() inherits: the executing
  // event's time and order key. Called once per event dispatch by the
  // simulator, so emit sites (queues, senders) need no clock access.
  void begin_event(double t, std::uint64_t order) {
    t_ = t;
    order_ = order;
  }

  // Records one event with the current context. The category check is
  // repeated here so direct callers stay correct; call sites that already
  // checked accepts() pay one redundant predictable branch.
  void emit(std::uint32_t category, EventType type, std::uint64_t flow,
            double v0 = 0.0, double v1 = 0.0, std::uint32_t a = 0,
            std::uint32_t b = 0) {
    if (!accepts(category)) return;
    TraceEvent& e = ring_[head_ & mask_];
    ++head_;
    e = TraceEvent{t_, order_, flow, v0, v1, a, b, type};
  }

  // Records one event at an explicit time with no order key (engine
  // self-profiling emitted between windows, end-of-run samples).
  void emit_at(double t, std::uint32_t category, EventType type,
               std::uint64_t flow, double v0 = 0.0, double v1 = 0.0,
               std::uint32_t a = 0, std::uint32_t b = 0) {
    if (!accepts(category)) return;
    TraceEvent& e = ring_[head_ & mask_];
    ++head_;
    e = TraceEvent{t, kNoOrder, flow, v0, v1, a, b, type};
  }

  std::size_t capacity() const { return ring_.size(); }
  // Records currently retained (<= capacity).
  std::size_t size() const {
    return head_ < ring_.size() ? static_cast<std::size_t>(head_)
                                : ring_.size();
  }
  // Records overwritten by ring wrap.
  std::uint64_t dropped() const {
    return head_ < ring_.size() ? 0 : head_ - ring_.size();
  }
  // i-th retained record, oldest first.
  const TraceEvent& at(std::size_t i) const {
    const std::uint64_t first = head_ < ring_.size() ? 0 : head_ - ring_.size();
    return ring_[(first + i) & mask_];
  }

 private:
  std::vector<TraceEvent> ring_;
  std::uint64_t mask_;
  std::uint64_t head_ = 0;  // total records ever emitted
  std::uint32_t categories_;
  double t_ = 0.0;
  std::uint64_t order_ = kNoOrder;
};

// --- Thread-local installation --------------------------------------------

#if PASE_OBS_ENABLED
namespace detail {
extern thread_local TraceBuffer* tls_buffer;
}
// The per-thread trace sink, or nullptr (the default). Emit sites branch on
// this; the engine installs a domain's buffer only for traced runs.
inline TraceBuffer* tracer() { return detail::tls_buffer; }
inline void install_tracer(TraceBuffer* buffer) {
  detail::tls_buffer = buffer;
}
#else
constexpr TraceBuffer* tracer() { return nullptr; }
inline void install_tracer(TraceBuffer*) {}
#endif

// --- Configuration ---------------------------------------------------------

// Carried by ScenarioConfig; plain data so the workload layer needs nothing
// beyond this header.
struct TraceConfig {
  bool enabled = false;
  std::uint32_t categories = kAllCategories;
  // Ring capacity per execution domain, in records (rounded up to a power
  // of two). 1<<18 records is ~14 MiB per domain.
  std::size_t buffer_capacity = std::size_t{1} << 18;
};

}  // namespace pase::obs
