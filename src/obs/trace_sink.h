// Merged trace container and serialization sinks.
//
// A run produces one TraceBuffer per execution domain; merge_buffers folds
// them into a single Trace in deterministic order: records sort by time,
// with same-time ties broken by the order key of the event that emitted
// them. Every execution mode computes the same keys and executes each
// domain's events in (time, key) order, so the merged trace of a 4-worker
// run is byte-identical to the sequential one.
//
// Two sinks:
//   - JSONL: schema-versioned, one event per line, first line is a header
//     object ({"schema":"pase-trace","version":1,...}). Validated by
//     tools/check_trace_schema.py.
//   - Chrome trace_event JSON for chrome://tracing / about://tracing:
//     flow lifetimes as async b/e pairs, drops and marks as instants,
//     cwnd/rate/occupancy as counter series.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace pase::obs {

inline constexpr const char* kTraceSchemaName = "pase-trace";
inline constexpr int kTraceSchemaVersion = 1;

struct Trace {
  std::vector<TraceEvent> events;  // merged, deterministic order
  // Queue trace_id -> human-readable name (e.g. "h0.up", "tor->h2");
  // resolved by the sinks. Records referencing an id outside this table
  // serialize as "q<id>".
  std::vector<std::string> queue_names;
  std::uint32_t categories = kAllCategories;
  std::uint64_t dropped = 0;  // records lost to ring wrap, summed

  // Serialized forms; deterministic (shortest round-trip doubles, fixed
  // field order).
  std::string to_jsonl() const;
  std::string to_chrome_json() const;
  bool write_jsonl(const std::string& path) const;
  bool write_chrome_json(const std::string& path) const;
};

// Merges per-domain buffers by (time, order key). Records of one event, and
// records without an order key, keep concatenation order; the latter sort
// after every event's records at their time.
Trace merge_buffers(const std::vector<const TraceBuffer*>& buffers);

}  // namespace pase::obs
