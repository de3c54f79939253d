// Slab-backed table of live flow endpoints.
//
// The scenario driver keeps one EndpointSlot per *concurrently live* flow
// instead of one heap sender/receiver pair per flow in the workload. Slots
// hold raw endpoint pointers whose storage lives in two
// proto::EndpointArena slabs: the profile's make_sender builds its sender
// into one, and the table builds a plain transport::Receiver into the other.
// Completed flows retire through a short quarantine that the scenario run
// manages, then their slot — arena bytes and slot index — is recycled for a
// future arrival, so memory tracks peak concurrency rather than total flow
// count.
//
// Single-writer: only the driver touches the table — from the one domain's
// events in a sequential run, or at the parallel engine's barriers otherwise.
// Endpoint *objects* run on their domain's clock as usual; with several
// domains the table only constructs and destroys them while every domain is
// quiescent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "proto/endpoint_arena.h"
#include "proto/transport_profile.h"
#include "stats/flow_stats.h"
#include "transport/agent.h"
#include "transport/receiver.h"

namespace pase::workload {

struct EndpointSlot {
  transport::Sender* sender = nullptr;
  transport::Receiver* receiver = nullptr;
  net::Host* src = nullptr;
  net::Host* dst = nullptr;
  net::FlowId flow_id = 0;
  std::uint32_t flow_index = 0;  // index into the pending-descriptor table
  // The flow's outcome while it is live: the only copy, folded into the
  // run's sink when the slot retires or the run ends.
  stats::FlowRecord record;
  bool sender_done = false;    // sender reported finish or termination
  bool done = false;           // record finalized (finished or terminated)
  bool queued_retire = false;  // already on a retire list
  bool in_use = false;
};

class EndpointTable {
 public:
  std::uint32_t acquire() {
    std::uint32_t s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
    } else {
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[s] = EndpointSlot{};
    slots_[s].in_use = true;
    ++live_;
    peak_live_ = std::max(peak_live_, live_);
    return s;
  }

  // Builds both endpoints for `flow` into slot `s`, receiver first. `sctx`
  // and `rctx` carry the domain clocks the sender/receiver must live on —
  // identical in sequential runs.
  void construct(std::uint32_t s, const proto::TransportProfile& profile,
                 proto::RunContext& sctx, proto::RunContext& rctx,
                 const transport::Flow& flow, net::Host& src, net::Host& dst) {
    EndpointSlot& slot = slots_[s];
    slot.src = &src;
    slot.dst = &dst;
    slot.flow_id = flow.id;
    slot.receiver =
        receiver_arena_.emplace<transport::Receiver>(rctx.sim, dst, flow);
    slot.sender = profile.make_sender(sender_arena_, sctx, flow, src);
  }

  // Runs the endpoint destructors and returns their storage to the arenas.
  // The slot stays marked in_use until release().
  void destroy(std::uint32_t s) {
    EndpointSlot& slot = slots_[s];
    sender_arena_.destroy(slot.sender);
    slot.sender = nullptr;
    receiver_arena_.destroy(slot.receiver);
    slot.receiver = nullptr;
  }

  // Returns the slot index to the free list.
  void release(std::uint32_t s) {
    PASE_CHECK(slots_[s].in_use && slots_[s].sender == nullptr);
    slots_[s].in_use = false;
    free_.push_back(s);
    --live_;
  }

  EndpointSlot& slot(std::uint32_t s) { return slots_[s]; }
  std::size_t size() const { return slots_.size(); }
  std::size_t peak_live() const { return peak_live_; }

  // Arena chunk allocations — constant in a warmed steady state of arrivals
  // and recycles.
  std::uint64_t slab_grow_events() const {
    return sender_arena_.grow_events() + receiver_arena_.grow_events();
  }

  // Destroys every still-live endpoint pair (run teardown). Callers that
  // need counters or records from live slots must scan before this.
  ~EndpointTable() {
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].in_use && slots_[s].sender != nullptr) destroy(s);
    }
  }

 private:
  proto::EndpointArena sender_arena_;
  proto::EndpointArena receiver_arena_;
  std::vector<EndpointSlot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace pase::workload
