// Slab-backed table of live flow endpoints.
//
// The scenario driver keeps one EndpointSlot per *concurrently live* flow
// instead of one heap sender/receiver pair per flow in the workload. Slots
// hold raw endpoint pointers whose storage lives in two typed
// proto::EndpointArena slabs (sized from the profile's EndpointLayout) or,
// for profiles that do not advertise a layout, on the heap. Completed flows
// retire through a short quarantine managed by the driver, then their slot —
// arena bytes, SoA column row, and slot index — is recycled for a future
// arrival, so memory tracks peak concurrency rather than total flow count.
//
// Single-writer: only the driver touches the table — from the one domain's
// events in a sequential run, or at the parallel engine's barriers otherwise.
// Endpoint *objects* run on their domain's clock as usual; with several
// domains the table only constructs and destroys them while every domain is
// quiescent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "proto/endpoint_arena.h"
#include "proto/transport_profile.h"
#include "stats/flow_stats.h"
#include "transport/agent.h"
#include "transport/flow_columns.h"
#include "transport/receiver.h"

namespace pase::workload {

struct EndpointSlot {
  transport::Sender* sender = nullptr;
  transport::Receiver* receiver = nullptr;
  void* sender_mem = nullptr;    // arena slot backing `sender` (null = heap)
  void* receiver_mem = nullptr;  // arena slot backing `receiver` (null = heap)
  net::Host* src = nullptr;
  net::Host* dst = nullptr;
  net::FlowId flow_id = 0;
  std::uint32_t flow_index = 0;  // index into the pending-descriptor table
  // The flow's outcome. In exact-stats mode this mirrors into the run's
  // records vector; in streaming mode it is the only copy and is folded into
  // the StreamingFlowStats when the slot retires.
  stats::FlowRecord record;
  bool sender_done = false;    // sender reported finish or termination
  bool done = false;           // record finalized (finished or terminated)
  bool queued_retire = false;  // already on a retire list
  bool in_use = false;
};

class EndpointTable {
 public:
  void init(const proto::TransportProfile& profile) {
    layout_ = profile.endpoint_layout();
    if (layout_.valid()) {
      sender_arena_.init(layout_.sender_size, layout_.sender_align);
      receiver_arena_.init(layout_.receiver_size, layout_.receiver_align);
    }
  }

  bool slab() const { return layout_.valid(); }

  std::uint32_t acquire() {
    std::uint32_t s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
    } else {
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      columns_.resize(slots_.size());
    }
    slots_[s] = EndpointSlot{};
    slots_[s].in_use = true;
    ++live_;
    peak_live_ = std::max(peak_live_, live_);
    return s;
  }

  // Builds both endpoints for `flow` into slot `s` (receiver first, like the
  // heap path always did) and binds the sender to the slot's SoA row. `sctx`
  // and `rctx` carry the domain clocks the sender/receiver must live on —
  // identical in sequential runs.
  void construct(std::uint32_t s, const proto::TransportProfile& profile,
                 proto::RunContext& sctx, proto::RunContext& rctx,
                 const transport::Flow& flow, net::Host& src, net::Host& dst) {
    EndpointSlot& slot = slots_[s];
    slot.src = &src;
    slot.dst = &dst;
    slot.flow_id = flow.id;
    if (slab()) {
      slot.receiver_mem = receiver_arena_.acquire();
      slot.receiver = profile.construct_receiver(slot.receiver_mem, rctx, flow,
                                                 dst);
      slot.sender_mem = sender_arena_.acquire();
      slot.sender = profile.construct_sender(slot.sender_mem, sctx, flow, src);
    } else {
      slot.receiver = profile.make_receiver(rctx, flow, dst).release();
      slot.sender = profile.make_sender(sctx, flow, src).release();
    }
    columns_.reset_row(s, static_cast<double>(flow.size_bytes), flow.deadline);
    slot.sender->bind_state_columns(&columns_, s);
  }

  // Runs the endpoint destructors and returns their storage to the arenas
  // (or the heap). The slot stays marked in_use until release().
  void destroy(std::uint32_t s) {
    EndpointSlot& slot = slots_[s];
    if (slot.sender_mem != nullptr) {
      slot.sender->~Sender();
      sender_arena_.release(slot.sender_mem);
    } else {
      delete slot.sender;
    }
    slot.sender = nullptr;
    slot.sender_mem = nullptr;
    if (slot.receiver_mem != nullptr) {
      slot.receiver->~Receiver();
      receiver_arena_.release(slot.receiver_mem);
    } else {
      delete slot.receiver;
    }
    slot.receiver = nullptr;
    slot.receiver_mem = nullptr;
  }

  // Returns the slot index (and its SoA row) to the free list.
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
  // and recycles (0 for heap-fallback profiles, where the analogue is the
  // allocator's own behavior).
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
  proto::EndpointLayout layout_;
  proto::EndpointArena sender_arena_;
  proto::EndpointArena receiver_arena_;
  std::vector<EndpointSlot> slots_;
  std::vector<std::uint32_t> free_;
  transport::FlowStateColumns columns_;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace pase::workload
