// Queue discipline interface.
//
// A Queue feeds exactly one Link. The queue pushes when a packet arrives
// while the link is idle; a packet that has to wait arms the link's tx-done,
// which pulls the next packet when the serialization ends.
// Concrete disciplines implement do_enqueue (may drop/mark) and do_dequeue
// (chooses what to send next).
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "obs/trace.h"

namespace pase::net {

class Link;

class Queue {
 public:
  virtual ~Queue() = default;

  // Wired once during topology construction.
  void set_link(Link* link) { link_ = link; }
  Link* link() const { return link_; }

  // Entry point from the upstream node. May drop the packet (discipline
  // decision); transmits it at once if the link is idle, else arms the
  // link's tx-done. Defined inline in link.h (it needs the Link
  // definition), which every call site already includes.
  void enqueue(PacketPtr p);

  // Called by the link's tx-done, which runs only while a packet waits:
  // transmits the next packet, and re-arms the tx-done if more wait.
  void on_link_idle();

  virtual std::size_t len_packets() const = 0;
  virtual std::size_t len_bytes() const = 0;
  bool empty() const { return len_packets() == 0; }
  // Bytes of packet storage the discipline holds, occupied or not (the
  // mem.queue_buffer_bytes gauge): it tracks the queue's high-water mark,
  // not its capacity.
  virtual std::size_t buffer_bytes() const = 0;

  std::uint64_t drops() const { return drops_; }
  std::uint64_t marks() const { return marks_; }
  std::uint64_t enqueues() const { return enqueues_; }

  // Stable identity for trace records ("which queue dropped this packet").
  // Assigned during harness/telemetry setup (obs::label_fabric_queues);
  // queues outside a labeled topology keep id 0.
  void set_trace_id(std::uint32_t id) { trace_id_ = id; }
  std::uint32_t trace_id() const { return trace_id_; }

 protected:
  // Returns false if the packet was dropped (implementation disposes of it).
  virtual bool do_enqueue(PacketPtr p) = 0;
  // Must return non-null iff len_packets() > 0.
  virtual PacketPtr do_dequeue() = 0;
  // Arrival while the link is idle: returns the packet the link should
  // serialize next, or null if the discipline dropped it. The default —
  // push then immediately pop — is correct for any discipline; FIFO
  // disciplines override it to skip the ring round-trip when empty (the
  // common case, since an idle link implies a drained queue). Overrides
  // must apply the same drop/mark decisions as do_enqueue and must return
  // the head packet, not the arrival, whenever the queue is non-empty.
  virtual PacketPtr do_pass(PacketPtr p) {
    if (do_enqueue(std::move(p))) return do_dequeue();
    return nullptr;
  }

  // Disciplines report every drop/mark with the victim packet so traced
  // runs capture flow, sequence and queue identity. Without an installed
  // tracer these cost one thread-local load beyond the counter bump.
  void count_drop(const Packet& p) {
    ++drops_;
    if (obs::TraceBuffer* tb = obs::tracer(); tb != nullptr) [[unlikely]] {
      tb->emit(obs::kPacketCat, obs::EventType::kPktDrop, p.flow,
               static_cast<double>(p.size_bytes), 0.0, p.seq, trace_id_);
    }
  }
  void count_mark(const Packet& p) {
    ++marks_;
    if (obs::TraceBuffer* tb = obs::tracer(); tb != nullptr) [[unlikely]] {
      tb->emit(obs::kPacketCat, obs::EventType::kPktEcnMark, p.flow,
               static_cast<double>(p.size_bytes), 0.0, p.seq, trace_id_);
    }
  }

 private:
  Link* link_ = nullptr;
  std::uint64_t drops_ = 0;
  std::uint64_t marks_ = 0;
  std::uint64_t enqueues_ = 0;
  std::uint32_t trace_id_ = 0;
};

}  // namespace pase::net
