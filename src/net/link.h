// Point-to-point unidirectional link: serialization at `rate_bps` followed by
// fixed propagation delay, delivering into the destination node. The
// delivery event executes at the destination node (see the order key in
// sim/simulator.h), whose id the link caches at connect.
//
// A hop through an idle link is one event. `transmit` schedules the
// delivery at (now + serialization) + delay and reserves the order key a
// tx-done at the serialization end would have drawn; the tx-done itself
// becomes an event only when a packet waits in the queue behind the
// serialization (see link.cc for why the order is unchanged).
#pragma once

#include <cstdint>
#include <string>

#include "net/node.h"
#include "net/packet.h"
#include "net/queue.h"
#include "sim/simulator.h"

namespace pase::sim {
class ParallelEngine;
}

namespace pase::net {

class Link {
 public:
  Link(sim::Simulator& sim, double rate_bps, sim::Time prop_delay,
       std::string name = {})
      : sim_(&sim), delay_(prop_delay), rate_bps_(rate_bps),
        name_(std::move(name)) {
    register_event_fns();
  }

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void connect(Queue* source, Node* dst) {
    // A packet waiting in the queue would have no tx-done to send it.
    PASE_DCHECK(source->empty() && "queue fed before its link connected");
    source_ = source;
    dst_ = dst;
    dst_node_ = static_cast<std::uint32_t>(dst->id());
    source->set_link(this);
  }

  // True once the current serialization has ended at the executing point
  // of the event order: past its end time, or at it with the executing
  // event at or after the reserved tx-done key (the tx-done itself sees an
  // idle link). Outside any event (key 0) at the end instant, the link is
  // idle unless its tx-done is still pending: that event owns the hand-off
  // to the next waiting packet.
  bool idle() const {
    const sim::Time now = sim_->now();
    if (now != busy_until_) [[likely]] return now > busy_until_;
    const std::uint64_t key = sim_->current_key();
    return key != 0 ? key >= tx_key_ : !tx_done_armed_;
  }
  double rate_bps() const { return rate_bps_; }
  sim::Time prop_delay() const { return delay_; }
  Node* destination() const { return dst_; }
  const std::string& name() const { return name_; }

  sim::Time serialization_delay(std::uint32_t bytes) const {
    return static_cast<double>(bytes) * 8.0 / rate_bps_;
  }

  // Begins serializing `p`; must only be called when idle. Schedules the
  // packet's delivery (one raw typed event, no closure) and reserves the
  // key of the tx-done that would hand the link to a waiting packet.
  void transmit(PacketPtr p);

  // Makes the reserved tx-done a calendar event; the queue calls it when a
  // packet waits behind the current serialization. Idempotent.
  void arm_tx_done() {
    if (tx_done_armed_) return;
    PASE_DCHECK(!idle() && "tx-done armed on an idle link");
    tx_done_armed_ = true;
    sim_->schedule_with_key(busy_until_, tx_key_, tx_tag_, &Link::on_tx_done,
                            this);
  }

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  // Utilization helper: busy time accumulated so far.
  sim::Time busy_time() const { return busy_time_; }

  // --- Parallel-partition wiring (setup time only) -----------------------
  // Moves the link's event scheduling onto the domain clock of its
  // transmitting node. Must be called before any packet is in flight.
  void bind_domain(sim::Simulator& s) {
    sim_ = &s;
    register_event_fns();
  }
  // Marks the link as a cut edge: transmit posts each delivery into the
  // destination domain's mailbox, with the order key a local delivery would
  // have drawn, instead of scheduling it on the local calendar.
  void set_cross_post(sim::ParallelEngine* engine, int src_domain,
                      int dst_domain) {
    cross_ = engine;
    cross_src_ = src_domain;
    cross_dst_ = dst_domain;
  }

 private:
  // Typed-event trampolines (sim::RawFn signature).
  static void on_tx_done(void* self, void* arg);
  static void on_deliver(void* self, void* packet);

  // Engine prefetch helpers (see Simulator::set_prefetch_hint): one event
  // ahead of a delivery, pull the destination node's first line (its route
  // or demux state rides there); one event ahead of a tx-done, pull the
  // feeding queue's first line (the tx-done dequeues from it). Pure
  // prefetch — no state is read beyond this link's own (already warm)
  // fields.
  void register_event_fns() {
    sim_->set_prefetch_hint(&Link::on_tx_done, &Link::txdone_hint);
    sim_->set_prefetch_hint(&Link::on_deliver, &Link::deliver_hint);
    // Profiler labels and arg disposers ride the same per-domain
    // registration: a rebound link re-registers onto its domain clock, so
    // every engine can attribute its dispatches and free the packets its
    // pending deliveries (or mailbox records addressed to it) still carry
    // when a run stops, whether the run is sequential or partitioned. A
    // tx-done carries no packet, so it has no disposer.
    sim_->set_profile_label(&Link::on_tx_done, "link.tx_done");
    sim_->set_profile_label(&Link::on_deliver, "link.deliver");
    sim_->set_arg_disposer(&Link::on_deliver, &Link::free_packet);
  }
  static void txdone_hint(void* self, void* arg);
  static void deliver_hint(void* self, void* arg);
  // A delivery carries the in-flight packet in its arg word.
  static void free_packet(void* packet);

  // Hot fields first (Link has no vtable, so these start at offset 0): the
  // idle probe, transmit's scheduling, on_deliver and on_tx_done read sim_,
  // delay_, both endpoints, cross_, the serialization's end and reserved
  // key, and the two node ids, all packed into the first 64 bytes
  // (transmit names the delivery's node from dst_node_, so it never
  // touches the destination node itself). The rate and the stats
  // accumulators, which transmit touches once per serialization, the
  // armed flag, the cut-link plumbing and the name follow.
  sim::Simulator* sim_;
  sim::Time delay_;
  Queue* source_ = nullptr;
  Node* dst_ = nullptr;
  sim::ParallelEngine* cross_ = nullptr;  // non-null on cut links only
  // The current serialization's end and the key reserved for its tx-done
  // (-inf: nothing serialized yet).
  sim::Time busy_until_ = -sim::kTimeInfinity;
  std::uint64_t tx_key_ = 0;
  std::uint32_t tx_tag_ = 0;    // tag of the node transmit ran at
  std::uint32_t dst_node_ = 0;  // dst_->id()
  double rate_bps_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  sim::Time busy_time_ = 0.0;
  bool tx_done_armed_ = false;  // the reserved tx-done is on the calendar
  int cross_src_ = 0;
  int cross_dst_ = 0;
  std::string name_;
};

// Queue's link-facing methods live here so call sites inline them: the
// enqueue -> transmit chain runs once per switch hop.
inline void Queue::enqueue(PacketPtr p) {
  ++enqueues_;
  // Idle link: hand the packet straight to the discipline's pass-through.
  // A packet that waits arms the link's tx-done, which drains the queue
  // before the link goes idle, so an idle link implies a drained queue and
  // do_pass skips the ring round-trip.
  if (link_ != nullptr && link_->idle()) [[likely]] {
    if (PacketPtr next = do_pass(std::move(p))) {
      link_->transmit(std::move(next));
    }
    return;
  }
  // Busy link: the packet waits for the tx-done (an unlinked queue just
  // buffers).
  if (do_enqueue(std::move(p)) && link_ != nullptr) link_->arm_tx_done();
}

// do_dequeue returns null when the discipline is empty (its contract), so
// probing emptiness and dequeueing is a single virtual call.
inline void Queue::on_link_idle() {
  PacketPtr next = do_dequeue();
  PASE_DCHECK(next != nullptr && "tx-done with no packet waiting");
  if (next == nullptr) return;
  link_->transmit(std::move(next));
  if (!empty()) link_->arm_tx_done();
}

}  // namespace pase::net
