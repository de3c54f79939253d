// Point-to-point unidirectional link: serialization at `rate_bps` followed by
// fixed propagation delay, delivering into the destination node. The
// delivery event executes at the destination node (see the order key in
// sim/simulator.h), whose id the link caches at connect.
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
      : sim_(&sim), rate_bps_(rate_bps), delay_(prop_delay),
        name_(std::move(name)) {
    register_event_fns();
  }

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void connect(Queue* source, Node* dst) {
    source_ = source;
    dst_ = dst;
    dst_node_ = static_cast<std::uint32_t>(dst->id());
    source->set_link(this);
  }

  bool idle() const { return !busy_; }
  double rate_bps() const { return rate_bps_; }
  sim::Time prop_delay() const { return delay_; }
  Node* destination() const { return dst_; }
  const std::string& name() const { return name_; }

  sim::Time serialization_delay(std::uint32_t bytes) const {
    return static_cast<double>(bytes) * 8.0 / rate_bps_;
  }

  // Begins serializing `p`; must only be called when idle. The hop is two
  // raw typed events — tx-done at now + serialization, which schedules the
  // delivery a propagation delay later — so a packet hop costs two
  // one-cache-line event writes and no closure construction.
  void transmit(PacketPtr p);

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
  // Marks the link as a cut edge: deliveries are posted into the destination
  // domain's mailbox, with the order key a local delivery would have drawn,
  // instead of being scheduled on the local calendar.
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
  // feeding queue's first line (the idle kick probes it). Pure prefetch —
  // no state is read beyond this link's own (already warm) fields.
  void register_event_fns() {
    sim_->set_prefetch_hint(&Link::on_tx_done, &Link::txdone_hint);
    sim_->set_prefetch_hint(&Link::on_deliver, &Link::deliver_hint);
    // Profiler labels and arg disposers ride the same per-domain
    // registration: a rebound link re-registers onto its domain clock, so
    // every engine can attribute its dispatches and free the packets its
    // pending hops (or mailbox records addressed to it) still carry when a
    // run stops, whether the run is sequential or partitioned.
    sim_->set_profile_label(&Link::on_tx_done, "link.tx_done");
    sim_->set_profile_label(&Link::on_deliver, "link.deliver");
    sim_->set_arg_disposer(&Link::on_tx_done, &Link::free_packet);
    sim_->set_arg_disposer(&Link::on_deliver, &Link::free_packet);
  }
  static void txdone_hint(void* self, void* arg);
  static void deliver_hint(void* self, void* arg);
  // Both hop events carry the in-flight packet in their arg word.
  static void free_packet(void* packet);

  // Hot fields first (Link has no vtable, so these start at offset 0):
  // on_tx_done and on_deliver — the two per-hop events — read sim_, delay_,
  // both endpoints, cross_, busy_ and the destination's id, all packed into
  // the first 64 bytes (tx-done names the delivery's node from dst_node_,
  // so it never touches the destination node itself). The stats
  // accumulators, which transmit touches once per serialization, the
  // cut-link plumbing and the name follow.
  sim::Simulator* sim_;
  double rate_bps_;
  sim::Time delay_;
  Queue* source_ = nullptr;
  Node* dst_ = nullptr;
  sim::ParallelEngine* cross_ = nullptr;  // non-null on cut links only
  bool busy_ = false;
  std::uint32_t dst_node_ = 0;  // dst_->id()
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  sim::Time busy_time_ = 0.0;
  int cross_src_ = 0;
  int cross_dst_ = 0;
  std::string name_;
};

// Queue's link-facing methods live here so call sites inline them: the
// enqueue -> try_send -> transmit chain runs once per switch hop. do_dequeue
// returns null when the discipline is empty (its contract), so probing
// emptiness and dequeueing is a single virtual call.
inline void Queue::try_send() {
  if (link_ == nullptr || !link_->idle()) return;
  PacketPtr next = do_dequeue();
  if (next == nullptr) return;
  link_->transmit(std::move(next));
}

inline void Queue::enqueue(PacketPtr p) {
  ++enqueues_;
  // Idle link: hand the packet straight to the discipline's pass-through.
  // Every entry point kicks try_send, so an idle link implies a drained
  // queue and do_pass usually skips the ring round-trip entirely; when the
  // queue is somehow non-empty, do_pass returns the head packet — exactly
  // what enqueue-then-try_send would have transmitted.
  if (link_ != nullptr && link_->idle()) [[likely]] {
    if (PacketPtr next = do_pass(std::move(p))) {
      link_->transmit(std::move(next));
    }
    return;
  }
  if (do_enqueue(std::move(p))) try_send();
}

inline void Queue::on_link_idle() { try_send(); }

}  // namespace pase::net
