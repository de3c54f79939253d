#include "net/link.h"

#include <utility>

#include "sim/dcheck.h"
#include "sim/parallel.h"

namespace pase::net {

void Link::transmit(PacketPtr p) {
  PASE_DCHECK(idle() && "transmit on busy link");
  PASE_DCHECK(dst_ != nullptr && "link not connected");
  const sim::Time tx = serialization_delay(p->size_bytes);
  bytes_sent_ += p->size_bytes;
  ++packets_sent_;
  busy_time_ += tx;
  // One event per idle hop. The tx-done's key and node are drawn here,
  // exactly as scheduling it at the serialization end would draw them, and
  // the delivery's key right after; the tx-done becomes an event only when
  // a packet waits (arm_tx_done). Drawing the delivery's key here rather
  // than in a tx-done can only reorder it against keys this node draws in
  // between for the same instant and age. With one propagation delay on
  // every link and every serialization shorter than it (true of every
  // built-in topology), those are deliveries of this node's later
  // transmits, which keep transmit order either way, so same-instant ties
  // order as if a tx-done had scheduled the delivery. With mixed per-link
  // delays, such ties may order by transmit instead: still deterministic
  // and partition-invariant, but no golden covers that case.
  const sim::Time end = sim_->now() + tx;
  busy_until_ = end;
  tx_key_ = sim_->next_key(end);
  tx_tag_ = sim_->current_tag();
  // The in-flight packet rides in the delivery's arg word (released here,
  // re-wrapped in on_deliver), so ownership is never shared between events.
  // On a cut link the delivery crosses domains through the mailbox; posting
  // draws the same key the delivery would have drawn locally.
  const sim::Time deliver_t = end + delay_;
  if (cross_ == nullptr) [[likely]] {
    sim_->schedule_raw_at_node(deliver_t, dst_node_, &Link::on_deliver, this,
                               p.release());
  } else {
    cross_->post(cross_src_, cross_dst_, deliver_t, dst_node_,
                 &Link::on_deliver, this, p.release());
  }
}

void Link::on_tx_done(void* self, void* /*arg*/) {
  auto* link = static_cast<Link*>(self);
  // The executing key is the reserved one, so idle() now holds.
  link->tx_done_armed_ = false;
  link->source_->on_link_idle();
}

void Link::txdone_hint(void* self, void* arg) {
  auto* link = static_cast<Link*>(self);
  if (link->source_ != nullptr) __builtin_prefetch(link->source_);
  (void)arg;
}

void Link::deliver_hint(void* self, void* arg) {
  auto* link = static_cast<Link*>(self);
  if (link->dst_ != nullptr) __builtin_prefetch(link->dst_);
  (void)arg;
}

void Link::free_packet(void* packet) {
  PacketPool::local().release(static_cast<Packet*>(packet));
}

void Link::on_deliver(void* self, void* packet) {
  static_cast<Link*>(self)->dst_->receive(
      PacketPtr(static_cast<Packet*>(packet)));
}

}  // namespace pase::net
