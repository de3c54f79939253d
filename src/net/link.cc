#include "net/link.h"

#include <utility>

#include "sim/dcheck.h"
#include "sim/parallel.h"

namespace pase::net {

void Link::transmit(PacketPtr p) {
  PASE_DCHECK(!busy_ && "transmit on busy link");
  PASE_DCHECK(dst_ != nullptr && "link not connected");
  busy_ = true;
  const sim::Time tx = serialization_delay(p->size_bytes);
  bytes_sent_ += p->size_bytes;
  ++packets_sent_;
  busy_time_ += tx;
  // The hop stays two-stage — tx-done schedules the delivery — because
  // same-instant event ties are pervasive under ACK clocking (every event
  // time is a sum of identical serialization quanta from a common
  // busy-period base), and drawing the delivery's order key at transmit
  // time instead of tx-done time flips those ties, changing traces.
  // The in-flight packet rides in the event's arg word (released here,
  // re-wrapped in on_deliver), so ownership is never shared between events.
  sim_->schedule_raw(tx, &Link::on_tx_done, this, p.release());
}

void Link::on_tx_done(void* self, void* packet) {
  auto* link = static_cast<Link*>(self);
  // Delivery first: its key must come before (in this node's counter
  // order) anything scheduled by the idle kick below for the same instant.
  // On a cut link the delivery crosses domains through the mailbox; posting
  // here (before the idle kick) draws the same key the delivery would have
  // drawn locally.
  const sim::Time deliver_t = link->sim_->now() + link->delay_;
  if (link->cross_ == nullptr) [[likely]] {
    link->sim_->schedule_raw_at_node(deliver_t, link->dst_node_,
                                     &Link::on_deliver, link, packet);
  } else {
    link->cross_->post(link->cross_src_, link->cross_dst_, deliver_t,
                       link->dst_node_, &Link::on_deliver, link, packet);
  }
  link->busy_ = false;
  if (link->source_ != nullptr) link->source_->on_link_idle();
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
