#include "net/red_ecn_queue.h"

#include <utility>

namespace pase::net {

bool RedEcnQueue::do_enqueue(PacketPtr p) {
  if (q_.full()) {
    count_drop(*p);
    return false;
  }
  if (q_.size() >= threshold_ && p->ecn_capable) {
    p->ecn_ce = true;
    count_mark(*p);
  }
  bytes_ += p->size_bytes;
  q_.push_back(std::move(p));
  return true;
}

PacketPtr RedEcnQueue::do_dequeue() {
  if (q_.empty()) return nullptr;
  PacketPtr p = q_.pop_front();
  bytes_ -= p->size_bytes;
  return p;
}

PacketPtr RedEcnQueue::do_pass(PacketPtr p) {
  const std::size_t n = q_.size();
  if (q_.full()) {
    count_drop(*p);
    return nullptr;
  }
  if (n >= threshold_ && p->ecn_capable) {
    p->ecn_ce = true;
    count_mark(*p);
  }
  if (n > 0) [[unlikely]] {
    // Non-empty despite an idle link (possible only under exotic wiring):
    // fall back to FIFO order through the ring.
    bytes_ += p->size_bytes;
    q_.push_back(std::move(p));
    p = q_.pop_front();
    bytes_ -= p->size_bytes;
  }
  return p;
}

}  // namespace pase::net
