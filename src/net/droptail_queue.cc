#include "net/droptail_queue.h"

#include <utility>

namespace pase::net {

bool DropTailQueue::do_enqueue(PacketPtr p) {
  if (q_.full()) {
    count_drop(*p);
    return false;
  }
  bytes_ += p->size_bytes;
  q_.push_back(std::move(p));
  return true;
}

PacketPtr DropTailQueue::do_dequeue() {
  if (q_.empty()) return nullptr;
  PacketPtr p = q_.pop_front();
  bytes_ -= p->size_bytes;
  return p;
}

PacketPtr DropTailQueue::do_pass(PacketPtr p) {
  if (q_.full()) {
    count_drop(*p);
    return nullptr;
  }
  if (!q_.empty()) [[unlikely]] {
    bytes_ += p->size_bytes;
    q_.push_back(std::move(p));
    p = q_.pop_front();
    bytes_ -= p->size_bytes;
  }
  return p;
}

}  // namespace pase::net
