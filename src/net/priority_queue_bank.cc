#include "net/priority_queue_bank.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pase::net {

PriorityQueueBank::PriorityQueueBank(int num_classes,
                                     std::size_t capacity_pkts,
                                     std::size_t mark_threshold_pkts)
    : dequeues_(static_cast<std::size_t>(num_classes), 0),
      capacity_(capacity_pkts),
      threshold_(mark_threshold_pkts) {
  assert(num_classes >= 1);
  classes_.reserve(static_cast<std::size_t>(num_classes));
  for (int i = 0; i < num_classes; ++i) classes_.emplace_back(capacity_pkts);
}

bool PriorityQueueBank::do_enqueue(PacketPtr p) {
  if (total_pkts_ >= capacity_) {
    count_drop(*p);
    return false;
  }
  const int cls = std::clamp(p->priority, 0, num_classes() - 1);
  auto& q = classes_[static_cast<std::size_t>(cls)];
  if (q.size() >= threshold_ && p->ecn_capable) {
    p->ecn_ce = true;
    count_mark(*p);
  }
  total_bytes_ += p->size_bytes;
  ++total_pkts_;
  q.push_back(std::move(p));
  return true;
}

std::size_t PriorityQueueBank::buffer_bytes() const {
  std::size_t b = 0;
  for (const PacketRing& q : classes_) b += q.buffer_bytes();
  return b;
}

PacketPtr PriorityQueueBank::do_dequeue() {
  for (std::size_t cls = 0; cls < classes_.size(); ++cls) {
    auto& q = classes_[cls];
    if (q.empty()) continue;
    PacketPtr p = q.pop_front();
    --total_pkts_;
    total_bytes_ -= p->size_bytes;
    ++dequeues_[cls];
    return p;
  }
  return nullptr;
}

}  // namespace pase::net
