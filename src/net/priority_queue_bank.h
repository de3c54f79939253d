// Strict-priority bank of FIFO class queues with per-class ECN marking —
// the commodity-switch model PASE relies on (PRIO qdisc + RED, paper §3.3).
//
// - `num_classes` FIFO queues; class 0 has strict precedence.
// - A shared buffer pool of `capacity_pkts`: an arriving packet is tail-
//   dropped when the pool is full, regardless of class. Each class ring may
//   grow up to the whole pool but holds only its own high-water mark.
// - Each class marks CE on arrival when that class's instantaneous length is
//   at or above the marking threshold K.
// - Packets are classified by Packet::priority (clamped to the valid range).
#pragma once

#include <vector>

#include "net/packet_ring.h"
#include "net/queue.h"

namespace pase::net {

class PriorityQueueBank : public Queue {
 public:
  PriorityQueueBank(int num_classes, std::size_t capacity_pkts,
                    std::size_t mark_threshold_pkts);

  std::size_t len_packets() const override { return total_pkts_; }
  std::size_t len_bytes() const override { return total_bytes_; }
  std::size_t buffer_bytes() const override;
  int num_classes() const { return static_cast<int>(classes_.size()); }
  std::size_t class_len(int cls) const { return classes_[cls].size(); }
  std::uint64_t class_dequeues(int cls) const { return dequeues_[cls]; }

 protected:
  bool do_enqueue(PacketPtr p) override;
  PacketPtr do_dequeue() override;

 private:
  std::vector<PacketRing> classes_;  // each capped at the shared pool size
  std::vector<std::uint64_t> dequeues_;
  std::size_t capacity_;
  std::size_t threshold_;
  std::size_t total_pkts_ = 0;
  std::size_t total_bytes_ = 0;
};

}  // namespace pase::net
