// FIFO tail-drop queue with a packet-count capacity.
#pragma once

#include "net/packet_ring.h"
#include "net/queue.h"

namespace pase::net {

class DropTailQueue : public Queue {
 public:
  explicit DropTailQueue(std::size_t capacity_pkts) : q_(capacity_pkts) {}

  std::size_t len_packets() const override { return q_.size(); }
  std::size_t len_bytes() const override { return bytes_; }
  std::size_t buffer_bytes() const override { return q_.buffer_bytes(); }
  std::size_t capacity() const { return q_.capacity(); }

 protected:
  bool do_enqueue(PacketPtr p) override;
  PacketPtr do_dequeue() override;
  PacketPtr do_pass(PacketPtr p) override;

 private:
  // The ring's count and capacity sit on the queue's first cache line, so
  // do_pass/do_dequeue resolve the drop decision and the emptiness probe
  // there; the byte gauge trails (touched only when the ring holds packets).
  PacketRing q_;
  std::size_t bytes_ = 0;
};

}  // namespace pase::net
