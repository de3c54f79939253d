// DCTCP-style ECN marking queue.
//
// Tail-drop FIFO that sets the CE codepoint on arriving packets whenever the
// instantaneous queue length is at or above the marking threshold K — the
// degenerate RED configuration DCTCP prescribes (min_th = max_th = K, mark on
// instantaneous length).
#pragma once

#include <cstdint>

#include "net/packet_ring.h"
#include "net/queue.h"

namespace pase::net {

class RedEcnQueue : public Queue {
 public:
  RedEcnQueue(std::size_t capacity_pkts, std::size_t mark_threshold_pkts)
      : threshold_(static_cast<std::uint32_t>(mark_threshold_pkts)),
        q_(capacity_pkts) {}

  std::size_t len_packets() const override { return q_.size(); }
  std::size_t len_bytes() const override { return bytes_; }
  std::size_t buffer_bytes() const override { return q_.buffer_bytes(); }
  std::size_t capacity() const { return q_.capacity(); }
  std::size_t mark_threshold() const { return threshold_; }

 protected:
  bool do_enqueue(PacketPtr p) override;
  PacketPtr do_dequeue() override;
  PacketPtr do_pass(PacketPtr p) override;

 private:
  // The threshold (32-bit: queue capacities are small) and the ring's count
  // and capacity lead, so the idle-link pass-through (do_pass) and the
  // idle-kick emptiness probe (do_dequeue) resolve entirely against the
  // queue's first cache line — counters, threshold and ring indices all pack
  // into the base class's tail padding plus the first few derived bytes. The
  // byte gauge trails: it is only touched when the ring actually holds
  // packets.
  std::uint32_t threshold_;
  PacketRing q_;
  std::size_t bytes_ = 0;
};

}  // namespace pase::net
