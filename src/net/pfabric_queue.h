// pFabric switch port (Alizadeh et al., SIGCOMM'13).
//
// A small shared buffer with priority dropping and priority dequeueing:
// - Priority = Packet::remaining_size (fewer bytes remaining = higher
//   priority; control packets carry 0 and therefore always win).
// - On arrival to a full buffer, the lowest-priority packet (largest
//   remaining size, latest arrival breaking ties) is dropped — either the
//   arriving packet or a buffered one.
// - Dequeue picks the highest-priority packet, then actually sends the
//   *earliest arrived* packet of that packet's flow, pFabric's guard against
//   intra-flow reordering/starvation.
#pragma once

#include <cstdint>
#include <vector>

#include "net/queue.h"

namespace pase::net {

class PfabricQueue : public Queue {
 public:
  explicit PfabricQueue(std::size_t capacity_pkts) : capacity_(capacity_pkts) {}

  std::size_t len_packets() const override { return buf_.size(); }
  std::size_t len_bytes() const override { return bytes_; }
  std::size_t buffer_bytes() const override {
    return buf_.capacity() * sizeof(Entry);
  }
  std::size_t capacity() const { return capacity_; }

 protected:
  bool do_enqueue(PacketPtr p) override;
  PacketPtr do_dequeue() override;

 private:
  // Scan keys (priority, flow) are copied out of the packet at admission:
  // they are immutable while the packet is buffered, and keeping them in the
  // entry makes the per-dequeue priority scans walk contiguous memory
  // instead of dereferencing every buffered packet.
  struct Entry {
    PacketPtr pkt;
    std::uint64_t arrival;  // monotonic arrival index for tie-breaks
    double remaining;       // pkt->remaining_size at admission
    FlowId flow;            // pkt->flow
  };

  std::vector<Entry> buf_;
  std::size_t capacity_;
  std::size_t bytes_ = 0;
  std::uint64_t next_arrival_ = 0;
};

}  // namespace pase::net
