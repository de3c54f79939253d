// Transport agent interfaces.
//
// A flow is served by a Sender on its source host and a Receiver on its
// destination host. Both are PacketSinks registered with the host demux.
#pragma once

#include <cstdint>
#include <functional>

#include "net/host.h"
#include "transport/flow.h"

namespace pase::transport {

class Sender : public net::PacketSink {
 public:
  Sender(net::Host& host, Flow flow) : host_(&host), flow_(flow) {}

  // Begins transmitting at the current simulation time.
  virtual void start() = 0;

  const Flow& flow() const { return flow_; }
  Flow& flow() { return flow_; }
  net::Host& host() { return *host_; }
  const net::Host& host() const { return *host_; }

  bool finished() const { return finished_; }
  // Set when the flow was killed before completing (PDQ early termination).
  bool terminated() const { return terminated_; }

  // Invoked once, when the last byte has been acknowledged (or the flow was
  // terminated early).
  std::function<void(Sender&)> on_complete;

  // Data packets this sender has put on the wire (incl. retransmissions).
  virtual std::uint64_t data_packets_sent() const { return 0; }
  // Loss-recovery probes sent (PASE/PDQ style); 0 for other protocols.
  virtual std::uint64_t probes_sent() const { return 0; }

 protected:
  void mark_finished() {
    if (finished_) return;
    finished_ = true;
    if (on_complete) on_complete(*this);
  }
  void mark_terminated() {
    terminated_ = true;
    mark_finished();
  }

 private:
  net::Host* host_;
  Flow flow_;
  bool finished_ = false;
  bool terminated_ = false;
};

}  // namespace pase::transport
