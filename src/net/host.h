// End host: one uplink port toward its ToR switch plus a demux that hands
// received packets to per-flow transport agents and control traffic to the
// host-local control handler (PASE endpoint arbitrators).
#pragma once

#include <functional>
#include <memory>

#include "net/flow_demux.h"
#include "net/link.h"
#include "net/node.h"
#include "net/queue.h"

namespace pase::net {

// Anything that consumes packets delivered to a host: senders take ACKs,
// receivers take data.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(PacketPtr p) = 0;
};

class Host : public Node {
 public:
  Host(NodeId id, std::string name) : Node(id, std::move(name)) {}

  void attach_uplink(std::unique_ptr<Queue> queue, std::unique_ptr<Link> link,
                     Node* tor);

  // Injects a locally generated packet into the network.
  void send(PacketPtr p);

  // Demux registration. Data/probe packets go to the flow's receiver sink;
  // ACKs go to the flow's sender sink. A flow's sender and receiver live on
  // different hosts, so one table per host suffices. The table is sized by
  // the flows registered right now, not by the id range (see FlowDemux).
  void register_flow(FlowId flow, PacketSink* sink) { flows_.insert(flow, sink); }
  void unregister_flow(FlowId flow) { flows_.erase(flow); }
  // Bytes the demux table holds (the mem.demux_bytes gauge).
  std::size_t demux_bytes() const { return flows_.bytes(); }

  using ControlHandler = std::function<void(PacketPtr)>;
  void set_control_handler(ControlHandler h) { control_ = std::move(h); }

  using ForwardHook = std::function<void(Packet&)>;
  void add_send_hook(ForwardHook hook) { send_hooks_.push_back(std::move(hook)); }

  void receive(PacketPtr p) override;

  Queue& uplink_queue() { return *uplink_queue_; }
  Link& uplink() { return *uplink_; }
  double nic_rate_bps() const { return uplink_ ? uplink_->rate_bps() : 0.0; }

 private:
  // Demux first: its table header lands on the host's first cache line
  // (after Node's slim header), so receive() resolves the sink with one
  // object line plus the probed slot itself.
  FlowDemux flows_;
  std::unique_ptr<Queue> uplink_queue_;
  std::unique_ptr<Link> uplink_;
  std::vector<ForwardHook> send_hooks_;
  ControlHandler control_;
};

}  // namespace pase::net
