// Shared fixtures for transport/core tests: a tiny two-host network, a
// fault-injection queue, and helpers to run a single flow to completion.
#pragma once

#include <functional>
#include <memory>

#include "net/droptail_queue.h"
#include "net/red_ecn_queue.h"
#include "topo/single_rack.h"
#include "transport/agent.h"
#include "transport/receiver.h"

namespace pase::test {

// Queue wrapper that drops packets matching a predicate (fault injection).
class FaultQueue : public net::Queue {
 public:
  using DropFn = std::function<bool(const net::Packet&)>;

  FaultQueue(std::unique_ptr<net::Queue> inner, DropFn should_drop)
      : inner_(std::move(inner)), should_drop_(std::move(should_drop)) {}

  std::size_t len_packets() const override { return inner_->len_packets(); }
  std::size_t len_bytes() const override { return inner_->len_bytes(); }
  std::size_t buffer_bytes() const override { return inner_->buffer_bytes(); }

  // Give the shared drop hook to every FaultQueue made by a factory.
  static topo::QueueFactory wrap_factory(topo::QueueFactory base,
                                         DropFn should_drop) {
    return [base = std::move(base),
            should_drop](double rate) -> std::unique_ptr<net::Queue> {
      return std::make_unique<FaultQueue>(base(rate), should_drop);
    };
  }

 protected:
  bool do_enqueue(net::PacketPtr p) override {
    if (should_drop_ && should_drop_(*p)) {
      count_drop(*p);
      return false;
    }
    // Delegate through the public entry so inner stats stay consistent, but
    // without the inner queue kicking a link it does not own.
    return inner_enqueue(std::move(p));
  }
  net::PacketPtr do_dequeue() override { return inner_dequeue(); }

 private:
  // Expose inner protected calls via a shim.
  struct Shim : net::Queue {
    using net::Queue::do_dequeue;
    using net::Queue::do_enqueue;
  };
  bool inner_enqueue(net::PacketPtr p) {
    return (inner_.get()->*(&Shim::do_enqueue))(std::move(p));
  }
  net::PacketPtr inner_dequeue() {
    return (inner_.get()->*(&Shim::do_dequeue))();
  }

  std::unique_ptr<net::Queue> inner_;
  DropFn should_drop_;
};

struct MiniNet {
  sim::Simulator sim;
  topo::SingleRack rack;

  net::Host& host(int i) { return *rack.topo->host(static_cast<std::size_t>(i)); }
  topo::Topology& topo() { return *rack.topo; }
};

// num_hosts hosts, 1 Gbps links, DropTail(100) unless a factory is given.
inline std::unique_ptr<MiniNet> make_mini_net(
    int num_hosts = 2, topo::QueueFactory factory = nullptr) {
  auto net = std::make_unique<MiniNet>();
  topo::SingleRackConfig cfg;
  cfg.num_hosts = num_hosts;
  if (!factory) {
    factory = [](double) { return std::make_unique<net::DropTailQueue>(100); };
  }
  net->rack = topo::build_single_rack(net->sim, cfg, factory);
  return net;
}

inline transport::Flow make_flow(MiniNet& n, int src, int dst,
                                 std::uint64_t bytes, double deadline = 0.0) {
  transport::Flow f;
  f.id = 1;
  f.src = n.host(src).id();
  f.dst = n.host(dst).id();
  f.size_bytes = bytes;
  f.start_time = 0.0;
  f.deadline = deadline;
  return f;
}

// Wires a sender/receiver pair into the host demux.
inline std::unique_ptr<transport::Receiver> wire_flow(
    MiniNet& n, transport::Sender& sender, const transport::Flow& flow) {
  auto* src = static_cast<net::Host*>(n.topo().node(flow.src));
  auto* dst = static_cast<net::Host*>(n.topo().node(flow.dst));
  auto receiver = std::make_unique<transport::Receiver>(n.sim, *dst, flow);
  src->register_flow(flow.id, &sender);
  dst->register_flow(flow.id, receiver.get());
  return receiver;
}

}  // namespace pase::test
