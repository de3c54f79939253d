#include <vector>

#include "net/droptail_queue.h"
#include "proto/builtin_profiles.h"
#include "proto/defaults.h"
#include "transport/pdq.h"

namespace pase::proto {

namespace {

// Owns the per-port and per-uplink PDQ rate controllers for one run.
class PdqControlPlane final : public ControlPlane {
 public:
  std::vector<std::unique_ptr<transport::PdqController>> controllers;
};

class PdqProfile final : public TransportProfile {
 public:
  std::optional<Protocol> protocol() const override { return Protocol::kPdq; }
  std::string_view name() const override { return "pdq"; }
  std::string_view display_name() const override { return "PDQ"; }

  // Arbitration is in the data plane: one controller per port/uplink, each
  // touched only by packets forwarded through its own node, so controllers
  // partition cleanly as long as each reads its node's domain clock.
  bool parallel_safe() const override { return true; }

  topo::QueueFactory make_queue_factory(
      const ProfileParams& params) const override {
    const std::size_t cap_override = params.queue_capacity_pkts;
    return [=](double) -> std::unique_ptr<net::Queue> {
      const std::size_t cap =
          cap_override ? cap_override : Table3::kPdqQueuePkts;
      return std::make_unique<net::DropTailQueue>(cap);
    };
  }

  std::unique_ptr<ControlPlane> make_control_plane(
      RunContext& ctx) const override {
    transport::PdqOptions po = ctx.params.pdq;
    po.rtt = ctx.base_rtt;
    // Early termination only makes sense when flows carry deadlines.
    if (!ctx.any_deadline) po.early_termination = false;
    auto cp = std::make_unique<PdqControlPlane>();
    // Controllers on every switch output port... Each controller reads the
    // clock of its node's domain (ctx.sim_of falls back to ctx.sim when the
    // context has no resolver).
    for (const auto& sw : ctx.topo.switches()) {
      auto cs = transport::PdqController::attach(ctx.sim_of(sw->id()), *sw, po);
      for (auto& c : cs) cp->controllers.push_back(std::move(c));
    }
    // ...and on every host uplink.
    for (const auto& h : ctx.topo.hosts()) {
      auto c = std::make_unique<transport::PdqController>(
          ctx.sim_of(h->id()), h->id(), h->nic_rate_bps(), po);
      transport::PdqController* raw = c.get();
      h->add_send_hook([raw](net::Packet& p) { raw->process(p); });
      cp->controllers.push_back(std::move(c));
    }
    return cp;
  }

  transport::Sender* make_sender(EndpointArena& arena, RunContext& ctx,
                                 const transport::Flow& flow,
                                 net::Host& src) const override {
    transport::PdqSenderOptions o;
    o.initial_rtt = ctx.base_rtt;
    o.probe_interval = ctx.params.pdq_probe_rtts * ctx.base_rtt;
    return arena.emplace<transport::PdqSender>(ctx.sim, src, flow, o);
  }
};

}  // namespace

std::unique_ptr<TransportProfile> make_pdq_profile() {
  return std::make_unique<PdqProfile>();
}

}  // namespace pase::proto
