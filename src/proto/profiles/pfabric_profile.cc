#include "net/pfabric_queue.h"
#include "proto/builtin_profiles.h"
#include "proto/defaults.h"
#include "transport/pfabric.h"

namespace pase::proto {

namespace {

class PfabricProfile final : public TransportProfile {
 public:
  std::optional<Protocol> protocol() const override {
    return Protocol::kPfabric;
  }
  std::string_view name() const override { return "pfabric"; }
  std::string_view display_name() const override { return "pFabric"; }

  // Priority queues are per-port, rate control is per-host: parallel-safe.
  bool parallel_safe() const override { return true; }

  topo::QueueFactory make_queue_factory(
      const ProfileParams& params) const override {
    const std::size_t cap_override = params.queue_capacity_pkts;
    return [=](double) -> std::unique_ptr<net::Queue> {
      const std::size_t cap =
          cap_override ? cap_override : Table3::kPfabricQueuePkts;
      return std::make_unique<net::PfabricQueue>(cap);
    };
  }

  transport::Sender* make_sender(EndpointArena& arena, RunContext& ctx,
                                 const transport::Flow& flow,
                                 net::Host& src) const override {
    transport::WindowSenderOptions w =
        transport::PfabricSender::default_window_options();
    w.initial_rtt = ctx.base_rtt;
    return arena.emplace<transport::PfabricSender>(ctx.sim, src, flow, w);
  }
};

}  // namespace

std::unique_ptr<TransportProfile> make_pfabric_profile() {
  return std::make_unique<PfabricProfile>();
}

}  // namespace pase::proto
