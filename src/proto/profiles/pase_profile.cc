#include <stdexcept>
#include <string>

#include "core/arbitration_plane.h"
#include "core/pase_sender.h"
#include "net/priority_queue_bank.h"
#include "proto/builtin_profiles.h"
#include "proto/defaults.h"
#include "proto/profiles/ecn_window_profile.h"

namespace pase::proto {

namespace {

class PaseControlPlane final : public ControlPlane {
 public:
  PaseControlPlane(const core::ArbitrationPlane::SimResolver& sim_of,
                   core::PlaneTopology pt, const core::PaseConfig& cfg)
      : plane(sim_of, std::move(pt), cfg) {}

  const core::ControlPlaneStats* stats() const override {
    return &plane.stats();
  }

  std::uint32_t setup_events() const override { return plane.setup_events(); }

  void append_timer_nodes(std::vector<net::NodeId>& out) const override {
    plane.append_timer_nodes(out);
  }

  core::ArbitrationPlane plane;
};

class PaseProfile final : public TransportProfile {
 public:
  std::optional<Protocol> protocol() const override { return Protocol::kPase; }
  std::string_view name() const override { return "pase"; }
  std::string_view display_name() const override { return "PASE"; }

  // The arbitration plane is sharded by arbitrating node: every handler
  // reads/writes only the state owned by the node it runs at, and
  // arbitration messages are real packets riding the fabric (and the cut
  // mailboxes in partitioned runs). See arbitration_plane.h.
  bool parallel_safe() const override { return true; }

  void validate(const ProfileParams& params) const override {
    if (params.pase.num_queues < 2) {
      throw std::invalid_argument(
          "pase: num_queues must be at least 2 (one data class plus the "
          "background class), got " +
          std::to_string(params.pase.num_queues));
    }
    check_mark_fits_capacity(params, Table3::kPaseQueuePkts, name());
  }

  topo::QueueFactory make_queue_factory(
      const ProfileParams& params) const override {
    const std::size_t cap_override = params.queue_capacity_pkts;
    const std::size_t mark_override = params.mark_threshold_pkts;
    const int num_queues = params.pase.num_queues;
    return [=](double rate) -> std::unique_ptr<net::Queue> {
      const std::size_t cap =
          cap_override ? cap_override : Table3::kPaseQueuePkts;
      const std::size_t k =
          mark_override ? mark_override : mark_threshold_for(rate);
      return std::make_unique<net::PriorityQueueBank>(num_queues, cap, k);
    };
  }

  std::unique_ptr<ControlPlane> make_control_plane(
      RunContext& ctx) const override {
    core::PaseConfig& pc = ctx.params.pase;
    pc.rtt = ctx.base_rtt;
    pc.arbitration_period = ctx.params.arbitration_period_rtts * ctx.base_rtt;
    // Deadline workloads arbitrate EDF; size workloads SJF.
    if (ctx.any_deadline &&
        pc.criterion == core::Criterion::kShortestFlowFirst) {
      pc.criterion = core::Criterion::kEarliestDeadlineFirst;
    }
    // Each shard's arbitrators and timers live on the owning node's domain
    // clock; a context without a resolver puts every node on ctx.sim.
    sim::Simulator& seq = ctx.sim;
    auto sim_of = ctx.sim_resolver
                      ? ctx.sim_resolver
                      : [&seq](net::NodeId) -> sim::Simulator& { return seq; };
    return std::make_unique<PaseControlPlane>(
        sim_of, core::PlaneTopology::from(ctx.built), pc);
  }

  std::unique_ptr<transport::Sender> make_sender(
      RunContext& ctx, const transport::Flow& flow,
      net::Host& src) const override {
    return std::make_unique<core::PaseSender>(ctx.sim, src, flow,
                                              plane_of(ctx));
  }

  EndpointLayout endpoint_layout() const override {
    return {.sender_size = sizeof(core::PaseSender),
            .sender_align = alignof(core::PaseSender)};
  }

  transport::Sender* construct_sender(void* mem, RunContext& ctx,
                                      const transport::Flow& flow,
                                      net::Host& src) const override {
    return new (mem) core::PaseSender(ctx.sim, src, flow, plane_of(ctx));
  }

  void before_flow_start(RunContext& ctx, transport::Sender&,
                         transport::Receiver& receiver) const override {
    plane_of(ctx).attach_receiver(receiver);
  }

 private:
  // ctx.control is always the PaseControlPlane this profile created.
  static core::ArbitrationPlane& plane_of(RunContext& ctx) {
    return static_cast<PaseControlPlane*>(ctx.control)->plane;
  }
};

}  // namespace

std::unique_ptr<TransportProfile> make_pase_profile() {
  return std::make_unique<PaseProfile>();
}

}  // namespace pase::proto
