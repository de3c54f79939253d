#include "proto/transport_profile.h"

#include <new>

#include "sim/dcheck.h"

namespace pase::proto {

std::unique_ptr<transport::Receiver> TransportProfile::make_receiver(
    RunContext& ctx, const transport::Flow& flow, net::Host& dst) const {
  return std::make_unique<transport::Receiver>(ctx.sim, dst, flow);
}

transport::Sender* TransportProfile::construct_sender(
    void* mem, RunContext& ctx, const transport::Flow& flow,
    net::Host& src) const {
  // Only reachable if a profile advertises a valid layout without overriding
  // the placement constructor — a contract violation, not a runtime state.
  (void)mem;
  (void)ctx;
  (void)flow;
  (void)src;
  PASE_DCHECK(!endpoint_layout().valid() &&
              "profile advertises a slab layout but does not implement "
              "construct_sender");
  return nullptr;
}

transport::Receiver* TransportProfile::construct_receiver(
    void* mem, RunContext& ctx, const transport::Flow& flow,
    net::Host& dst) const {
  return new (mem) transport::Receiver(ctx.sim, dst, flow);
}

sim::Time estimate_base_rtt(topo::Topology& topo) {
  net::Host* first = topo.host(0);
  const net::NodeId b = topo.host(topo.num_hosts() - 1)->id();
  const sim::Time prop = topo.propagation_rtt(first->id(), b);
  const sim::Time serial = 4.0 * (net::kMss + net::kDataHeaderBytes) * 8.0 /
                           first->nic_rate_bps();
  return prop + serial;
}

}  // namespace pase::proto
