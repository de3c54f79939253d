#include "proto/transport_profile.h"

namespace pase::proto {

sim::Time estimate_base_rtt(topo::Topology& topo) {
  net::Host* first = topo.host(0);
  const net::NodeId b = topo.host(topo.num_hosts() - 1)->id();
  const sim::Time prop = topo.propagation_rtt(first->id(), b);
  const sim::Time serial = 4.0 * (net::kMss + net::kDataHeaderBytes) * 8.0 /
                           first->nic_rate_bps();
  return prop + serial;
}

}  // namespace pase::proto
