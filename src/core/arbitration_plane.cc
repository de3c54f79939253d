#include "core/arbitration_plane.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace pase::core {

// ---------------------------------------------------------------------------
// Construction

ArbitrationPlane::ArbitrationPlane(sim::Simulator& sim, topo::Topology& topo,
                                   PaseConfig cfg)
    : ArbitrationPlane(
          [&sim](net::NodeId) -> sim::Simulator& { return sim; }, topo, cfg) {}

ArbitrationPlane::ArbitrationPlane(const SimResolver& sim_of,
                                   topo::Topology& topo, PaseConfig cfg)
    : cfg_(cfg) {
  for (const auto& h : topo.hosts()) {
    // The host's ToR, and the switch above the ToR as its parent. On a
    // fat-tree the ToR (edge) has k/2 aggs above it; the first in port
    // order, the pod's slot-0 agg, stands in for the whole agg tier, so all
    // hosts of a pod share one designated aggregation arbitrator — an
    // approximation under ECMP, where most flows cross other aggs.
    net::Switch& tor = topo::Topology::tor_of(*h);
    SwitchState& ts = switch_state(sim_of, topo, tor);
    if (ts.up && ts.parent == nullptr) {
      const int up = topo.up_port(tor);
      ts.parent = &switch_state(
          sim_of, topo, static_cast<net::Switch&>(*tor.port_neighbor(up)));
    }

    // Endpoint arbitrators: one pair per host, living on the host.
    const net::NodeId id = h->id();
    HostState hs;
    hs.host = h.get();
    hs.tor = &tor;
    hs.agg = ts.parent ? ts.parent->sw : nullptr;
    hs.nic_bps = h->nic_rate_bps();
    hs.sim = &sim_of(id);
    hs.up = std::make_unique<LinkArbitrator>(h->name() + ".up", id,
                                             hs.nic_bps, cfg_);
    hs.down = std::make_unique<LinkArbitrator>(h->name() + ".down", id,
                                               hs.nic_bps, cfg_);
    h->set_control_handler(
        [this, id](net::PacketPtr p) { on_host_control(id, std::move(p)); });
    host_states_.emplace(id, std::move(hs));
  }

  // Delegation: carve each parent's links into per-child virtual links.
  // (Meaningless in local-only mode, where no fabric arbitration happens.)
  if (cfg_.local_only) cfg_.delegation = false;
  if (cfg_.delegation) {
    // Count children per parent for the initial equal split.
    std::vector<net::NodeId> children;
    std::unordered_map<const SwitchState*, int> num_children;
    for (auto& [id, ss] : switch_states_) {
      if (ss.parent != nullptr) {
        ++num_children[ss.parent];
        children.push_back(id);
      }
    }
    // Timers go on each child's own domain clock as setup roots executing
    // at the child, in globally sorted id order: the j-th timer takes setup
    // index j, which sorting makes partition-invariant (see setup_events()).
    std::sort(children.begin(), children.end());
    for (const net::NodeId cid : children) {
      SwitchState& cs = switch_states_.at(cid);
      SwitchState& ps = switch_states_.at(cs.parent->sw->id());
      const double share = ps.uplink_bps / num_children[&ps];
      cs.virt_up = std::make_unique<LinkArbitrator>(
          cs.sw->name() + ".virt_up", cid, share, cfg_);
      cs.virt_down = std::make_unique<LinkArbitrator>(
          cs.sw->name() + ".virt_down", cid, share, cfg_);
      ps.demand_up[cid] = 0.0;
      ps.demand_down[cid] = 0.0;
      SwitchState* csp = &cs;
      cs.sim->schedule_setup_at(
          cs.sim->now() + cfg_.delegation_update_period, delegation_timers_++,
          static_cast<std::uint32_t>(cid),
          [this, csp] { delegation_tick(*csp); });
    }
  }
}

ArbitrationPlane::SwitchState& ArbitrationPlane::switch_state(
    const SimResolver& sim_of, const topo::Topology& topo, net::Switch& sw) {
  auto [it, fresh] = switch_states_.try_emplace(sw.id());
  SwitchState& ss = it->second;
  if (!fresh) return ss;
  ss.sw = &sw;
  ss.sim = &sim_of(sw.id());
  const int up = topo.up_port(sw);
  if (up >= 0) {
    ss.uplink_bps = sw.port_link(up).rate_bps();
    ss.up = std::make_unique<LinkArbitrator>(sw.name() + ".up", sw.id(),
                                             ss.uplink_bps, cfg_);
    ss.down = std::make_unique<LinkArbitrator>(sw.name() + ".down", sw.id(),
                                               ss.uplink_bps, cfg_);
  }
  net::Switch* swp = &sw;
  sw.set_control_handler([this, swp](net::PacketPtr p) {
    on_switch_control(swp, std::move(p));
  });
  return ss;
}

void ArbitrationPlane::delegation_tick(SwitchState& ss) {
  send_delegation_report(ss);
  SwitchState* ssp = &ss;
  ss.sim->schedule(cfg_.delegation_update_period,
                   [this, ssp] { delegation_tick(*ssp); });
}

// ---------------------------------------------------------------------------
// Helpers

double ArbitrationPlane::key_of(const transport::Flow& flow,
                                double remaining_bytes) const {
  switch (cfg_.criterion) {
    case Criterion::kEarliestDeadlineFirst:
      if (flow.has_deadline()) return flow.deadline;
      break;
    case Criterion::kTaskAware:
      if (flow.task_id != 0) return static_cast<double>(flow.task_id);
      break;
    case Criterion::kShortestFlowFirst:
      break;
  }
  return remaining_bytes;
}

double ArbitrationPlane::key_from_header(const net::ArbHeader& h) const {
  // Mirrors key_of exactly: the header fields are copies of the flow fields
  // key_of consults (Flow::has_deadline() is `deadline > 0`).
  switch (cfg_.criterion) {
    case Criterion::kEarliestDeadlineFirst:
      if (h.deadline > 0.0) return h.deadline;
      break;
    case Criterion::kTaskAware:
      if (h.task_id != 0) return static_cast<double>(h.task_id);
      break;
    case Criterion::kShortestFlowFirst:
      break;
  }
  return h.flow_size;
}

bool ArbitrationPlane::same_rack(const transport::Flow& f) const {
  return host_states_.at(f.src).tor == host_states_.at(f.dst).tor;
}

bool ArbitrationPlane::same_agg_hdr(const net::ArbHeader& h) const {
  // Reads only the hosts' fixed attachment, so it is safe from any domain's
  // thread.
  return host_states_.at(h.src_host).agg == host_states_.at(h.dst_host).agg;
}

net::PacketPtr ArbitrationPlane::make_arb_packet(net::PacketType type,
                                                 const transport::Flow& flow,
                                                 net::NodeId from,
                                                 net::NodeId to) {
  auto p = net::make_control_packet(type, flow.id, from, to);
  p->ecn_capable = false;
  p->priority = 0;
  p->remaining_size = 0.0;
  // The full arbitration identity rides in the header so fabric arbitrators
  // decide from the packet alone (see header sharding notes).
  p->arb.deadline = flow.deadline;
  p->arb.src_host = flow.src;
  p->arb.dst_host = flow.dst;
  p->arb.task_id = flow.task_id;
  return p;
}

void ArbitrationPlane::send_from_host(HostState& hs, net::PacketPtr p) {
  ++hs.stats.messages_sent;
  hs.host->send(std::move(p));
}

void ArbitrationPlane::send_from_switch(ControlPlaneStats& st, net::Switch& sw,
                                        net::PacketPtr p) {
  ++st.messages_sent;
  // receive() routes packets not addressed to the switch itself.
  sw.receive(std::move(p));
}

void ArbitrationPlane::respond(ControlPlaneStats& st, net::Switch& sw,
                               net::PacketPtr request) {
  net::PacketPtr p = std::move(request);
  p->type = net::PacketType::kArbResponse;
  p->src = sw.id();
  p->dst = p->arb.src_host;
  ++st.responses;
  send_from_switch(st, sw, std::move(p));
}

// ---------------------------------------------------------------------------
// Sender half

FlowTable::Result ArbitrationPlane::register_sender(
    ArbitrationClient& client, const transport::Flow& flow,
    double remaining_bytes, double demand_bps) {
  host_states_.at(flow.src).tx[flow.id] = &client;
  return source_arbitrate(flow, remaining_bytes, demand_bps);
}

FlowTable::Result ArbitrationPlane::source_arbitrate(
    const transport::Flow& flow, double remaining_bytes, double demand_bps) {
  auto& hs = host_states_.at(flow.src);
  ++hs.stats.arbitrations;
  FlowTable::Result local = hs.up->process(
      flow.id, key_of(flow, remaining_bytes), demand_bps, hs.sim->now());

  const bool needs_fabric = !cfg_.local_only && !same_rack(flow);
  const bool pruned =
      cfg_.early_pruning && local.prio_queue >= cfg_.pruning_queues;
  if (needs_fabric && !pruned) {
    auto p = make_arb_packet(net::PacketType::kArbRequest, flow, flow.src,
                             hs.tor->id());
    p->arb.flow_size = remaining_bytes;
    p->arb.demand = demand_bps;
    p->arb.receiver_half = false;
    p->arb.prio_queue = local.prio_queue;
    p->arb.ref_rate = local.ref_rate;
    p->arb.hops = 1;
    ++hs.stats.requests;
    send_from_host(hs, std::move(p));
  } else if (needs_fabric && pruned) {
    ++hs.stats.pruned_requests;
  }
  return local;
}

void ArbitrationPlane::sender_finished(const transport::Flow& flow) {
  auto& hs = host_states_.at(flow.src);
  hs.up->remove(flow.id);
  hs.tx.erase(flow.id);
  if (!cfg_.local_only && !same_rack(flow)) {
    auto p = make_arb_packet(net::PacketType::kArbFin, flow, flow.src,
                             hs.tor->id());
    p->arb.receiver_half = false;
    ++hs.stats.fins;
    send_from_host(hs, std::move(p));
  }
}

// ---------------------------------------------------------------------------
// Receiver half

void ArbitrationPlane::attach_receiver(transport::Receiver& receiver) {
  const transport::Flow flow = receiver.flow();
  receiver.on_data = [this, flow](const net::Packet& p) {
    receiver_data_arrived(flow, p.remaining_size);
  };
  auto prev = std::move(receiver.on_complete);
  receiver.on_complete = [this, flow,
                          prev = std::move(prev)](transport::Receiver& r) {
    receiver_finished(flow);
    if (prev) prev(r);
  };
}

void ArbitrationPlane::receiver_data_arrived(const transport::Flow& flow,
                                             double remaining_bytes) {
  // Local-only mode (Fig. 12a): no arbitration traffic crosses the network,
  // so there is no receiver half at all — the source's own uplink arbitrator
  // is the only one consulted.
  if (cfg_.local_only) return;
  // Background flows never arbitrate: the sender pins them to the lowest
  // queue without registering, and the receiver half mirrors that.
  if (flow.background) return;
  auto& hs = host_states_.at(flow.dst);
  const sim::Time now = hs.sim->now();
  auto [last, first] = hs.rx_last.try_emplace(flow.id, now);
  if (!first) {
    if (now - last->second < cfg_.arbitration_period) return;
    last->second = now;
  }

  const double demand =
      std::min(hs.nic_bps, remaining_bytes * 8.0 / cfg_.rtt);
  ++hs.stats.arbitrations;
  FlowTable::Result local = hs.down->process(
      flow.id, key_of(flow, remaining_bytes), demand, now);

  auto p = make_arb_packet(net::PacketType::kArbRequest, flow, flow.dst,
                           net::kInvalidNode);
  p->arb.flow_size = remaining_bytes;
  p->arb.demand = demand;
  p->arb.receiver_half = true;
  p->arb.prio_queue = local.prio_queue;
  p->arb.ref_rate = local.ref_rate;
  p->arb.hops = 1;

  const bool needs_fabric = !same_rack(flow);
  const bool pruned =
      cfg_.early_pruning && local.prio_queue >= cfg_.pruning_queues;
  if (needs_fabric && !pruned) {
    p->dst = hs.tor->id();
    ++hs.stats.requests;
    send_from_host(hs, std::move(p));
  } else {
    // The receiver-half result is complete; ship it to the source.
    if (pruned && needs_fabric) ++hs.stats.pruned_requests;
    p->type = net::PacketType::kArbResponse;
    p->dst = flow.src;
    ++hs.stats.responses;
    send_from_host(hs, std::move(p));
  }
}

void ArbitrationPlane::receiver_finished(const transport::Flow& flow) {
  if (cfg_.local_only) return;  // no receiver half in local-only mode
  auto& hs = host_states_.at(flow.dst);
  hs.down->remove(flow.id);
  hs.rx_last.erase(flow.id);
  if (!same_rack(flow)) {
    auto p = make_arb_packet(net::PacketType::kArbFin, flow, flow.dst,
                             hs.tor->id());
    p->arb.receiver_half = true;
    ++hs.stats.fins;
    send_from_host(hs, std::move(p));
  }
}

// ---------------------------------------------------------------------------
// Control packet dispatch

void ArbitrationPlane::on_host_control(net::NodeId host, net::PacketPtr p) {
  if (p->type != net::PacketType::kArbResponse) return;
  auto& hs = host_states_.at(host);
  auto it = hs.tx.find(p->flow);
  if (it == hs.tx.end()) return;  // flow already finished at the source
  it->second->arbitration_update(p->arb.prio_queue, p->arb.ref_rate,
                                 p->arb.receiver_half);
}

void ArbitrationPlane::on_switch_control(net::Switch* sw, net::PacketPtr p) {
  SwitchState& ss = switch_states_.at(sw->id());
  switch (p->type) {
    case net::PacketType::kArbRequest:
      handle_request(ss, std::move(p));
      return;
    case net::PacketType::kArbFin:
      handle_fin(ss, std::move(p));
      return;
    case net::PacketType::kArbReport:
      handle_report(ss, *p);
      return;
    case net::PacketType::kArbDelegate:
      handle_grant(ss, *p);
      return;
    default:
      return;
  }
}

namespace {
void fold(net::ArbHeader& h, const FlowTable::Result& r) {
  h.prio_queue = std::max(h.prio_queue, r.prio_queue);
  h.ref_rate = std::min(h.ref_rate, r.ref_rate);
}
}  // namespace

void ArbitrationPlane::handle_request(SwitchState& ss, net::PacketPtr p) {
  const double key = key_from_header(p->arb);
  LinkArbitrator* arb = p->arb.receiver_half ? ss.down.get() : ss.up.get();
  if (arb == nullptr) {  // no link above this switch (a rack's ToR)
    respond(ss.stats, *ss.sw, std::move(p));
    return;
  }
  ++ss.stats.arbitrations;
  ++p->arb.hops;
  fold(p->arb, arb->process(p->flow, key, p->arb.demand, ss.sim->now()));

  // The top arbitrator answers; it never prunes (nothing is above it).
  if (ss.parent == nullptr) {
    respond(ss.stats, *ss.sw, std::move(p));
    return;
  }
  if (cfg_.early_pruning && p->arb.prio_queue >= cfg_.pruning_queues) {
    ++ss.stats.pruned_requests;
    respond(ss.stats, *ss.sw, std::move(p));
    return;
  }
  if (same_agg_hdr(p->arb)) {  // the parent's links are not on this path
    respond(ss.stats, *ss.sw, std::move(p));
    return;
  }
  if (cfg_.delegation) {
    LinkArbitrator* virt =
        p->arb.receiver_half ? ss.virt_down.get() : ss.virt_up.get();
    ++ss.stats.arbitrations;
    fold(p->arb, virt->process(p->flow, key, p->arb.demand, ss.sim->now()));
    respond(ss.stats, *ss.sw, std::move(p));
    return;
  }
  // Ascend to the parent's arbitrator.
  p->dst = ss.parent->sw->id();
  ++ss.stats.requests;
  send_from_switch(ss.stats, *ss.sw, std::move(p));
}

void ArbitrationPlane::handle_fin(SwitchState& ss, net::PacketPtr p) {
  if (p->arb.receiver_half) {
    if (ss.down) ss.down->remove(p->flow);
    if (ss.virt_down) ss.virt_down->remove(p->flow);
  } else {
    if (ss.up) ss.up->remove(p->flow);
    if (ss.virt_up) ss.virt_up->remove(p->flow);
  }
  // Forward to the parent unless delegation means it never saw the flow.
  // The flow may not exist up there (pruning) — removal is idempotent.
  if (ss.parent != nullptr && !cfg_.delegation) {
    p->dst = ss.parent->sw->id();
    ++ss.stats.fins;
    send_from_switch(ss.stats, *ss.sw, std::move(p));
  }
}

// ---------------------------------------------------------------------------
// Delegation

void ArbitrationPlane::send_delegation_report(SwitchState& ss) {
  if (ss.parent == nullptr || !cfg_.delegation) return;
  for (const bool down : {false, true}) {
    const double demand = down ? ss.virt_down->table().total_demand()
                               : ss.virt_up->table().total_demand();
    // Suppress no-change reports: an idle rack costs the control plane
    // nothing, so overhead scales with activity rather than wall time.
    double& reported = down ? ss.reported_down : ss.reported_up;
    if (reported >= 0.0 &&
        std::abs(demand - reported) < 0.01 * ss.parent->uplink_bps) {
      continue;
    }
    reported = demand;
    auto p = net::make_control_packet(net::PacketType::kArbReport, 0,
                                      ss.sw->id(), ss.parent->sw->id());
    p->ecn_capable = false;
    p->priority = 0;
    p->arb.receiver_half = down;
    p->arb.report_demand = demand;
    ++ss.stats.delegation_msgs;
    send_from_switch(ss.stats, *ss.sw, std::move(p));
  }
}

double ArbitrationPlane::recompute_share(const SwitchState& ss,
                                         net::NodeId child, bool down) const {
  const auto& demands = down ? ss.demand_down : ss.demand_up;
  const double floor_w = cfg_.delegation_min_share * ss.uplink_bps;
  double total = 0.0;
  for (const auto& [id, d] : demands) total += std::max(d, floor_w);
  if (total <= 0.0) return ss.uplink_bps / demands.size();
  return ss.uplink_bps * std::max(demands.at(child), floor_w) / total;
}

void ArbitrationPlane::handle_report(SwitchState& ss, const net::Packet& p) {
  const bool down = p.arb.receiver_half;
  auto& demands = down ? ss.demand_down : ss.demand_up;
  demands[p.src] = p.arb.report_demand;
  auto grant = net::make_control_packet(net::PacketType::kArbDelegate, 0,
                                        ss.sw->id(), p.src);
  grant->ecn_capable = false;
  grant->priority = 0;
  grant->arb.receiver_half = down;
  grant->arb.granted_capacity =
      recompute_share(ss, p.src, down) * cfg_.delegation_overcommit;
  ++ss.stats.delegation_msgs;
  send_from_switch(ss.stats, *ss.sw, std::move(grant));
}

void ArbitrationPlane::handle_grant(SwitchState& ss, const net::Packet& p) {
  LinkArbitrator* virt =
      p.arb.receiver_half ? ss.virt_down.get() : ss.virt_up.get();
  if (virt != nullptr) virt->table().set_capacity(p.arb.granted_capacity);
}

// ---------------------------------------------------------------------------
// Stats

const ControlPlaneStats& ArbitrationPlane::stats() const {
  folded_ = ControlPlaneStats{};
  for (const auto& [id, hs] : host_states_) folded_ += hs.stats;
  for (const auto& [id, ss] : switch_states_) folded_ += ss.stats;
  return folded_;
}

// ---------------------------------------------------------------------------
// Introspection

LinkArbitrator* ArbitrationPlane::up_arbitrator(net::NodeId sw) {
  auto it = switch_states_.find(sw);
  return it == switch_states_.end() ? nullptr : it->second.up.get();
}

}  // namespace pase::core
