#include "core/arbitration_plane.h"

#include <algorithm>
#include <cmath>

#include "topo/builder.h"

namespace pase::core {

// ---------------------------------------------------------------------------
// PlaneTopology adapters

PlaneTopology PlaneTopology::from(topo::ThreeTier& tt) {
  PlaneTopology pt;
  pt.topo = tt.topo.get();
  pt.host_rate_bps = tt.config.host_rate_bps;
  pt.fabric_rate_bps = tt.config.fabric_rate_bps;
  const auto& hosts = tt.topo->hosts();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const int tor_idx = tt.tor_of_host(static_cast<int>(i));
    pt.hosts[hosts[i]->id()] =
        HostInfo{hosts[i].get(), tt.tors[static_cast<std::size_t>(tor_idx)],
                 tt.agg_of_tor(tor_idx)};
  }
  return pt;
}

PlaneTopology PlaneTopology::from(topo::BuiltTopology& built) {
  PlaneTopology pt;
  pt.topo = &built.topo();
  pt.host_rate_bps = built.host_rate_bps();
  pt.fabric_rate_bps = built.fabric_rate_bps();
  const auto& hosts = built.topo().hosts();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const topo::HostAttachment at = built.attachment(i);
    pt.hosts[hosts[i]->id()] = HostInfo{hosts[i].get(), at.tor, at.agg};
  }
  return pt;
}

PlaneTopology PlaneTopology::from(topo::SingleRack& rack) {
  PlaneTopology pt;
  pt.topo = rack.topo.get();
  pt.host_rate_bps = rack.config.host_rate_bps;
  pt.fabric_rate_bps = rack.config.host_rate_bps;
  for (const auto& h : rack.topo->hosts()) {
    pt.hosts[h->id()] = HostInfo{h.get(), rack.tor, nullptr};
  }
  return pt;
}

// ---------------------------------------------------------------------------
// Construction

ArbitrationPlane::ArbitrationPlane(sim::Simulator& sim, PlaneTopology pt,
                                   PaseConfig cfg)
    : ArbitrationPlane(
          [&sim](net::NodeId) -> sim::Simulator& { return sim; },
          std::move(pt), cfg) {}

ArbitrationPlane::ArbitrationPlane(const SimResolver& sim_of, PlaneTopology pt,
                                   PaseConfig cfg)
    : pt_(std::move(pt)), cfg_(cfg) {
  // Endpoint arbitrators: one pair per host, living on the host.
  for (auto& [id, info] : pt_.hosts) {
    HostState hs;
    hs.info = info;
    hs.sim = &sim_of(id);
    hs.up = std::make_unique<LinkArbitrator>(info.host->name() + ".up", id,
                                             pt_.host_rate_bps, cfg_);
    hs.down = std::make_unique<LinkArbitrator>(info.host->name() + ".down", id,
                                               pt_.host_rate_bps, cfg_);
    info.host->set_control_handler(
        [this, id](net::PacketPtr p) { on_host_control(id, std::move(p)); });
    host_states_.emplace(id, std::move(hs));

    // ToR arbitrators, created lazily the first time a host names its ToR.
    net::Switch* tor = info.tor;
    if (tor != nullptr && !tor_states_.contains(tor->id())) {
      TorState ts;
      ts.tor = tor;
      ts.agg = info.agg;
      ts.sim = &sim_of(tor->id());
      if (info.agg != nullptr) {
        ts.up = std::make_unique<LinkArbitrator>(tor->name() + ".up",
                                                 tor->id(),
                                                 pt_.fabric_rate_bps, cfg_);
        ts.down = std::make_unique<LinkArbitrator>(tor->name() + ".down",
                                                   tor->id(),
                                                   pt_.fabric_rate_bps, cfg_);
      }
      net::Switch* sw = tor;
      tor->set_control_handler([this, sw](net::PacketPtr p) {
        on_switch_control(sw, std::move(p));
      });
      tor_states_.emplace(tor->id(), std::move(ts));
    }
    // Agg arbitrators.
    net::Switch* agg = info.agg;
    if (agg != nullptr && !agg_states_.contains(agg->id())) {
      AggState as;
      as.agg = agg;
      as.sim = &sim_of(agg->id());
      as.up = std::make_unique<LinkArbitrator>(agg->name() + ".up", agg->id(),
                                               pt_.fabric_rate_bps, cfg_);
      as.down = std::make_unique<LinkArbitrator>(agg->name() + ".down",
                                                 agg->id(),
                                                 pt_.fabric_rate_bps, cfg_);
      net::Switch* sw = agg;
      agg->set_control_handler([this, sw](net::PacketPtr p) {
        on_switch_control(sw, std::move(p));
      });
      agg_states_.emplace(agg->id(), std::move(as));
    }
  }

  // Delegation: carve the Agg<->Core links into per-ToR virtual links.
  // (Meaningless in local-only mode, where no fabric arbitration happens.)
  if (cfg_.local_only) cfg_.delegation = false;
  if (cfg_.delegation) {
    // Count children per agg for the initial equal split.
    std::unordered_map<net::NodeId, int> children;
    for (auto& [tid, ts] : tor_states_) {
      if (ts.agg != nullptr) {
        ++children[ts.agg->id()];
        delegation_tors_.push_back(tid);
      }
    }
    // Timers go on each ToR's own domain clock as setup roots executing at
    // the ToR, in globally sorted ToR-id order: the j-th timer takes setup
    // index j, which sorting makes partition-invariant (see setup_events()).
    std::sort(delegation_tors_.begin(), delegation_tors_.end());
    std::uint32_t j = 0;
    for (const net::NodeId tid : delegation_tors_) {
      TorState& ts = tor_states_.at(tid);
      const double share = pt_.fabric_rate_bps / children[ts.agg->id()];
      ts.virt_up = std::make_unique<LinkArbitrator>(
          ts.tor->name() + ".virt_up", ts.tor->id(), share, cfg_);
      ts.virt_down = std::make_unique<LinkArbitrator>(
          ts.tor->name() + ".virt_down", ts.tor->id(), share, cfg_);
      auto& as = agg_states_.at(ts.agg->id());
      as.demand_up[tid] = 0.0;
      as.demand_down[tid] = 0.0;
      TorState* tsp = &ts;
      ts.sim->schedule_setup_at(
          ts.sim->now() + cfg_.delegation_update_period, j++,
          static_cast<std::uint32_t>(tid),
          [this, tsp] { delegation_tick(*tsp); });
    }
  }
}

void ArbitrationPlane::delegation_tick(TorState& ts) {
  send_delegation_report(ts);
  TorState* tsp = &ts;
  ts.sim->schedule(cfg_.delegation_update_period,
                   [this, tsp] { delegation_tick(*tsp); });
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
  return pt_.hosts.at(f.src).tor == pt_.hosts.at(f.dst).tor;
}

bool ArbitrationPlane::same_agg_hdr(const net::ArbHeader& h) const {
  // pt_.hosts is immutable after construction, so this read is safe from any
  // domain's thread.
  return pt_.hosts.at(h.src_host).agg == pt_.hosts.at(h.dst_host).agg;
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
  hs.info.host->send(std::move(p));
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
                             hs.info.tor->id());
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
                             hs.info.tor->id());
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
      std::min(pt_.host_rate_bps, remaining_bytes * 8.0 / cfg_.rtt);
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
    p->dst = hs.info.tor->id();
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
                             hs.info.tor->id());
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
  auto tor_it = tor_states_.find(sw->id());
  if (tor_it != tor_states_.end()) {
    TorState& ts = tor_it->second;
    switch (p->type) {
      case net::PacketType::kArbRequest:
        handle_request_at_tor(ts, std::move(p));
        return;
      case net::PacketType::kArbFin:
        handle_fin_at_tor(ts, std::move(p));
        return;
      case net::PacketType::kArbDelegate:
        handle_grant_at_tor(ts, *p);
        return;
      default:
        return;
    }
  }
  auto agg_it = agg_states_.find(sw->id());
  if (agg_it != agg_states_.end()) {
    AggState& as = agg_it->second;
    switch (p->type) {
      case net::PacketType::kArbRequest:
        handle_request_at_agg(as, std::move(p));
        return;
      case net::PacketType::kArbFin:
        handle_fin_at_agg(as, std::move(p));
        return;
      case net::PacketType::kArbReport:
        handle_report_at_agg(as, *p);
        return;
      default:
        return;
    }
  }
}

namespace {
void fold(net::ArbHeader& h, const FlowTable::Result& r) {
  h.prio_queue = std::max(h.prio_queue, r.prio_queue);
  h.ref_rate = std::min(h.ref_rate, r.ref_rate);
}
}  // namespace

void ArbitrationPlane::handle_request_at_tor(TorState& ts, net::PacketPtr p) {
  const double key = key_from_header(p->arb);
  LinkArbitrator* arb = p->arb.receiver_half ? ts.down.get() : ts.up.get();
  if (arb == nullptr) {  // single-rack: nothing above the ToR
    respond(ts.stats, *ts.tor, std::move(p));
    return;
  }
  ++ts.stats.arbitrations;
  ++p->arb.hops;
  fold(p->arb, arb->process(p->flow, key, p->arb.demand, ts.sim->now()));

  if (cfg_.early_pruning && p->arb.prio_queue >= cfg_.pruning_queues) {
    ++ts.stats.pruned_requests;
    respond(ts.stats, *ts.tor, std::move(p));
    return;
  }
  if (same_agg_hdr(p->arb)) {  // the Agg<->Core links are not on this path
    respond(ts.stats, *ts.tor, std::move(p));
    return;
  }
  if (cfg_.delegation) {
    LinkArbitrator* virt =
        p->arb.receiver_half ? ts.virt_down.get() : ts.virt_up.get();
    ++ts.stats.arbitrations;
    fold(p->arb, virt->process(p->flow, key, p->arb.demand, ts.sim->now()));
    respond(ts.stats, *ts.tor, std::move(p));
    return;
  }
  // Ascend to the aggregation arbitrator.
  p->dst = ts.agg->id();
  ++ts.stats.requests;
  send_from_switch(ts.stats, *ts.tor, std::move(p));
}

void ArbitrationPlane::handle_request_at_agg(AggState& as, net::PacketPtr p) {
  const double key = key_from_header(p->arb);
  LinkArbitrator* arb = p->arb.receiver_half ? as.down.get() : as.up.get();
  ++as.stats.arbitrations;
  ++p->arb.hops;
  fold(p->arb, arb->process(p->flow, key, p->arb.demand, as.sim->now()));
  respond(as.stats, *as.agg, std::move(p));
}

void ArbitrationPlane::handle_fin_at_tor(TorState& ts, net::PacketPtr p) {
  if (p->arb.receiver_half) {
    if (ts.down) ts.down->remove(p->flow);
    if (ts.virt_down) ts.virt_down->remove(p->flow);
  } else {
    if (ts.up) ts.up->remove(p->flow);
    if (ts.virt_up) ts.virt_up->remove(p->flow);
  }
  // Forward to the agg unless delegation means it never saw the flow. The
  // flow may not exist up there (pruning) — removal is idempotent either way.
  if (ts.agg != nullptr && !cfg_.delegation) {
    p->dst = ts.agg->id();
    ++ts.stats.fins;
    send_from_switch(ts.stats, *ts.tor, std::move(p));
  }
}

void ArbitrationPlane::handle_fin_at_agg(AggState& as, net::PacketPtr p) {
  if (p->arb.receiver_half) {
    as.down->remove(p->flow);
  } else {
    as.up->remove(p->flow);
  }
}

// ---------------------------------------------------------------------------
// Delegation

void ArbitrationPlane::send_delegation_report(TorState& ts) {
  if (ts.agg == nullptr || !cfg_.delegation) return;
  for (const bool down : {false, true}) {
    const double demand = down ? ts.virt_down->table().total_demand()
                               : ts.virt_up->table().total_demand();
    // Suppress no-change reports: an idle rack costs the control plane
    // nothing, so overhead scales with activity rather than wall time.
    double& reported = down ? ts.reported_down : ts.reported_up;
    if (reported >= 0.0 &&
        std::abs(demand - reported) < 0.01 * pt_.fabric_rate_bps) {
      continue;
    }
    reported = demand;
    auto p = net::make_control_packet(net::PacketType::kArbReport, 0,
                                      ts.tor->id(), ts.agg->id());
    p->ecn_capable = false;
    p->priority = 0;
    p->arb.receiver_half = down;
    p->arb.report_demand = demand;
    ++ts.stats.delegation_msgs;
    send_from_switch(ts.stats, *ts.tor, std::move(p));
  }
}

double ArbitrationPlane::recompute_share(AggState& as, net::NodeId child,
                                         bool down) const {
  const auto& demands = down ? as.demand_down : as.demand_up;
  const double floor_w = cfg_.delegation_min_share * pt_.fabric_rate_bps;
  double total = 0.0;
  for (const auto& [id, d] : demands) total += std::max(d, floor_w);
  if (total <= 0.0) return pt_.fabric_rate_bps / demands.size();
  return pt_.fabric_rate_bps * std::max(demands.at(child), floor_w) / total;
}

void ArbitrationPlane::handle_report_at_agg(AggState& as,
                                            const net::Packet& p) {
  const bool down = p.arb.receiver_half;
  auto& demands = down ? as.demand_down : as.demand_up;
  demands[p.src] = p.arb.report_demand;
  auto grant = net::make_control_packet(net::PacketType::kArbDelegate, 0,
                                        as.agg->id(), p.src);
  grant->ecn_capable = false;
  grant->priority = 0;
  grant->arb.receiver_half = down;
  grant->arb.granted_capacity =
      recompute_share(as, p.src, down) * cfg_.delegation_overcommit;
  ++as.stats.delegation_msgs;
  send_from_switch(as.stats, *as.agg, std::move(grant));
}

void ArbitrationPlane::handle_grant_at_tor(TorState& ts,
                                           const net::Packet& p) {
  LinkArbitrator* virt =
      p.arb.receiver_half ? ts.virt_down.get() : ts.virt_up.get();
  if (virt != nullptr) virt->table().set_capacity(p.arb.granted_capacity);
}

// ---------------------------------------------------------------------------
// Stats

const ControlPlaneStats& ArbitrationPlane::stats() const {
  folded_ = ControlPlaneStats{};
  for (const auto& [id, hs] : host_states_) folded_ += hs.stats;
  for (const auto& [id, ts] : tor_states_) folded_ += ts.stats;
  for (const auto& [id, as] : agg_states_) folded_ += as.stats;
  return folded_;
}

// ---------------------------------------------------------------------------
// Introspection

LinkArbitrator* ArbitrationPlane::tor_up_arbitrator(net::NodeId tor) {
  auto it = tor_states_.find(tor);
  return it == tor_states_.end() ? nullptr : it->second.up.get();
}
LinkArbitrator* ArbitrationPlane::agg_up_arbitrator(net::NodeId agg) {
  auto it = agg_states_.find(agg);
  return it == agg_states_.end() ? nullptr : it->second.up.get();
}

}  // namespace pase::core
