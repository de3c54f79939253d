// Frozen copy of src/workload/scenario.cc as it stood before the
// profile-registry refactor (PR 2). Do not "improve" this file: its entire
// value is that it is the pre-refactor behaviour, bit for bit. It links the
// live ArbitrationPlane, which it builds from its Topology as the driver
// does; what it keeps independent is launching every flow up front.
#include "legacy_scenario.h"

#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "core/arbitration_plane.h"
#include "core/pase_sender.h"
#include "net/droptail_queue.h"
#include "net/pfabric_queue.h"
#include "net/priority_queue_bank.h"
#include "net/red_ecn_queue.h"
#include "proto/defaults.h"
#include "transport/d2tcp.h"
#include "transport/dctcp.h"
#include "transport/l2dct.h"
#include "transport/pdq.h"
#include "transport/pfabric.h"

namespace pase::legacy {

using proto::Table3;
using proto::mark_threshold_for;
using workload::Protocol;
using workload::ScenarioConfig;
using workload::ScenarioResult;

namespace {

struct Run {
  sim::Simulator sim;
  std::unique_ptr<topo::Topology> topo_holder;  // keeps ownership
  topo::Topology* topo = nullptr;
  std::unique_ptr<core::ArbitrationPlane> plane;
  std::vector<std::unique_ptr<transport::PdqController>> pdq_controllers;
  std::vector<std::unique_ptr<transport::Sender>> senders;
  std::vector<std::unique_ptr<transport::Receiver>> receivers;
  std::vector<stats::FlowRecord> records;
  std::unordered_map<net::FlowId, std::size_t> record_of;
  std::size_t outstanding = 0;  // short flows not yet finished
};

topo::QueueFactory make_queue_factory(const ScenarioConfig& cfg) {
  const std::size_t cap_override = cfg.queue_capacity_pkts;
  const std::size_t mark_override = cfg.mark_threshold_pkts;
  const int num_queues = cfg.pase.num_queues;
  switch (cfg.protocol) {
    case Protocol::kDctcp:
    case Protocol::kD2tcp:
    case Protocol::kL2dct:
      return [=](double rate) -> std::unique_ptr<net::Queue> {
        const std::size_t cap =
            cap_override ? cap_override : Table3::kDctcpQueuePkts;
        const std::size_t k =
            mark_override ? mark_override : mark_threshold_for(rate);
        return std::make_unique<net::RedEcnQueue>(cap, k);
      };
    case Protocol::kPdq:
      return [=](double) -> std::unique_ptr<net::Queue> {
        const std::size_t cap =
            cap_override ? cap_override : Table3::kPdqQueuePkts;
        return std::make_unique<net::DropTailQueue>(cap);
      };
    case Protocol::kPfabric:
      return [=](double) -> std::unique_ptr<net::Queue> {
        const std::size_t cap =
            cap_override ? cap_override : Table3::kPfabricQueuePkts;
        return std::make_unique<net::PfabricQueue>(cap);
      };
    case Protocol::kPase:
      return [=](double rate) -> std::unique_ptr<net::Queue> {
        const std::size_t cap =
            cap_override ? cap_override : Table3::kPaseQueuePkts;
        const std::size_t k =
            mark_override ? mark_override : mark_threshold_for(rate);
        return std::make_unique<net::PriorityQueueBank>(num_queues, cap, k);
      };
  }
  throw std::logic_error("unknown protocol");
}

// Measured base RTT between the two most distant hosts: propagation plus a
// nominal per-hop serialization allowance for a data packet.
sim::Time estimate_rtt(topo::Topology& topo, double host_rate) {
  const net::NodeId a = topo.host(0)->id();
  const net::NodeId b = topo.host(topo.num_hosts() - 1)->id();
  const sim::Time prop = topo.propagation_rtt(a, b);
  const sim::Time serial =
      4.0 * (net::kMss + net::kDataHeaderBytes) * 8.0 / host_rate;
  return prop + serial;
}

std::unique_ptr<transport::Sender> make_sender(Run& run,
                                               const ScenarioConfig& cfg,
                                               const transport::Flow& flow,
                                               net::Host& src,
                                               sim::Time base_rtt) {
  transport::WindowSenderOptions w;
  w.initial_rtt = base_rtt;
  switch (cfg.protocol) {
    case Protocol::kDctcp:
      return std::make_unique<transport::DctcpSender>(run.sim, src, flow, w);
    case Protocol::kD2tcp:
      return std::make_unique<transport::D2tcpSender>(run.sim, src, flow, w);
    case Protocol::kL2dct:
      return std::make_unique<transport::L2dctSender>(run.sim, src, flow, w);
    case Protocol::kPfabric: {
      w = transport::PfabricSender::default_window_options();
      w.initial_rtt = base_rtt;
      return std::make_unique<transport::PfabricSender>(run.sim, src, flow, w);
    }
    case Protocol::kPdq: {
      transport::PdqSenderOptions o;
      o.initial_rtt = base_rtt;
      o.probe_interval = cfg.pdq_probe_rtts * base_rtt;
      return std::make_unique<transport::PdqSender>(run.sim, src, flow, o);
    }
    case Protocol::kPase:
      return std::make_unique<core::PaseSender>(run.sim, src, flow,
                                                *run.plane);
  }
  throw std::logic_error("unknown protocol");
}

void launch_flow(Run& run, const ScenarioConfig& cfg, transport::Flow flow,
                 sim::Time base_rtt) {
  net::Host* src = static_cast<net::Host*>(run.topo->node(flow.src));
  net::Host* dst = static_cast<net::Host*>(run.topo->node(flow.dst));
  assert(src && dst);

  auto receiver = std::make_unique<transport::Receiver>(run.sim, *dst, flow);
  auto sender = make_sender(run, cfg, flow, *src, base_rtt);

  const std::size_t rec_idx = run.record_of.at(flow.id);
  receiver->on_complete = [&run, rec_idx](transport::Receiver& r) {
    auto& rec = run.records[rec_idx];
    if (rec.finish < 0.0 && !rec.terminated) {
      rec.finish = r.completion_time();
      if (!rec.background && run.outstanding > 0) --run.outstanding;
    }
  };
  sender->on_complete = [&run, rec_idx](transport::Sender& s) {
    auto& rec = run.records[rec_idx];
    if (s.terminated() && rec.finish < 0.0 && !rec.terminated) {
      rec.terminated = true;
      if (!rec.background && run.outstanding > 0) --run.outstanding;
    }
  };

  if (cfg.protocol == Protocol::kPase && run.plane) {
    run.plane->attach_receiver(*receiver);
  }
  src->register_flow(flow.id, sender.get());
  dst->register_flow(flow.id, receiver.get());
  sender->start();

  run.senders.push_back(std::move(sender));
  run.receivers.push_back(std::move(receiver));
}

}  // namespace

ScenarioResult run_scenario(ScenarioConfig cfg) {
  // Fill topology-derived workload fields, then generate.
  if (cfg.topology == ScenarioConfig::TopologyKind::kSingleRack) {
    cfg.traffic.num_hosts = cfg.rack.num_hosts;
    cfg.traffic.host_rate_bps = cfg.rack.host_rate_bps;
    cfg.traffic.bottleneck_rate_bps = cfg.rack.host_rate_bps;
  } else {
    const int hosts = cfg.tree.num_tors * cfg.tree.hosts_per_tor;
    cfg.traffic.num_hosts = hosts;
    cfg.traffic.left_hosts = hosts / 2;
    cfg.traffic.host_rate_bps = cfg.tree.host_rate_bps;
    cfg.traffic.bottleneck_rate_bps = cfg.tree.fabric_rate_bps;
  }
  // Qualified: ADL on the workload argument types would also find the
  // refactored pase::workload overload.
  return legacy::run_scenario_with_flows(cfg,
                                         workload::generate_flows(cfg.traffic));
}

ScenarioResult run_scenario_with_flows(ScenarioConfig cfg,
                                       std::vector<transport::Flow> flows) {
  Run run;
  const auto factory = make_queue_factory(cfg);

  double host_rate = 0.0;
  if (cfg.topology == ScenarioConfig::TopologyKind::kSingleRack) {
    topo::SingleRack rack = topo::build_single_rack(run.sim, cfg.rack, factory);
    run.topo = rack.topo.get();
    run.topo_holder = std::move(rack.topo);
    host_rate = cfg.rack.host_rate_bps;
  } else {
    topo::ThreeTier tree = topo::build_three_tier(run.sim, cfg.tree, factory);
    run.topo = tree.topo.get();
    run.topo_holder = std::move(tree.topo);
    host_rate = cfg.tree.host_rate_bps;
  }

  const sim::Time base_rtt = estimate_rtt(*run.topo, host_rate);

  // Deadline workloads arbitrate/schedule EDF; others SJF.
  bool any_deadline = false;
  for (const auto& f : flows) any_deadline |= f.has_deadline();

  if (cfg.protocol == Protocol::kPase) {
    cfg.pase.rtt = base_rtt;
    cfg.pase.arbitration_period = cfg.arbitration_period_rtts * base_rtt;
    if (any_deadline &&
        cfg.pase.criterion == core::Criterion::kShortestFlowFirst) {
      cfg.pase.criterion = core::Criterion::kEarliestDeadlineFirst;
    }
    run.plane =
        std::make_unique<core::ArbitrationPlane>(run.sim, *run.topo, cfg.pase);
  }

  if (cfg.protocol == Protocol::kPdq) {
    transport::PdqOptions po = cfg.pdq;
    po.rtt = base_rtt;
    if (!any_deadline) po.early_termination = false;
    // Controllers on every switch output port...
    for (const auto& sw : run.topo->switches()) {
      auto cs = transport::PdqController::attach(run.sim, *sw, po);
      for (auto& c : cs) run.pdq_controllers.push_back(std::move(c));
    }
    // ...and on every host uplink.
    for (const auto& h : run.topo->hosts()) {
      auto c = std::make_unique<transport::PdqController>(
          run.sim, h->id(), h->nic_rate_bps(), po);
      transport::PdqController* raw = c.get();
      h->add_send_hook([raw](net::Packet& p) { raw->process(p); });
      run.pdq_controllers.push_back(std::move(c));
    }
  }

  // Map generator host indices onto node ids and set up records.
  run.records.reserve(flows.size());
  for (auto& f : flows) {
    f.src = run.topo->host(static_cast<std::size_t>(f.src))->id();
    f.dst = run.topo->host(static_cast<std::size_t>(f.dst))->id();
    stats::FlowRecord rec;
    rec.id = f.id;
    rec.size_bytes = f.size_bytes;
    rec.start = f.start_time;
    rec.deadline = f.deadline;
    rec.background = f.background;
    run.record_of[f.id] = run.records.size();
    run.records.push_back(rec);
    if (!f.background) ++run.outstanding;
  }

  // Schedule flow launches.
  const std::uint32_t setup_base = run.plane ? run.plane->setup_events() : 0;
  for (std::uint32_t i = 0; i < flows.size(); ++i) {
    const transport::Flow& f = flows[i];
    run.sim.schedule_setup_at(f.start_time, setup_base + i,
                              static_cast<std::uint32_t>(f.src),
                              [&run, &cfg, f, base_rtt] {
                                launch_flow(run, cfg, f, base_rtt);
                              });
  }

  // Run until every short flow completes (or the hard cap).
  const sim::Time step = 10e-3;
  while (run.outstanding > 0 && run.sim.now() < cfg.max_duration) {
    const sim::Time before = run.sim.now();
    run.sim.run(std::min(cfg.max_duration, run.sim.now() + step));
    if (run.sim.now() == before && run.sim.pending_events() == 0) break;
  }

  ScenarioResult result;
  result.records = std::move(run.records);
  result.end_time = run.sim.now();
  result.fabric_drops = run.topo->total_drops();
  for (const auto& s : run.senders) {
    result.data_packets_sent += s->data_packets_sent();
    result.probes_sent += s->probes_sent();
  }
  if (run.plane) result.control = run.plane->stats();
  return result;
}

}  // namespace pase::legacy
