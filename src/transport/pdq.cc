#include "transport/pdq.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/trace.h"

namespace pase::transport {

// ---------------------------------------------------------------------------
// PdqController

PdqController::PdqController(sim::Simulator& sim, net::NodeId node,
                             double capacity_bps, PdqOptions opts)
    : sim_(&sim), node_(node), capacity_(capacity_bps), opts_(opts) {}

bool PdqController::more_critical(const Entry& a, const Entry& b) {
  const bool da = a.deadline > 0.0;
  const bool db = b.deadline > 0.0;
  if (da != db) return da;  // deadline flows outrank no-deadline flows
  if (da && a.deadline != b.deadline) return a.deadline < b.deadline;
  if (a.remaining != b.remaining) return a.remaining < b.remaining;
  return a.id < b.id;
}

PdqController::Entry& PdqController::find_or_insert(const net::Packet& p) {
  for (auto& e : flows_) {
    if (e.id == p.flow) return e;
  }
  Entry e{p.flow, p.pdq.expected_remaining, p.pdq.deadline, p.pdq.demand,
          net::kInvalidNode, sim_->now()};
  auto it = std::lower_bound(
      flows_.begin(), flows_.end(), e,
      [](const Entry& a, const Entry& b) { return more_critical(a, b); });
  return *flows_.insert(it, e);
}

void PdqController::reposition(std::size_t idx) {
  Entry e = flows_[idx];
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(idx));
  auto it = std::lower_bound(
      flows_.begin(), flows_.end(), e,
      [](const Entry& a, const Entry& b) { return more_critical(a, b); });
  flows_.insert(it, e);
}

void PdqController::erase_flow(net::FlowId id) {
  for (auto it = flows_.begin(); it != flows_.end(); ++it) {
    if (it->id == id) {
      flows_.erase(it);
      return;
    }
  }
}

void PdqController::prune_stale() {
  if (sim_->now() - last_prune_ < opts_.entry_timeout) return;
  last_prune_ = sim_->now();
  const sim::Time cutoff = sim_->now() - opts_.entry_timeout;
  std::erase_if(flows_, [cutoff](const Entry& e) { return e.last_seen < cutoff; });
}

double PdqController::allocate(net::FlowId flow, double demand) {
  double avail = capacity_ * opts_.utilization;
  double blocker_finish = sim::kTimeInfinity;  // soonest finish among blockers
  bool exhausted = false;
  bool next_in_line = true;  // is `flow` first in line once capacity is full?
  for (const auto& e : flows_) {
    if (e.id == flow) break;  // flows_ is sorted; everything before is more critical
    if (e.pauser != net::kInvalidNode && e.pauser != node_) {
      continue;  // paused elsewhere: consumes nothing here
    }
    if (exhausted) {
      // Another waiting flow outranks `flow`; the early start is its, not ours.
      next_in_line = false;
      break;
    }
    const double share =
        std::min(e.remaining > 0 ? std::min(e.demand, capacity_) : 0.0, avail);
    if (share > 0) {
      blocker_finish =
          std::min(blocker_finish, e.remaining * 8.0 / share);
    }
    avail -= share;
    if (avail <= 0.0) exhausted = true;
  }
  if (!exhausted) return std::min(demand, std::max(avail, 0.0));
  // Early Start: only the next flow in criticality order may spin up, and
  // only while the blocking flow is within K RTTs of finishing — the link
  // never idles across the switchover, yet the fabric is not flooded by
  // every waiting flow at once.
  if (opts_.early_start && next_in_line &&
      blocker_finish < opts_.early_start_rtts * opts_.rtt) {
    return demand;
  }
  return 0.0;
}

void PdqController::process(net::Packet& p) {
  if (p.type != net::PacketType::kData && p.type != net::PacketType::kProbe) {
    return;
  }
  prune_stale();
  Entry& e = find_or_insert(p);
  e.remaining = p.pdq.expected_remaining;
  e.deadline = p.pdq.deadline;
  e.demand = p.pdq.demand;
  e.last_seen = sim_->now();
  // The sender echoes the pauser it learned last round; a foreign pauser
  // means this flow consumes no capacity here.
  if (p.pdq.pauser != net::kInvalidNode && p.pdq.pauser != node_) {
    e.pauser = p.pdq.pauser;
  } else {
    e.pauser = net::kInvalidNode;
  }
  // Keep the criticality order correct after the remaining-size update.
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].id == p.flow) {
      reposition(i);
      break;
    }
  }

  // Early termination: even the full link cannot meet the deadline.
  if (opts_.early_termination && p.pdq.deadline > 0.0) {
    const double best_finish =
        sim_->now() + p.pdq.expected_remaining * 8.0 / capacity_;
    if (best_finish > p.pdq.deadline) {
      p.pdq.terminated = true;
    }
  }

  if (p.fin) {
    // Grant the final packet whatever the header already carries and drop
    // our state; a retransmission would simply re-add it.
    erase_flow(p.flow);
    return;
  }
  if (p.pdq.paused) return;  // an upstream controller already paused it

  const double granted =
      allocate(p.flow, std::min(p.pdq.demand, capacity_));
  if (granted > 0.0) {
    p.pdq.rate = std::min(p.pdq.rate, granted);
  } else {
    p.pdq.rate = 0.0;
    p.pdq.paused = true;
    p.pdq.pauser = node_;
    for (auto& f : flows_) {
      if (f.id == p.flow) {
        f.pauser = node_;
        break;
      }
    }
  }
}

std::vector<std::unique_ptr<PdqController>> PdqController::attach(
    sim::Simulator& sim, net::Switch& sw, PdqOptions opts) {
  std::vector<std::unique_ptr<PdqController>> controllers;
  for (int port = 0; port < sw.num_ports(); ++port) {
    controllers.push_back(std::make_unique<PdqController>(
        sim, sw.id(), sw.port_link(port).rate_bps(), opts));
  }
  std::vector<PdqController*> raw;
  raw.reserve(controllers.size());
  for (auto& c : controllers) raw.push_back(c.get());
  sw.add_forward_hook([raw](net::Packet& p, int out_port) {
    raw[static_cast<std::size_t>(out_port)]->process(p);
  });
  return controllers;
}

// ---------------------------------------------------------------------------
// PdqSender

PdqSender::PdqSender(sim::Simulator& sim, net::Host& host, Flow flow,
                     PdqSenderOptions opts)
    : Sender(host, flow),
      sim_(&sim),
      opts_(opts),
      total_(flow.num_packets()),
      pace_timer_(sim, [this] { pace_next(); }),
      probe_timer_(sim, [this] { send_probe(); }),
      rto_timer_(sim, [this] { on_rto(); }) {
  assert(total_ > 0);
}

void PdqSender::fill_pdq(net::Packet& p) {
  p.pdq.rate = std::numeric_limits<double>::infinity();
  p.pdq.paused = false;
  p.pdq.deadline = flow().deadline;
  p.pdq.expected_remaining =
      static_cast<double>(flow().size_bytes) -
      static_cast<double>(snd_una_) * net::kMss;
  p.pdq.demand = host().nic_rate_bps();
  p.pdq.pauser = known_pauser_;
  p.deadline = flow().deadline;
}

void PdqSender::start() {
  if (obs::TraceBuffer* tb = obs::tracer(); tb != nullptr) [[unlikely]] {
    tb->emit(obs::kFlowCat, obs::EventType::kFlowStart, flow().id,
             static_cast<double>(flow().size_bytes), flow().deadline);
  }
  // 1-RTT setup: a SYN-like probe fetches the initial rate before any data
  // moves — the flow-switching cost arbitration-only designs pay.
  send_probe();
}

void PdqSender::send_probe() {
  auto p = net::make_control_packet(net::PacketType::kProbe, flow().id,
                                    flow().src, flow().dst);
  p->ts = sim_->now();
  fill_pdq(*p);
  host().send(std::move(p));
  probe_timer_.restart(opts_.probe_interval);
  if (!rto_timer_.pending()) rto_timer_.restart(opts_.min_rto);
}

void PdqSender::apply_feedback(const net::PdqHeader& h) {
  if (h.terminated && flow().deadline > 0.0) {
    pace_timer_.cancel();
    probe_timer_.cancel();
    rto_timer_.cancel();
    mark_terminated();
    return;
  }
  known_pauser_ = h.paused ? h.pauser : net::kInvalidNode;
  const double new_rate = h.paused || !std::isfinite(h.rate) ? 0.0 : h.rate;
  rate_ = new_rate;
  if (obs::TraceBuffer* tb = obs::tracer(); tb != nullptr) [[unlikely]] {
    tb->emit(obs::kEndpointCat, obs::EventType::kRateSample, flow().id, rate_,
             0.0, h.paused ? 1u : 0u);
  }
  if (rate_ > 0.0) {
    probe_timer_.cancel();
    if (!pacing_scheduled_ && next_to_send_ < total_) {
      pacing_scheduled_ = true;
      pace_timer_.restart(0.0);
    }
  } else {
    pace_timer_.cancel();
    pacing_scheduled_ = false;
    if (!probe_timer_.pending()) probe_timer_.restart(opts_.probe_interval);
  }
}

void PdqSender::process_cumulative_ack(const net::Packet& ack) {
  if (ack.ack_seq > snd_una_) {
    snd_una_ = ack.ack_seq;
    if (next_to_send_ < snd_una_) next_to_send_ = snd_una_;
    if (snd_una_ >= total_) {
      pace_timer_.cancel();
      probe_timer_.cancel();
      rto_timer_.cancel();
      mark_finished();
      return;
    }
    rto_timer_.restart(opts_.min_rto);
  }
}

void PdqSender::deliver(net::PacketPtr p) {
  if (finished()) return;
  if (p->type != net::PacketType::kAck &&
      p->type != net::PacketType::kProbeAck) {
    return;
  }
  apply_feedback(p->pdq);
  if (finished()) return;  // terminated
  process_cumulative_ack(*p);
}

void PdqSender::pace_next() {
  pacing_scheduled_ = false;
  if (finished() || rate_ <= 0.0) return;
  if (next_to_send_ >= total_) return;  // all data out; wait for ACKs/RTO
  const std::uint32_t seq = next_to_send_++;
  auto p = net::make_data_packet(flow().id, flow().src, flow().dst, seq,
                                 flow().payload_of(seq));
  p->fin = (seq + 1 == total_);
  p->ts = sim_->now();
  fill_pdq(*p);
  ++packets_sent_;
  const auto wire_bytes = p->size_bytes;
  host().send(std::move(p));
  if (!rto_timer_.pending()) rto_timer_.restart(opts_.min_rto);
  if (next_to_send_ < total_) {
    pacing_scheduled_ = true;
    pace_timer_.restart(wire_bytes * 8.0 / rate_);
  }
}

void PdqSender::on_rto() {
  if (finished()) return;
  // Resume from the first unacknowledged packet.
  next_to_send_ = snd_una_;
  ++retransmissions_;
  if (rate_ > 0.0) {
    if (!pacing_scheduled_) {
      pacing_scheduled_ = true;
      pace_timer_.restart(0.0);
    }
  } else {
    send_probe();
  }
  rto_timer_.restart(opts_.min_rto);
}

}  // namespace pase::transport
