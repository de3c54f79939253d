#include "transport/window_sender.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace pase::transport {

WindowSender::WindowSender(sim::Simulator& sim, net::Host& host, Flow flow,
                           WindowSenderOptions opts)
    : Sender(host, flow),
      sim_(&sim),
      opts_(opts),
      total_(flow.num_packets()),
      cwnd_(opts.init_cwnd),
      srtt_(opts.initial_rtt),
      rttvar_(opts.initial_rtt / 2),
      retransmitted_(flow.num_packets(), false),
      rto_timer_(sim, [this] { handle_timeout(); }) {
  assert(total_ > 0 && "empty flow");
  assert(host.id() == flow.src && "sender must live on the flow source");
}

void WindowSender::start() {
  if (obs::TraceBuffer* tb = obs::tracer(); tb != nullptr) [[unlikely]] {
    tb->emit(obs::kFlowCat, obs::EventType::kFlowStart, flow().id,
             static_cast<double>(flow().size_bytes), flow().deadline);
  }
  on_start();
  try_send();
}

void WindowSender::set_cwnd(double w) {
  cwnd_ = std::clamp(w, 1.0, opts_.max_cwnd);
}

sim::Time WindowSender::base_rto() const {
  return std::max(opts_.min_rto, srtt_ + 4 * rttvar_);
}

void WindowSender::restart_rto() {
  rto_timer_.restart(base_rto() * rto_backoff_);
}

void WindowSender::try_send() {
  if (finished()) return;
  const auto window =
      static_cast<std::uint32_t>(std::max(1.0, cwnd_)) + dup_inflation_;
  while (snd_next_ < total_ && in_flight() < window) {
    send_packet(snd_next_, /*is_retransmission=*/false);
    ++snd_next_;
  }
  if (in_flight() > 0 && !rto_timer_.pending()) restart_rto();
}

void WindowSender::send_packet(std::uint32_t seq, bool is_retransmission) {
  auto p = net::make_data_packet(flow().id, flow().src, flow().dst, seq,
                                 flow().payload_of(seq));
  p->fin = (seq + 1 == total_);
  p->ts = sim_->now();
  p->deadline = flow().deadline;
  p->remaining_size = remaining_bytes();
  fill_data(*p);
  ++packets_sent_;
  if (is_retransmission) {
    ++retransmissions_;
    retransmitted_[seq] = true;
  }
  host().send(std::move(p));
}

void WindowSender::deliver(net::PacketPtr p) {
  if (finished()) return;
  if (p->type == net::PacketType::kAck) process_ack(*p);
  // kProbeAck is ignored here; PASE overrides deliver() to use it.
}

void WindowSender::process_ack(const net::Packet& ack) {
  if (ack.ack_seq > snd_una_) {
    // New data acknowledged.
    snd_una_ = ack.ack_seq;
    dupacks_ = 0;
    dup_inflation_ = 0;
    rto_backoff_ = 1.0;
    if (ack.seq < total_ && !retransmitted_[ack.seq]) {
      // Karn's rule: only un-retransmitted packets give RTT samples.
      const sim::Time sample = sim_->now() - ack.echo_ts;
      if (sample > 0) {
        rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - sample);
        srtt_ = 0.875 * srtt_ + 0.125 * sample;
      }
    }
    if (snd_una_ >= total_) {
      rto_timer_.cancel();
      mark_finished();
      return;
    }
    if (in_recovery_) {
      if (snd_una_ >= recovery_point_) {
        in_recovery_ = false;
      } else {
        // Partial ACK: the next hole is known; retransmit it immediately.
        send_packet(snd_una_, /*is_retransmission=*/true);
      }
    }
    on_ack(ack);
    if (obs::TraceBuffer* tb = obs::tracer(); tb != nullptr) [[unlikely]] {
      tb->emit(obs::kEndpointCat, obs::EventType::kCwndSample, flow().id,
               cwnd_, srtt_);
    }
    restart_rto();
  } else if (ack.ack_seq == snd_una_ && in_flight() > 0) {
    ++dupacks_;
    if (dupacks_ == opts_.dupack_threshold && !in_recovery_) {
      enter_recovery();
    } else if (in_recovery_ && dupacks_ > opts_.dupack_threshold) {
      // NewReno window inflation: every further dupack means a packet left
      // the network, so one new packet may enter and keep the pipe full.
      ++dup_inflation_;
    }
  }
  try_send();
}

void WindowSender::enter_recovery() {
  in_recovery_ = true;
  recovery_point_ = snd_next_;
  set_cwnd(cwnd_ * (1.0 - loss_decrease_factor()));
  send_packet(snd_una_, /*is_retransmission=*/true);
  restart_rto();
}

void WindowSender::timeout_retransmit() {
  record_timeout();
  backoff_rto();
  set_cwnd(1.0);
  in_recovery_ = false;
  dupacks_ = 0;
  dup_inflation_ = 0;
  send_packet(snd_una_, /*is_retransmission=*/true);
  restart_rto();
  on_timeout();
}

void WindowSender::handle_timeout() { timeout_retransmit(); }

}  // namespace pase::transport
