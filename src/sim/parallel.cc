#include "sim/parallel.h"

#include <algorithm>

#include "obs/trace.h"
#include "sim/dcheck.h"

namespace pase::sim {

namespace {
int clamp_workers(int domains, int workers) {
  return std::max(1, std::min(workers, domains));
}
}  // namespace

ParallelEngine::ParallelEngine(int domains, int workers)
    : lineage_(domains),
      pub_(static_cast<std::size_t>(domains)),
      workers_(static_cast<std::size_t>(clamp_workers(domains, workers))),
      start_barrier_(clamp_workers(domains, workers)),
      round_barrier_(clamp_workers(domains, workers)) {
  PASE_DCHECK(domains >= 1);
  sims_.reserve(static_cast<std::size_t>(domains));
  for (int d = 0; d < domains; ++d) {
    sims_.push_back(std::make_unique<Simulator>());
    // One domain is a sequential run: its FIFO order is the order.
    if (domains > 1) {
      sims_.back()->enable_det(static_cast<std::uint32_t>(d), &lineage_);
    }
  }
  // Mailboxes grow to their steady size in the first windows and keep it
  // (clear() retains capacity); with one domain per pod there are D^2 of
  // them, so none is pre-sized.
  mail_.resize(static_cast<std::size_t>(domains) *
               static_cast<std::size_t>(domains));
  const int n = num_workers();
  for (int w = 0; w < n; ++w) {
    Worker& wk = workers_[static_cast<std::size_t>(w)];
    wk.begin = w * domains / n;
    wk.end = (w + 1) * domains / n;
  }
  reset_claims();
}

ParallelEngine::~ParallelEngine() {
  if (threads_started_) {
    exit_ = true;
    start_barrier_.arrive_and_wait([] {});
    for (auto& t : threads_) t.join();
  }
  // A run may end with cross-domain deliveries still in a mailbox; their
  // destination domain's registration knows what each record's arg owns.
  const int n = num_domains();
  for (std::size_t i = 0; i < mail_.size(); ++i) {
    const Simulator& dst = domain(static_cast<int>(i) % n);
    for (const CrossRecord& r : mail_[i]) dst.dispose_arg(r.fn, r.arg);
  }
}

void ParallelEngine::post(int src, int dst, Time deliver_t, RawFn fn,
                          void* ctx, void* arg) {
  mailbox(src, dst).push_back(
      CrossRecord{deliver_t, domain(src).make_post_node(), fn, ctx, arg});
  cross_posts_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t ParallelEngine::pending_events() const {
  std::size_t n = 0;
  for (const auto& s : sims_) n += s->pending_events();
  for (const auto& box : mail_) n += box.size();
  return n;
}

void ParallelEngine::start_threads() {
  threads_started_ = true;
  threads_.reserve(workers_.size() - 1);
  for (int w = 1; w < num_workers(); ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
  if (thread_init_) thread_init_();
}

void ParallelEngine::worker_main(int w) {
  if (thread_init_) thread_init_();
  for (;;) {
    start_barrier_.arrive_and_wait([] {});
    if (exit_) return;
    run_rounds(w);
  }
}

int ParallelEngine::claim(int w) {
  const int n = num_workers();
  for (int i = 0; i < n; ++i) {
    Worker& b = workers_[static_cast<std::size_t>((w + i) % n)];
    // Exclusivity is all the claim needs: the domain's state was handed
    // over by the barrier that opened this round.
    if (b.next.load(std::memory_order_relaxed) >= b.end) continue;
    const int d = b.next.fetch_add(1, std::memory_order_relaxed);
    if (d < b.end) {
      obs::install_tracer(pub_[static_cast<std::size_t>(d)].trace);
      return d;
    }
  }
  return -1;
}

void ParallelEngine::reset_claims() {
  for (Worker& w : workers_) w.next.store(w.begin, std::memory_order_relaxed);
}

void ParallelEngine::drain_inbox(int d) {
  Simulator& sd = domain(d);
  for (int s = 0; s < num_domains(); ++s) {
    if (s == d) continue;
    auto& box = mailbox(s, d);
    for (const CrossRecord& r : box) {
      // A sound horizon keeps every delivery strictly ahead of the
      // destination: the poster's published bound capped this domain's last
      // window. Equality would already be an ordering hazard — this domain
      // may have executed same-instant events that sort after the record.
      PASE_DCHECK(r.t > sd.now() && "cross delivery behind the horizon");
      sd.schedule_injected(r.t, r.node, r.fn, r.ctx, r.arg);
    }
    box.clear();
  }
}

void ParallelEngine::publish(int d) {
  DomainPub& pub = pub_[static_cast<std::size_t>(d)];
  const Time nt = domain(d).next_event_time();
  pub.next_t = nt;
  if (nt == kTimeInfinity) {
    pub.bound = kTimeInfinity;
  } else if (probe_) {
    pub.bound = probe_(d, nt);
    PASE_DCHECK(pub.bound >= nt + lookahead_ &&
                "horizon probe returned less than the static bound");
  } else {
    pub.bound = nt + lookahead_;
  }
}

void ParallelEngine::compact() {
  PASE_DCHECK(num_domains() > 1 && "one domain keeps no lineage");
  live_refs_.clear();
  trace_keys_.clear();
  const auto keep = [this](DetLineage::NodeId& id) {
    live_refs_.push_back(&id);
  };
  for (auto& s : sims_) s->for_each_lineage_ref(keep);
  for (auto& box : mail_) {
    for (CrossRecord& r : box) keep(r.node);
  }
  for (const DomainPub& p : pub_) {
    if (p.trace == nullptr) continue;
    p.trace->for_each_unsealed([this](obs::TraceEvent& e) {
      if (e.order != obs::kNoOrder) trace_keys_.push_back(&e.order);
    });
  }
  lineage_.compact(live_refs_, trace_keys_);
  for (const DomainPub& p : pub_) {
    if (p.trace != nullptr) p.trace->seal();
  }
}

void ParallelEngine::decide() {
  // Leader-only, inside a barrier: every domain published its slot (and any
  // cross posts it made) before arriving, and the acq_rel arrival chain
  // makes those writes visible here.
  ++rounds_;
  // Every mailbox is empty (just drained, or nobody posted) and every event
  // before the coming window has run: the instants so far are closed.
  if (round_hook_) round_hook_();
  if (lineage_.compaction_due()) compact();
  Time m = kTimeInfinity;
  Time h = kTimeInfinity;
  for (const DomainPub& p : pub_) {
    m = std::min(m, p.next_t);
    h = std::min(h, p.bound);
  }
  if (h > target_) {
    // Every remaining event <= target is safe: any delivery it generates
    // lands at >= its domain's bound >= h > target, i.e. in a later chunk.
    round_ = Round::kFinish;
  } else {
    round_ = Round::kWindow;
    horizon_ = h;
    horizon_width_sum_ += h - m;
    ++window_rounds_;
  }
  posts_at_decide_ = cross_posts_.load(std::memory_order_relaxed);
}

void ParallelEngine::run_rounds(int w) {
  double waited = 0.0;
  for (;;) {
    switch (round_) {
      case Round::kDrain:
        // Mailboxes were last written during a run phase sealed by the
        // barrier that ended it; after this drain the union of all calendars
        // is the complete global pending set, so the published minima are
        // exact and the probe sees empty mailboxes.
        for (int d = claim(w); d >= 0; d = claim(w)) {
          drain_inbox(d);
          publish(d);
        }
        waited += round_barrier_.arrive_and_wait([this] {
          reset_claims();
          ++drains_;
          decide();
        });
        break;

      case Round::kWindow:
        for (int d = claim(w); d >= 0; d = claim(w)) {
          domain(d).run_before(horizon_);
          publish(d);
        }
        waited += round_barrier_.arrive_and_wait([this] {
          reset_claims();
          if (cross_posts_.load(std::memory_order_relaxed) ==
              posts_at_decide_) {
            // Quiet window: nobody posted, so the mailboxes are still empty
            // and the values just published are complete — decide the next
            // horizon right here and skip the drain round entirely.
            ++quiet_rounds_;
            decide();
          } else {
            // Published minima exclude the mailbox contents; discard them
            // and drain first.
            round_ = Round::kDrain;
          }
        });
        break;

      case Round::kFinish:
        for (int d = claim(w); d >= 0; d = claim(w)) {
          domain(d).run(target_);  // inclusive; also advances the clock
        }
        waited += round_barrier_.arrive_and_wait([this] { reset_claims(); });
        workers_[static_cast<std::size_t>(w)].barrier_wait += waited;
        // Seals the barrier_wait writes: the caller reads them only after
        // worker 0 passes this barrier.
        round_barrier_.arrive_and_wait([] {});
        return;
    }
  }
}

void ParallelEngine::run_until(Time target) {
  if (!threads_started_) start_threads();
  obs::TraceBuffer* const caller_trace = obs::tracer();
  if (num_domains() == 1) {
    obs::install_tracer(pub_[0].trace);
    domain(0).run(target);
    obs::install_tracer(caller_trace);
    now_ = target;
    return;
  }
  PASE_DCHECK(lookahead_ > 0.0 && "parallel run requires positive lookahead");
  const std::uint64_t rounds_before = rounds_;
  const std::uint64_t posts_before = cross_posts();
  const std::uint64_t drains_before = drains_;
  const std::uint64_t wrounds_before = window_rounds_;
  const double width_before = horizon_width_sum_;
  target_ = target;
  // The finish phase of the previous chunk may have posted deliveries that
  // land in this chunk; always open with a drain.
  round_ = Round::kDrain;
  start_barrier_.arrive_and_wait([] {});
  run_rounds(0);
  obs::install_tracer(caller_trace);
  now_ = target;
  ++windows_;
  if (obs::TraceBuffer* tb = pub_[0].trace; tb != nullptr) [[unlikely]] {
    // Engine self-profiling is inherently worker-count dependent; it lives
    // in its own category so determinism tests can filter it out.
    const std::uint64_t dw = window_rounds_ - wrounds_before;
    const double mean_width =
        dw == 0 ? 0.0 : (horizon_width_sum_ - width_before) /
                            static_cast<double>(dw);
    tb->emit_at(target, obs::kEngineCat, obs::EventType::kParallelRound, 0,
                mean_width, static_cast<double>(drains_ - drains_before),
                static_cast<std::uint32_t>(rounds_ - rounds_before),
                static_cast<std::uint32_t>(cross_posts() - posts_before));
  }
}

}  // namespace pase::sim
