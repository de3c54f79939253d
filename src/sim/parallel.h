// Conservative barrier-synchronous parallel execution of one simulation.
//
// The network is partitioned into domains, one Simulator each, run by a
// smaller or equal number of worker threads. Every cross-domain interaction
// is a Link delivery whose propagation delay is at least the partition
// lookahead L, so the classic conservative-PDES window applies: with m = min
// over domains of the next pending event time, no cross-domain delivery can
// land before H = m + L, and every event in [m, H) can run without hearing
// from any other domain. The engine runs three kinds of barrier-separated
// rounds:
//
//   drain   — every domain empties its incoming mailboxes into its calendar
//             (after which the union of calendars is the complete global
//             pending set) and publishes its next event time; the barrier
//             leader picks H = m + L.
//   window  — every domain runs up to (exclusive) H, posting cross-domain
//             deliveries into mailboxes. If nobody posted, the published
//             values are still complete — the leader picks the next H at the
//             same barrier and the drain round is skipped entirely (one
//             barrier per quiet round instead of two).
//   finish  — H passed the caller's target: every domain runs inclusively to
//             the target and sets its clock there, exactly the semantics of
//             Simulator::run(target), so the chunked scenario driver behaves
//             identically at any domain count.
//
// Scheduling: domains are not pinned to threads. Worker w owns the block of
// domains [w*D/W, (w+1)*D/W); in every round it claims domains from its own
// block first, then steals unclaimed ones from the other blocks in ring
// order, so no worker waits at a barrier while another still has domains
// left to run. Each block's claim cursor is reset by the round leader inside
// the barrier. With as many domains as workers nobody ever steals.
//
// Determinism: no decision depends on thread scheduling. The horizon is
// computed by whichever thread arrives last from the published per-domain
// next-event times. Events order by the fixed key of sim/simulator.h, which
// every domain computes the same way a sequential run does; a mailbox record
// carries the key its source domain drew for it, so an injected delivery
// sorts against local events exactly where a local delivery would. Which
// worker runs a domain never matters: a domain's event order depends only
// on its calendar, each domain runs on one thread per round, and every
// handoff of a domain between threads crosses a barrier. All mailbox
// access is separated by barriers too: producers append only during run
// phases, consumers drain only between them, so each mailbox has one writer
// per window. The only thread-local state a domain touches is the packet
// pool (packets may migrate between pools, as they do across cut links) and
// the tracer, which follows the domain: its trace ring is installed on the
// claiming thread before the domain runs. The horizon decides only *when*
// events run, never their order, so traces stay bit-identical across worker
// counts.
//
// One domain: the engine is then the sequential simulator. The domain runs
// on the caller's thread — run_until is Simulator::run with the domain's
// trace ring installed — so there is no lookahead, mailbox or barrier.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sim/simulator.h"

namespace pase::obs {
class TraceBuffer;
}

namespace pase::sim {

class ParallelEngine {
 public:
  // Creates `domains` Simulators, run by min(workers, domains) threads: the
  // caller's (worker 0) plus the rest, started lazily on the first
  // run_until.
  ParallelEngine(int domains, int workers);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  int num_domains() const { return static_cast<int>(sims_.size()); }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  Simulator& domain(int d) { return *sims_[static_cast<std::size_t>(d)]; }

  // Minimum propagation delay over all cut links; with more than one domain
  // it must be positive and set before the first run_until.
  void set_lookahead(Time lookahead) { lookahead_ = lookahead; }

  // Runs once on each worker thread before its first round (and once on the
  // caller's thread, worker 0, at the first run_until): thread-local warmup
  // such as packet-pool prewarming.
  void set_thread_init(std::function<void()> fn) {
    thread_init_ = std::move(fn);
  }

  // Domain d's trace ring: installed as the running thread's tracer before
  // d runs, whichever worker claimed it, so every record lands in the ring
  // of the domain that emitted it. Unset: d runs untraced.
  void set_domain_trace(int d, obs::TraceBuffer* trace) {
    pub_[static_cast<std::size_t>(d)].trace = trace;
  }

  // Posts a cross-domain event: fires at `deliver_t` in `dst`, executing at
  // network node `node`, with the key `src`'s executing event draws for it
  // right now (Simulator::next_key). Must be called from the thread
  // currently running domain `src`, during a run phase.
  void post(int src, int dst, Time deliver_t, std::uint32_t node, RawFn fn,
            void* ctx, void* arg);

  // Advances every domain clock to exactly `target` (monotonically
  // increasing across calls), executing all events at times <= target.
  void run_until(Time target);

  // Clock reached by run_until so far (all domains agree at return).
  Time now() const { return now_; }

  // --- Self-profiling (read between run_until calls) ----------------------
  // Horizon decisions made so far (each picks one window or ends the chunk).
  std::uint64_t rounds_executed() const { return rounds_; }
  // run_until windows completed.
  std::uint64_t windows_executed() const { return windows_; }
  // Cross-domain mailbox records posted (mailbox traffic).
  std::uint64_t cross_posts() const {
    return cross_posts_.load(std::memory_order_relaxed);
  }
  // Mailbox drain rounds executed (every one is a full barrier crossing; the
  // gap to rounds_executed() is rounds that skipped the drain).
  std::uint64_t drains_executed() const { return drains_; }
  // Windows after which no domain had posted: their drain was elided.
  std::uint64_t quiet_rounds() const { return quiet_rounds_; }
  // Mean width H - m (seconds) of the windows run so far: the lookahead,
  // up to rounding.
  double mean_horizon_width() const {
    return window_rounds_ == 0
               ? 0.0
               : horizon_width_sum_ / static_cast<double>(window_rounds_);
  }
  // Total wall-clock seconds threads spent blocked in round barriers after
  // the bounded spin phase (summed over workers; load-imbalance signal).
  double barrier_wait_sec() const {
    double s = 0.0;
    for (const Worker& w : workers_) s += w.barrier_wait;
    return s;
  }

 private:
  struct CrossRecord {
    Time t;
    std::uint64_t key;
    RawFn fn;
    void* ctx;
    void* arg;
    std::uint32_t tag;
  };

  // Per-domain slots published between barriers, padded so neighbouring
  // domains never share a cache line.
  struct alignas(64) DomainPub {
    Time next_t = kTimeInfinity;  // next pending event time
    obs::TraceBuffer* trace = nullptr;  // the domain's trace ring, if any
  };

  // Per-worker state: the claim cursor over the worker's block of domains
  // [begin, end) — bumped by the owner and by thieves during a round, reset
  // to begin by the round leader — and the worker's own barrier wait.
  struct alignas(64) Worker {
    std::atomic<int> next{0};
    int begin = 0;
    int end = 0;
    double barrier_wait = 0.0;  // accumulated post-spin barrier wait (sec)
  };

  // Sense-reversing barrier; the last arriver runs `leader_fn` before
  // releasing the others, which gives every shared decision a happens-before
  // edge to every waiter (acq_rel RMW chain into the release store).
  // Waiters spin (with a CPU pause) for a bounded burst — round trips are
  // usually shorter than a context switch — then fall back to yielding.
  // Returns the wall-clock seconds spent in the yield phase (0 when the
  // release arrived during the spin burst, and for the leader).
  class Barrier {
   public:
    explicit Barrier(int n) : n_(n) {}

    template <typename Fn>
    double arrive_and_wait(Fn&& leader_fn) {
      const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
      if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
        leader_fn();
        arrived_.store(0, std::memory_order_relaxed);
        epoch_.store(e + 1, std::memory_order_release);
        return 0.0;
      }
      for (int i = 0; i < kSpinIters; ++i) {
        if (epoch_.load(std::memory_order_acquire) != e) return 0.0;
        cpu_pause();
      }
      const auto t0 = std::chrono::steady_clock::now();
      while (epoch_.load(std::memory_order_acquire) == e) {
        std::this_thread::yield();
      }
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    }

   private:
    static constexpr int kSpinIters = 4096;
    static void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
    }

    const int n_;
    std::atomic<int> arrived_{0};
    std::atomic<std::uint64_t> epoch_{0};
  };

  std::vector<CrossRecord>& mailbox(int src, int dst) {
    return mail_[static_cast<std::size_t>(src) *
                     static_cast<std::size_t>(num_domains()) +
                 static_cast<std::size_t>(dst)];
  }

  void start_threads();
  void worker_main(int w);
  void run_rounds(int w);
  // Claims the next domain of this round for worker w: its own block
  // first, then the other blocks in ring order; -1 once all are claimed.
  // Installs the claimed domain's trace ring on the calling thread.
  int claim(int w);
  void reset_claims();  // barrier-leader only
  void drain_inbox(int d);
  void publish(int d);
  void decide();  // barrier-leader only

  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<std::vector<CrossRecord>> mail_;  // [src * D + dst]
  std::vector<DomainPub> pub_;                  // published per round
  std::vector<Worker> workers_;
  Time lookahead_ = 0.0;
  Time now_ = 0.0;

  // Command state, written by the caller before the start barrier.
  Time target_ = 0.0;
  bool exit_ = false;
  // Round decision, written by the barrier leader (or the caller, who forces
  // a drain at the top of each run_until to pick up finish-phase leftovers).
  enum class Round { kDrain, kWindow, kFinish } round_ = Round::kDrain;
  Time horizon_ = 0.0;

  // Self-profiling. The plain counters are written only by the round-barrier
  // leader (serialized by the barrier itself); cross_posts_ is bumped
  // concurrently from run phases, hence atomic (relaxed: it is a statistic,
  // ordered for readers by the barriers that end each window).
  std::uint64_t rounds_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t drains_ = 0;
  std::uint64_t quiet_rounds_ = 0;
  std::uint64_t window_rounds_ = 0;
  double horizon_width_sum_ = 0.0;
  std::uint64_t posts_at_decide_ = 0;
  std::atomic<std::uint64_t> cross_posts_{0};

  Barrier start_barrier_;
  Barrier round_barrier_;
  std::vector<std::thread> threads_;
  bool threads_started_ = false;
  std::function<void()> thread_init_;
};

}  // namespace pase::sim
