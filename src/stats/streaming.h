// Fixed-memory streaming statistics over flow outcomes.
//
// The exact pipeline keeps one FlowRecord per flow and computes metrics by
// sorting FCT vectors — fine at the paper's ~1200 flows, fatal at 10^6. This
// header provides the streaming alternative selected by
// ScenarioConfig::stats_mode: every completed (or abandoned) flow is folded
// into a few hundred bytes of state and then forgotten, so statistics memory
// is O(1) in the flow count.
//
//   - P2Quantile: the P-squared algorithm (Jain & Chlamtac, CACM 1985) — five
//     markers tracking one quantile with piecewise-parabolic adjustment.
//     Cheap (O(1) per sample) but heuristic; the telemetry plane's whole-run
//     utilization p99 uses it.
//   - LogHistogram: fixed-size log-bucketed counts. percentile() walks the
//     cumulative counts to the bucket holding the requested rank, so its
//     error is bounded by one bucket width by construction — this is the
//     representation ScenarioResult's fct_p99()/fct_cdf() report in
//     streaming mode, and the bound the exact-vs-streaming tolerance tests
//     pin (see tests/streaming_stats_test.cc).
//   - StreamingFlowStats: the FlowRecord sink — running mean/count for AFCT,
//     deadline hit/miss counters for application throughput, unfinished and
//     terminated counts, plus the histogram above for the FCT distribution.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/flow_stats.h"
#include "stats/summary.h"

namespace pase::stats {

// P-squared single-quantile estimator. add() is O(1); value() is exact until
// the fifth sample, then the piecewise-parabolic estimate.
class P2Quantile {
 public:
  explicit P2Quantile(double q) : q_(q) {}

  void add(double x);
  double value() const;
  std::uint64_t count() const { return count_; }
  double quantile() const { return q_; }

 private:
  double q_;
  std::uint64_t count_ = 0;
  std::array<double, 5> height_{};   // marker heights (sorted)
  std::array<double, 5> pos_{};      // actual marker positions (1-based)
  std::array<double, 5> desired_{};  // desired marker positions
  std::array<double, 5> incr_{};     // desired-position increments
};

// Log-spaced fixed-geometry histogram for positive values. Values below
// min_value land in bucket 0, values at or above max_value in the last
// bucket; geometry never adapts, so two histograms built from the same
// stream are identical regardless of arrival order.
class LogHistogram {
 public:
  LogHistogram(double min_value = 1e-7, double max_value = 1e4,
               int buckets_per_decade = 48);

  void add(double x);

  std::uint64_t count() const { return count_; }
  std::size_t num_buckets() const { return counts_.size(); }
  int bucket_of(double x) const;
  double bucket_lo(int b) const;
  double bucket_hi(int b) const;
  std::uint64_t bucket_count(int b) const {
    return counts_[static_cast<std::size_t>(b)];
  }

  // Nearest-rank percentile, reported as the geometric midpoint of the
  // bucket containing the rank: |reported - exact| is bounded by one bucket
  // (a factor of 10^(1/buckets_per_decade) ≈ 4.9% at the default geometry).
  double percentile(double p) const;

  // Empirical CDF sampled at num_points evenly spaced fractions, mirroring
  // stats::fct_cdf over full record vectors.
  std::vector<CdfPoint> cdf(int num_points) const;

 private:
  double min_value_;
  double log_min_;
  double inv_log_ratio_;
  std::uint64_t count_ = 0;
  std::vector<std::uint64_t> counts_;
};

// The streaming replacement for a std::vector<FlowRecord>: fold every flow's
// final record exactly once (completed, terminated, or still unfinished at
// run end) and read the paper's metrics back in O(1) memory. Mirrors the
// semantics of stats/summary.h over full record vectors: background flows
// are excluded from FCT statistics, unfinished deadline flows count as
// missed, terminated flows are not "unfinished".
class StreamingFlowStats {
 public:
  void add(const FlowRecord& rec);

  // --- the summary.h metric set -------------------------------------------
  double afct() const {
    return completed_ == 0 ? 0.0
                           : fct_sum_ / static_cast<double>(completed_);
  }
  // p in [0, 100]; histogram-backed (error ≤ one bucket).
  double fct_percentile(double p) const { return hist_.percentile(p); }
  double application_throughput() const {
    return with_deadline_ == 0 ? 1.0
                               : static_cast<double>(met_deadline_) /
                                     static_cast<double>(with_deadline_);
  }
  std::size_t unfinished() const { return unfinished_; }
  std::vector<CdfPoint> fct_cdf(int num_points) const {
    return hist_.cdf(num_points);
  }

  // --- bookkeeping ---------------------------------------------------------
  std::uint64_t total_flows() const { return total_; }
  std::uint64_t completed_flows() const { return completed_; }
  std::uint64_t terminated_flows() const { return terminated_; }
  std::uint64_t background_flows() const { return background_; }
  std::uint64_t deadline_flows() const { return with_deadline_; }
  std::uint64_t deadline_met() const { return met_deadline_; }

  const LogHistogram& histogram() const { return hist_; }

 private:
  std::uint64_t total_ = 0;
  std::uint64_t completed_ = 0;   // non-background completions
  std::uint64_t unfinished_ = 0;  // non-background, never finished, not killed
  std::uint64_t terminated_ = 0;
  std::uint64_t background_ = 0;
  std::uint64_t with_deadline_ = 0;
  std::uint64_t met_deadline_ = 0;
  double fct_sum_ = 0.0;
  LogHistogram hist_;
};

}  // namespace pase::stats
