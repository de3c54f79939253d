#include "stats/streaming.h"

#include <algorithm>
#include <cmath>

namespace pase::stats {

// ---------------------------------------------------------------------------
// P2Quantile (Jain & Chlamtac 1985, "The P² algorithm for dynamic
// calculation of quantiles and histograms without storing observations")

void P2Quantile::add(double x) {
  if (count_ < 5) {
    height_[count_++] = x;
    if (count_ == 5) {
      std::sort(height_.begin(), height_.end());
      for (int i = 0; i < 5; ++i) pos_[i] = i + 1;
      desired_ = {1.0, 1.0 + 2.0 * q_, 1.0 + 4.0 * q_, 3.0 + 2.0 * q_, 5.0};
      incr_ = {0.0, q_ / 2.0, q_, (1.0 + q_) / 2.0, 1.0};
    }
    return;
  }
  ++count_;

  // Locate the cell containing x and clamp the extreme markers.
  int k;
  if (x < height_[0]) {
    height_[0] = x;
    k = 0;
  } else if (x >= height_[4]) {
    height_[4] = std::max(height_[4], x);
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= height_[k + 1]) ++k;
  }
  for (int i = k + 1; i < 5; ++i) pos_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += incr_[i];

  // Adjust the three interior markers toward their desired positions.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - pos_[i];
    const double below = pos_[i] - pos_[i - 1];
    const double above = pos_[i + 1] - pos_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double s = d >= 1.0 ? 1.0 : -1.0;
      // Piecewise-parabolic prediction...
      const double hp =
          height_[i] +
          s / (pos_[i + 1] - pos_[i - 1]) *
              ((below + s) * (height_[i + 1] - height_[i]) / above +
               (above - s) * (height_[i] - height_[i - 1]) / below);
      // ...falling back to linear when it would leave the bracket.
      if (height_[i - 1] < hp && hp < height_[i + 1]) {
        height_[i] = hp;
      } else {
        const int j = i + static_cast<int>(s);
        height_[i] += s * (height_[j] - height_[i]) / (pos_[j] - pos_[i]);
      }
      pos_[i] += s;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact small-sample quantile over the sorted prefix.
    std::array<double, 5> h = height_;
    std::sort(h.begin(), h.begin() + count_);
    const double rank = q_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, count_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return h[lo] * (1.0 - frac) + h[hi] * frac;
  }
  return height_[2];
}

// ---------------------------------------------------------------------------
// LogHistogram

LogHistogram::LogHistogram(double min_value, double max_value,
                           int buckets_per_decade)
    : min_value_(min_value), log_min_(std::log10(min_value)) {
  const double decades = std::log10(max_value) - log_min_;
  const auto n =
      static_cast<std::size_t>(std::ceil(decades * buckets_per_decade)) + 1;
  counts_.assign(n, 0);
  inv_log_ratio_ = buckets_per_decade;  // buckets per decade == 1/log10(ratio)
}

int LogHistogram::bucket_of(double x) const {
  if (!(x > min_value_)) return 0;
  const double b = (std::log10(x) - log_min_) * inv_log_ratio_;
  const auto i = static_cast<std::size_t>(b);
  return static_cast<int>(std::min(i, counts_.size() - 1));
}

double LogHistogram::bucket_lo(int b) const {
  return std::pow(10.0, log_min_ + static_cast<double>(b) / inv_log_ratio_);
}

double LogHistogram::bucket_hi(int b) const { return bucket_lo(b + 1); }

void LogHistogram::add(double x) {
  ++counts_[static_cast<std::size_t>(bucket_of(x))];
  ++count_;
}

double LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  // Nearest-rank over the cumulative counts (rank is 1-based).
  const double want = p / 100.0 * static_cast<double>(count_);
  const auto rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(want)));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    cum += counts_[b];
    if (cum >= rank) {
      // Geometric midpoint: at most half a bucket from either edge.
      const int i = static_cast<int>(b);
      return std::sqrt(bucket_lo(i) * bucket_hi(i));
    }
  }
  return bucket_hi(static_cast<int>(counts_.size()) - 1);
}

std::vector<CdfPoint> LogHistogram::cdf(int num_points) const {
  std::vector<CdfPoint> out;
  if (count_ == 0 || num_points <= 0) return out;
  out.reserve(static_cast<std::size_t>(num_points));
  for (int i = 1; i <= num_points; ++i) {
    const double frac = static_cast<double>(i) / num_points;
    out.push_back(CdfPoint{percentile(frac * 100.0), frac});
  }
  return out;
}

// ---------------------------------------------------------------------------
// StreamingFlowStats

void StreamingFlowStats::add(const FlowRecord& rec) {
  ++total_;
  if (rec.background) {
    ++background_;
    return;
  }
  if (rec.terminated) ++terminated_;
  if (rec.deadline > 0.0) {
    ++with_deadline_;
    if (rec.met_deadline()) ++met_deadline_;
  }
  if (!rec.completed()) {
    if (!rec.terminated) ++unfinished_;
    return;
  }
  const double fct = rec.fct();
  ++completed_;
  fct_sum_ += fct;
  hist_.add(fct);
}

}  // namespace pase::stats
