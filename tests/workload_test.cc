// Workload generator and statistics tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "stats/summary.h"
#include "workload/flow_generator.h"

namespace pase::workload {
namespace {

WorkloadConfig base_cfg() {
  WorkloadConfig c;
  c.num_hosts = 20;
  c.num_flows = 2000;
  c.load = 0.5;
  c.host_rate_bps = 1e9;
  c.bottleneck_rate_bps = 10e9;
  c.seed = 42;
  return c;
}

TEST(FlowGenerator, ProducesRequestedCounts) {
  auto cfg = base_cfg();
  cfg.num_background_flows = 3;
  auto flows = generate_flows(cfg);
  EXPECT_EQ(flows.size(), 2003u);
  int bg = 0;
  for (const auto& f : flows) bg += f.background ? 1 : 0;
  EXPECT_EQ(bg, 3);
}

TEST(FlowGenerator, FlowIdsAreUnique) {
  auto flows = generate_flows(base_cfg());
  std::set<net::FlowId> ids;
  for (const auto& f : flows) ids.insert(f.id);
  EXPECT_EQ(ids.size(), flows.size());
}

TEST(FlowGenerator, SizesWithinConfiguredBounds) {
  auto cfg = base_cfg();
  cfg.size_min_bytes = 2e3;
  cfg.size_max_bytes = 198e3;
  for (const auto& f : generate_flows(cfg)) {
    if (f.background) continue;
    EXPECT_GE(f.size_bytes, 2000u);
    EXPECT_LT(f.size_bytes, 198000u);
  }
}

TEST(FlowGenerator, MeanSizeNearMidpoint) {
  auto cfg = base_cfg();
  double sum = 0;
  int n = 0;
  for (const auto& f : generate_flows(cfg)) {
    if (f.background) continue;
    sum += static_cast<double>(f.size_bytes);
    ++n;
  }
  EXPECT_NEAR(sum / n, (cfg.size_min_bytes + cfg.size_max_bytes) / 2,
              0.05 * (cfg.size_min_bytes + cfg.size_max_bytes) / 2);
}

TEST(FlowGenerator, PoissonInterArrivalsMatchLoad) {
  auto cfg = base_cfg();
  cfg.pattern = Pattern::kIntraRackRandom;
  auto flows = generate_flows(cfg);
  // Rate = load * N * C / (8 * mean size).
  const double expect_rate = arrival_rate_per_sec(cfg);
  double first = 1e9, last = 0;
  int n = 0;
  for (const auto& f : flows) {
    if (f.background) continue;
    first = std::min(first, f.start_time);
    last = std::max(last, f.start_time);
    ++n;
  }
  const double measured = n / (last - first);
  EXPECT_NEAR(measured, expect_rate, 0.1 * expect_rate);
}

TEST(FlowGenerator, ArrivalsAreSorted) {
  auto flows = generate_flows(base_cfg());
  double prev = -1;
  for (const auto& f : flows) {
    if (f.background) continue;
    EXPECT_GE(f.start_time, prev);
    prev = f.start_time;
  }
}

TEST(FlowGenerator, DeterministicForSameSeed) {
  auto a = generate_flows(base_cfg());
  auto b = generate_flows(base_cfg());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].size_bytes, b[i].size_bytes);
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_DOUBLE_EQ(a[i].start_time, b[i].start_time);
  }
}

TEST(FlowGenerator, DifferentSeedsDiffer) {
  auto a = generate_flows(base_cfg());
  auto cfg = base_cfg();
  cfg.seed = 43;
  auto b = generate_flows(cfg);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= a[i].size_bytes != b[i].size_bytes;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FlowGenerator, LeftRightRespectsPartition) {
  auto cfg = base_cfg();
  cfg.pattern = Pattern::kLeftRight;
  cfg.num_hosts = 160;
  cfg.left_hosts = 80;
  for (const auto& f : generate_flows(cfg)) {
    EXPECT_LT(f.src, 80);
    EXPECT_GE(f.dst, 80);
    EXPECT_LT(f.dst, 160);
  }
}

// Caller input is checked in every build, not only under assert: a single
// host would make the destination redraw loop spin forever.
TEST(FlowGenerator, RejectsFewerThanTwoHosts) {
  auto cfg = base_cfg();
  cfg.pattern = Pattern::kIntraRackRandom;
  cfg.num_hosts = 1;
  EXPECT_THROW(generate_flows(cfg), std::invalid_argument);
}

TEST(FlowGenerator, RejectsLeftRightWithoutBothSides) {
  auto cfg = base_cfg();
  cfg.pattern = Pattern::kLeftRight;
  for (const int left : {0, 20, 25}) {
    cfg.left_hosts = left;
    EXPECT_THROW(generate_flows(cfg), std::invalid_argument) << left;
  }
}

TEST(FlowGenerator, IntraRackNeverSelfLoops) {
  auto cfg = base_cfg();
  cfg.pattern = Pattern::kIntraRackRandom;
  for (const auto& f : generate_flows(cfg)) EXPECT_NE(f.src, f.dst);
}

TEST(FlowGenerator, WorkerAggregatorRotatesDestinations) {
  auto cfg = base_cfg();
  cfg.pattern = Pattern::kWorkerAggregator;
  cfg.num_background_flows = 0;
  auto flows = generate_flows(cfg);
  EXPECT_EQ(flows[0].dst, 0);
  EXPECT_EQ(flows[1].dst, 1);
  EXPECT_EQ(flows[19].dst, 19);
  EXPECT_EQ(flows[20].dst, 0);
  for (const auto& f : flows) EXPECT_NE(f.src, f.dst);
}

TEST(FlowGenerator, IncastQueriesShareStartAndAggregator) {
  auto cfg = base_cfg();
  cfg.pattern = Pattern::kIncast;
  cfg.incast_fanout = 5;
  cfg.num_background_flows = 0;
  cfg.num_flows = 50;
  auto flows = generate_flows(cfg);
  ASSERT_EQ(flows.size(), 50u);
  for (int q = 0; q < 10; ++q) {
    std::set<net::NodeId> workers;
    for (int i = 0; i < 5; ++i) {
      const auto& f = flows[static_cast<std::size_t>(q * 5 + i)];
      EXPECT_EQ(f.dst, q % 20);
      EXPECT_DOUBLE_EQ(f.start_time,
                       flows[static_cast<std::size_t>(q * 5)].start_time);
      EXPECT_NE(f.src, f.dst);
      workers.insert(f.src);
    }
    EXPECT_EQ(workers.size(), 5u);  // distinct workers per query
  }
}

TEST(FlowGenerator, DeadlinesWithinConfiguredRange) {
  auto cfg = base_cfg();
  cfg.deadline_min = 5e-3;
  cfg.deadline_max = 25e-3;
  for (const auto& f : generate_flows(cfg)) {
    if (f.background) continue;
    EXPECT_GE(f.deadline - f.start_time, 5e-3);
    EXPECT_LT(f.deadline - f.start_time, 25e-3);
  }
}

TEST(FlowGenerator, BackgroundFlowsStartAtZeroAndAreHuge) {
  auto flows = generate_flows(base_cfg());
  for (const auto& f : flows) {
    if (!f.background) continue;
    EXPECT_DOUBLE_EQ(f.start_time, 0.0);
    EXPECT_GT(f.size_bytes, 1'000'000'000u);
    EXPECT_FALSE(f.has_deadline());
  }
}

// --- stats ---------------------------------------------------------------------

TEST(Stats, MeanAndPercentile) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(stats::percentile({}, 50), 0.0);
}

TEST(Stats, AfctSkipsBackgroundAndUnfinished) {
  std::vector<stats::FlowRecord> recs(3);
  recs[0].start = 0;
  recs[0].finish = 1e-3;
  recs[1].start = 0;
  recs[1].finish = 3e-3;
  recs[1].background = true;  // excluded
  recs[2].start = 0;
  recs[2].finish = -1;  // unfinished, excluded
  EXPECT_DOUBLE_EQ(stats::afct(recs), 1e-3);
  EXPECT_EQ(stats::unfinished(recs), 1u);
}

TEST(Stats, ApplicationThroughputCountsDeadlines) {
  std::vector<stats::FlowRecord> recs(4);
  recs[0].deadline = 1e-3;
  recs[0].finish = 0.5e-3;  // met
  recs[1].deadline = 1e-3;
  recs[1].finish = 2e-3;  // missed
  recs[2].deadline = 1e-3;
  recs[2].finish = -1;  // never finished: missed
  recs[3].deadline = 0;  // no deadline: ignored
  recs[3].finish = 9e-3;
  EXPECT_DOUBLE_EQ(stats::application_throughput(recs), 1.0 / 3.0);
}

TEST(Stats, CdfIsMonotonic) {
  std::vector<stats::FlowRecord> recs(100);
  sim::Rng rng(7);
  for (auto& r : recs) {
    r.start = 0;
    r.finish = rng.uniform(1e-3, 20e-3);
  }
  auto cdf = stats::fct_cdf(recs, 20);
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].x, cdf[i - 1].x);
    EXPECT_GT(cdf[i].fraction, cdf[i - 1].fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(Stats, TailPercentileOrdering) {
  std::vector<stats::FlowRecord> recs(1000);
  sim::Rng rng(9);
  for (auto& r : recs) {
    r.start = 0;
    r.finish = rng.uniform(1e-3, 2e-3);
  }
  const double p50 = stats::fct_percentile(recs, 50);
  const double p99 = stats::fct_percentile(recs, 99);
  EXPECT_LT(p50, p99);
  EXPECT_GT(stats::afct(recs), 0.0);
}

}  // namespace
}  // namespace pase::workload
