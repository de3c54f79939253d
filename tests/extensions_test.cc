// Tests for the extension features: empirical size distributions and
// task-aware arbitration (paper §3.1.1's "task-id" criterion).
#include <gtest/gtest.h>

#include "core/arbitration_plane.h"
#include "net/priority_queue_bank.h"
#include "workload/distributions.h"
#include "workload/scenario.h"

namespace pase::workload {
namespace {

TEST(PiecewiseCdf, SamplesWithinSupport) {
  sim::Rng rng(3);
  const auto& cdf = web_search_cdf();
  for (int i = 0; i < 5000; ++i) {
    const double x = cdf.sample(rng);
    EXPECT_GE(x, cdf.points().front().first);
    EXPECT_LE(x, cdf.points().back().first);
  }
}

TEST(PiecewiseCdf, EmpiricalMeanMatchesAnalyticMean) {
  sim::Rng rng(5);
  const auto& cdf = web_search_cdf();
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += cdf.sample(rng);
  EXPECT_NEAR(sum / n, cdf.mean(), 0.03 * cdf.mean());
}

TEST(PiecewiseCdf, MedianRespectsCdf) {
  // Half the web-search samples should be below the 0.5-quantile point.
  sim::Rng rng(7);
  const auto& cdf = web_search_cdf();
  // Interpolate the x at p=0.5 by sampling u=0.5 deterministically: instead,
  // count the fraction below 53 KB (p=0.53 point).
  int below = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) below += cdf.sample(rng) <= 53e3 ? 1 : 0;
  EXPECT_NEAR(below / static_cast<double>(n), 0.53, 0.02);
}

TEST(PiecewiseCdf, DataMiningIsHeavierTailedThanWebSearch) {
  EXPECT_GT(data_mining_cdf().mean(), web_search_cdf().mean());
}

TEST(SizeDistributions, GeneratorUsesEmpiricalSizes) {
  WorkloadConfig cfg;
  cfg.num_hosts = 10;
  cfg.num_flows = 3000;
  cfg.size_dist = SizeDistribution::kWebSearch;
  cfg.num_background_flows = 0;
  cfg.seed = 9;
  double max_size = 0;
  double sum = 0;
  for (const auto& f : generate_flows(cfg)) {
    max_size = std::max(max_size, static_cast<double>(f.size_bytes));
    sum += static_cast<double>(f.size_bytes);
  }
  // Uniform [2,198] KB could never produce multi-MB flows.
  EXPECT_GT(max_size, 1e6);
  EXPECT_NEAR(sum / 3000, web_search_cdf().mean(),
              0.2 * web_search_cdf().mean());
}

TEST(SizeDistributions, ArrivalRateUsesDistributionMean) {
  WorkloadConfig cfg;
  cfg.num_hosts = 10;
  cfg.load = 0.5;
  cfg.size_dist = SizeDistribution::kWebSearch;
  const double uniform_mean = (cfg.size_min_bytes + cfg.size_max_bytes) / 2;
  const double rate = arrival_rate_per_sec(cfg);
  cfg.size_dist = SizeDistribution::kUniform;
  const double uniform_rate = arrival_rate_per_sec(cfg);
  // Web-search mean is far larger than the uniform default, so the arrival
  // rate must be proportionally smaller to offer the same load.
  EXPECT_LT(rate, uniform_rate);
  EXPECT_NEAR(rate / uniform_rate, uniform_mean / web_search_cdf().mean(),
              1e-6);
}

TEST(TaskAware, IncastQueriesCarryTaskIds) {
  WorkloadConfig cfg;
  cfg.num_hosts = 10;
  cfg.num_flows = 40;
  cfg.pattern = Pattern::kIncast;
  cfg.incast_fanout = 4;
  cfg.assign_task_ids = true;
  cfg.num_background_flows = 0;
  auto flows = generate_flows(cfg);
  for (int q = 0; q < 10; ++q) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(flows[static_cast<std::size_t>(q * 4 + i)].task_id,
                static_cast<std::uint64_t>(q + 1));
    }
  }
}

TEST(TaskAware, NoTaskIdsUnlessRequested) {
  WorkloadConfig cfg;
  cfg.num_hosts = 10;
  cfg.num_flows = 40;
  cfg.pattern = Pattern::kIncast;
  cfg.num_background_flows = 0;
  for (const auto& f : generate_flows(cfg)) EXPECT_EQ(f.task_id, 0u);
}

TEST(TaskAware, EarlierTaskOutranksSmallerFlow) {
  // Under kTaskAware, a big flow of task 1 must outrank a tiny flow of
  // task 2 at the arbitrator.
  sim::Simulator sim;
  topo::SingleRackConfig rc;
  rc.num_hosts = 3;
  topo::QueueFactory factory = [](double) -> std::unique_ptr<net::Queue> {
    return std::make_unique<net::PriorityQueueBank>(8, 500, 65);
  };
  auto rack = topo::build_single_rack(sim, rc, factory);
  core::PaseConfig cfg;
  cfg.criterion = core::Criterion::kTaskAware;
  core::ArbitrationPlane plane(sim, *rack.topo, cfg);

  struct C : core::ArbitrationClient {
    void arbitration_update(int, double, bool) override {}
  } c1, c2;
  transport::Flow f1;
  f1.id = 1;
  f1.src = rack.topo->host(0)->id();
  f1.dst = rack.topo->host(1)->id();
  f1.size_bytes = 500'000;
  f1.task_id = 1;
  transport::Flow f2 = f1;
  f2.id = 2;
  f2.size_bytes = 5'000;
  f2.task_id = 2;
  auto r1 = plane.register_sender(c1, f1, 500e3, 1e9);
  auto r2 = plane.register_sender(c2, f2, 5e3, 1e9);
  EXPECT_EQ(r1.prio_queue, 0);
  EXPECT_GE(r2.prio_queue, 1);  // SJF would have put the 5 KB flow on top
}

TEST(TaskAware, ScenarioCompletesWithTaskCriterion) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kPase;
  cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 12;
  cfg.traffic.pattern = Pattern::kIncast;
  cfg.traffic.incast_fanout = 4;
  cfg.traffic.assign_task_ids = true;
  cfg.traffic.num_flows = 120;
  cfg.traffic.load = 0.6;
  cfg.traffic.seed = 12;
  cfg.pase.criterion = core::Criterion::kTaskAware;
  auto res = run_scenario(cfg);
  EXPECT_EQ(res.unfinished(), 0u);
}

TEST(TaskAware, ImprovesQueryCompletionOverSjf) {
  auto run = [](core::Criterion crit) {
    ScenarioConfig cfg;
    cfg.protocol = Protocol::kPase;
    cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
    cfg.rack.num_hosts = 20;
    cfg.traffic.pattern = Pattern::kIncast;
    cfg.traffic.incast_fanout = 6;
    cfg.traffic.assign_task_ids = true;
    cfg.traffic.num_flows = 300;
    cfg.traffic.load = 0.8;
    cfg.traffic.num_background_flows = 0;
    cfg.traffic.seed = 14;
    cfg.pase.criterion = crit;
    auto res = run_scenario(cfg);
    // Query completion: max FCT within each fanout-sized group.
    double sum = 0;
    int queries = 0, in_query = 0;
    double worst = 0;
    for (const auto& r : res.records) {
      worst = std::max(worst, r.completed() ? r.fct() : 1.0);
      if (++in_query == 6) {
        sum += worst;
        ++queries;
        in_query = 0;
        worst = 0;
      }
    }
    return sum / queries;
  };
  const double sjf = run(core::Criterion::kShortestFlowFirst);
  const double task = run(core::Criterion::kTaskAware);
  EXPECT_LT(task, sjf);
}

TEST(HeavyTail, PaseHandlesWebSearchWorkload) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kPase;
  cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 12;
  cfg.traffic.size_dist = SizeDistribution::kWebSearch;
  cfg.traffic.num_flows = 80;
  cfg.traffic.load = 0.6;
  cfg.traffic.seed = 15;
  cfg.max_duration = 60.0;
  auto res = run_scenario(cfg);
  EXPECT_EQ(res.unfinished(), 0u);
  EXPECT_EQ(res.fabric_drops, 0u);
}

}  // namespace
}  // namespace pase::workload
