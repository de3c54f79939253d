// Determinism guarantees: a scenario re-run with the same seed must be
// bit-identical, and the parallel SweepRunner must reproduce exactly what a
// sequential loop over the same configs produces, in submission order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/sweep.h"
#include "record_compare.h"
#include "workload/scenario.h"

namespace pase {
namespace {

using workload::Protocol;
using workload::ScenarioConfig;
using workload::ScenarioResult;

ScenarioConfig small_scenario(Protocol p, double load, unsigned seed) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
  cfg.traffic.load = load;
  cfg.traffic.num_flows = 60;
  cfg.traffic.seed = seed;
  return cfg;
}

class ScenarioDeterminism : public ::testing::TestWithParam<Protocol> {};

TEST_P(ScenarioDeterminism, SameSeedSameResult) {
  const ScenarioConfig cfg = small_scenario(GetParam(), 0.6, 7);
  const ScenarioResult first = workload::run_scenario(cfg);
  const ScenarioResult second = workload::run_scenario(cfg);
  expect_identical(first, second);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ScenarioDeterminism,
                         ::testing::Values(Protocol::kDctcp, Protocol::kD2tcp,
                                           Protocol::kL2dct, Protocol::kPdq,
                                           Protocol::kPfabric, Protocol::kPase),
                         [](const auto& info) {
                           return std::string(
                               workload::protocol_name(info.param));
                         });

TEST(SweepRunnerDeterminism, ParallelMatchesSequential) {
  std::vector<ScenarioConfig> configs;
  for (double load : {0.3, 0.5, 0.7, 0.9}) {
    configs.push_back(small_scenario(Protocol::kPase, load, 11));
    configs.push_back(small_scenario(Protocol::kDctcp, load, 11));
  }

  std::vector<ScenarioResult> sequential;
  sequential.reserve(configs.size());
  for (const auto& cfg : configs) {
    sequential.push_back(workload::run_scenario(cfg));
  }

  const exp::SweepRunner runner(4);
  EXPECT_EQ(runner.threads(), 4u);
  const std::vector<ScenarioResult> parallel = runner.run(configs);

  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(parallel[i], sequential[i]);
  }
}

TEST(SweepRunnerDeterminism, SweepJsonStableAcrossThreadCounts) {
  std::vector<exp::SweepCase> cases;
  std::vector<ScenarioConfig> configs;
  for (double load : {0.4, 0.8}) {
    exp::SweepCase c;
    c.label = "case";
    c.config = small_scenario(Protocol::kPase, load, 3);
    configs.push_back(c.config);
    cases.push_back(std::move(c));
  }
  const auto r1 = exp::SweepRunner(1).run(configs);
  const auto r4 = exp::SweepRunner(4).run(configs);
  EXPECT_EQ(exp::sweep_to_json("x", cases, r1),
            exp::sweep_to_json("x", cases, r4));
}

TEST(SweepJson, CountsPrintAsPlainIntegers) {
  exp::SweepCase c;
  c.label = "numbers";
  ScenarioResult r;
  r.metrics = {{"a.count", 80.0},
               {"b.samples", 1520.0},
               {"c.ratio", 0.1},
               {"d.small", 1e-06}};
  const std::string json = exp::sweep_to_json("x", {c}, {r});
  EXPECT_NE(json.find("\"a.count\": 80,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b.samples\": 1520,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"c.ratio\": 0.1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"d.small\": 1e-06}"), std::string::npos) << json;
  // The deadline-met fraction is not a rate: its key carries no unit.
  EXPECT_NE(json.find("\"app_throughput\": 1,"), std::string::npos) << json;
}

TEST(SweepRunner, EmptySweepReturnsEmpty) {
  EXPECT_TRUE(exp::SweepRunner(2).run({}).empty());
}

}  // namespace
}  // namespace pase
