// Conservative parallel execution must be bit-identical to sequential.
//
// The same 18-case battery the hot-path golden test pins is re-run here at
// workers = 2, 4 and 8 and every trace fingerprint must equal the
// sequential run's — not "statistically close": identical. Any divergence
// means an event ordering decision leaked a dependence on thread scheduling
// or the partition, or a cross-domain post drew a different order key than
// the local delivery it stands for.
//
// All six built-in profiles are parallel-safe — PASE's arbitration plane is
// sharded by arbitrating node (see arbitration_plane.h) — so every case must
// actually run partitioned: workers_used > 1 and an empty fallback reason.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep.h"
#include "net/droptail_queue.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "topo/builder.h"
#include "topo/partition.h"
#include "trace_fingerprint.h"

namespace pase {
namespace {

double metric(const workload::ScenarioResult& r, const char* name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return -1.0;
}

// Sequential fingerprints computed once and shared by all worker counts.
const std::vector<std::uint64_t>& sequential_fingerprints() {
  static const std::vector<std::uint64_t> fps = [] {
    std::vector<std::uint64_t> v;
    for (const auto& c : fingerprint_battery()) {
      v.push_back(trace_fingerprint(workload::run_scenario(c.config)));
    }
    return v;
  }();
  return fps;
}

void expect_bit_identical(int workers) {
  const auto cases = fingerprint_battery();
  const auto& seq = sequential_fingerprints();
  ASSERT_EQ(cases.size(), seq.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    workload::ScenarioConfig cfg = cases[i].config;
    cfg.workers = workers;
    const workload::ScenarioResult r = workload::run_scenario(cfg);
    EXPECT_EQ(trace_fingerprint(r), seq[i])
        << cases[i].label << " diverged from the sequential trace at workers="
        << workers;
    EXPECT_GT(r.workers_used, 1)
        << cases[i].label << " unexpectedly fell back to sequential";
    EXPECT_TRUE(r.parallel_fallback_reason.empty())
        << cases[i].label << ": " << r.parallel_fallback_reason;
  }
}

TEST(ParallelGolden, BitIdenticalAtTwoWorkers) { expect_bit_identical(2); }
TEST(ParallelGolden, BitIdenticalAtFourWorkers) { expect_bit_identical(4); }
TEST(ParallelGolden, BitIdenticalAtEightWorkers) { expect_bit_identical(8); }

// PASE on a multipath Clos fabric is the hardest case for the sharded
// arbitration plane: delegation timers on every pod switch, fabric
// arbitration across pods, and ECMP route state — all of it partitioned.
// The fingerprint must not move across any worker count.
TEST(ParallelGolden, PaseFatTreeBitIdenticalAcrossWorkerCounts) {
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kPase;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kFatTree;
  cfg.fattree.k = 4;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.size_dist = workload::SizeDistribution::kWebSearch;
  cfg.traffic.load = 0.4;
  cfg.traffic.num_flows = 120;
  cfg.traffic.seed = 9;

  const std::uint64_t seq = trace_fingerprint(workload::run_scenario(cfg));
  for (int workers : {2, 4, 8}) {
    cfg.workers = workers;
    const workload::ScenarioResult r = workload::run_scenario(cfg);
    EXPECT_EQ(trace_fingerprint(r), seq)
        << "PASE/fat-tree diverged at workers=" << workers;
    EXPECT_GT(r.workers_used, 1);
    EXPECT_TRUE(r.parallel_fallback_reason.empty())
        << r.parallel_fallback_reason;
  }
}

// A k=8 fat-tree partitions into 8 pod domains; 3 workers own uneven blocks
// of them ({0,1}, {2,3,4}, {5,6,7}), so whoever finishes its block first
// steals from the others and domains change threads from round to round.
// Neither may move the fingerprint. The window rule reads only the domains'
// calendars, so the round statistics of 8 domains are the same on 2 workers
// as on 3.
void expect_fattree_k8_identical_at_three_workers(workload::Protocol p) {
  workload::ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kFatTree;
  cfg.fattree.k = 8;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.size_dist = workload::SizeDistribution::kWebSearch;
  cfg.traffic.load = 0.4;
  cfg.traffic.num_flows = 200;
  cfg.traffic.seed = 31;

  const std::uint64_t seq = trace_fingerprint(workload::run_scenario(cfg));
  cfg.workers = 3;
  const workload::ScenarioResult r = workload::run_scenario(cfg);
  EXPECT_EQ(trace_fingerprint(r), seq);
  EXPECT_EQ(r.workers_used, 3);
  EXPECT_EQ(metric(r, "parallel.domains"), 8.0);
  EXPECT_TRUE(r.parallel_fallback_reason.empty())
      << r.parallel_fallback_reason;

  cfg.workers = 2;
  const workload::ScenarioResult r2 = workload::run_scenario(cfg);
  EXPECT_EQ(r2.workers_used, 2);
  EXPECT_GT(metric(r, "parallel.rounds"), 0.0);
  for (const char* name : {"parallel.rounds", "parallel.drains",
                           "parallel.quiet_rounds", "parallel.cross_posts"}) {
    EXPECT_EQ(metric(r2, name), metric(r, name)) << name;
  }
}

TEST(ParallelGolden, DctcpFatTreeK8PodDomainsAtThreeWorkers) {
  expect_fattree_k8_identical_at_three_workers(workload::Protocol::kDctcp);
}
TEST(ParallelGolden, PaseFatTreeK8PodDomainsAtThreeWorkers) {
  expect_fattree_k8_identical_at_three_workers(workload::Protocol::kPase);
}

// A 16-host rack on 3 workers splits into uneven domains, so every incast
// burst's same-instant flows start in several domains. Their launches must
// still interleave by flow index, exactly as on one worker.
TEST(ParallelGolden, RackIncastAtThreeWorkersMatchesOneWorker) {
  for (const auto& c : fingerprint_battery()) {
    if (c.config.traffic.pattern != workload::Pattern::kIncast) continue;
    const workload::Protocol p = c.config.protocol;
    if (p != workload::Protocol::kDctcp && p != workload::Protocol::kPase) {
      continue;
    }
    workload::ScenarioConfig cfg = c.config;
    const std::uint64_t one = trace_fingerprint(workload::run_scenario(cfg));
    cfg.workers = 3;
    const workload::ScenarioResult r = workload::run_scenario(cfg);
    EXPECT_EQ(trace_fingerprint(r), one) << c.label;
    EXPECT_EQ(r.workers_used, 3) << c.label;
    EXPECT_EQ(metric(r, "parallel.domains"), 3.0) << c.label;
  }
}

// More workers than pods: a k=4 fat-tree has 4 domains, so 8 requested
// workers run as 4 threads and say so.
TEST(ParallelEngine, FatTreeClampsWorkersToPods) {
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kDctcp;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kFatTree;
  cfg.fattree.k = 4;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.load = 0.4;
  cfg.traffic.num_flows = 100;
  cfg.traffic.seed = 5;

  const std::uint64_t seq = trace_fingerprint(workload::run_scenario(cfg));
  cfg.workers = 8;
  const workload::ScenarioResult r = workload::run_scenario(cfg);
  EXPECT_EQ(r.workers_used, 4);
  EXPECT_EQ(metric(r, "parallel.domains"), 4.0);
  EXPECT_TRUE(r.parallel_fallback_reason.empty())
      << r.parallel_fallback_reason;
  EXPECT_EQ(trace_fingerprint(r), seq);
}

// A zero-delay cut link gives zero lookahead: the conservative window is
// empty and the harness must fall back to sequential execution (and still
// produce the sequential trace).
TEST(ParallelEngine, ZeroLookaheadFallsBackToSequential) {
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kDctcp;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 8;
  cfg.rack.per_link_delay = 0.0;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.load = 0.5;
  cfg.traffic.num_flows = 40;
  cfg.traffic.seed = 7;

  const workload::ScenarioResult seq = workload::run_scenario(cfg);
  cfg.workers = 4;
  const workload::ScenarioResult par = workload::run_scenario(cfg);
  EXPECT_EQ(par.workers_used, 1);
  EXPECT_FALSE(par.parallel_fallback_reason.empty());
  EXPECT_EQ(trace_fingerprint(par), trace_fingerprint(seq));
}

// Cross-domain arbitration traffic must be *counted* identically too: the
// sharded plane keeps per-arbitrator counters that fold into the same totals
// the sequential plane accumulates in one struct. A mismatch means a shard
// double-counted (or a cut-crossing control packet was attributed twice).
TEST(ParallelEngine, ArbitrationMessagesCountedIdenticallySeqVsParallel) {
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kPase;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kThreeTier;
  cfg.tree.num_tors = 4;
  cfg.tree.hosts_per_tor = 4;
  cfg.traffic.pattern = workload::Pattern::kLeftRight;
  cfg.traffic.size_dist = workload::SizeDistribution::kWebSearch;
  cfg.traffic.load = 0.6;
  cfg.traffic.num_flows = 100;
  cfg.traffic.seed = 23;

  const workload::ScenarioResult seq = workload::run_scenario(cfg);
  cfg.workers = 4;
  const workload::ScenarioResult par = workload::run_scenario(cfg);
  ASSERT_GT(par.workers_used, 1) << par.parallel_fallback_reason;
  EXPECT_GT(seq.control.messages_sent, 0u);
  EXPECT_EQ(par.control.messages_sent, seq.control.messages_sent);
  EXPECT_EQ(par.control.requests, seq.control.requests);
  EXPECT_EQ(par.control.responses, seq.control.responses);
  EXPECT_EQ(par.control.fins, seq.control.fins);
  EXPECT_EQ(par.control.delegation_msgs, seq.control.delegation_msgs);
  EXPECT_EQ(par.control.arbitrations, seq.control.arbitrations);
  EXPECT_EQ(par.control.pruned_requests, seq.control.pruned_requests);
}

// Every built-in profile must actually partition under workers > 1, and the
// sweep JSON must surface both the domain count and the (empty) fallback
// reason so a silent sequential fallback can't hide in a benchmark table.
TEST(ParallelEngine, SweepSurfacesEmptyFallbackReasonForAllSixProfiles) {
  const workload::Protocol protocols[] = {
      workload::Protocol::kDctcp, workload::Protocol::kD2tcp,
      workload::Protocol::kL2dct, workload::Protocol::kPdq,
      workload::Protocol::kPfabric, workload::Protocol::kPase};
  std::vector<exp::SweepCase> cases;
  std::vector<workload::ScenarioConfig> configs;
  for (const auto p : protocols) {
    exp::SweepCase c;
    c.label = workload::protocol_name(p);
    c.config.protocol = p;
    c.config.topology = workload::ScenarioConfig::TopologyKind::kThreeTier;
    c.config.tree.num_tors = 4;
    c.config.tree.hosts_per_tor = 4;
    c.config.traffic.pattern = workload::Pattern::kLeftRight;
    c.config.traffic.load = 0.5;
    c.config.traffic.num_flows = 60;
    c.config.traffic.seed = 3;
    c.config.workers = 4;
    configs.push_back(c.config);
    cases.push_back(std::move(c));
  }
  const std::vector<workload::ScenarioResult> results =
      exp::SweepRunner(2).run(configs);
  ASSERT_EQ(results.size(), std::size(protocols));
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_GT(results[i].workers_used, 1) << cases[i].label;
    EXPECT_TRUE(results[i].parallel_fallback_reason.empty())
        << cases[i].label << ": " << results[i].parallel_fallback_reason;
  }
  const std::string json = exp::sweep_to_json("fallback", cases, results);
  EXPECT_NE(json.find("\"workers_used\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"parallel_fallback_reason\": \"\""), std::string::npos);
}

// --- Order keys across domains -----------------------------------------------

using KeyLog = std::vector<std::pair<char, std::uint64_t>>;

struct Delivery {
  KeyLog* log;
  sim::Simulator* sim;
};
void log_delivery(void* ctx, void* /*arg*/) {
  auto* d = static_cast<Delivery*>(ctx);
  d->log->emplace_back('D', d->sim->current_key());
}

// Nodes 0 and 1, in their own domains or together in one. A root at node 0
// sends node 1 a delivery (D) for 2 ms: posted across domains, or scheduled
// locally. Node 1 also has a root (R, k = 1) and two events of its own (E,
// F) at 2 ms. Returns node 1's events at 2 ms with their keys.
KeyLog node1_events(int domains) {
  sim::ParallelEngine eng(domains, 1);
  eng.set_lookahead(0.5e-3);
  sim::Simulator& s0 = eng.domain(0);
  sim::Simulator& s1 = eng.domain(domains - 1);
  KeyLog log;
  Delivery d{&log, &s1};
  s0.schedule_setup_at(1e-3, 0, 0, [&eng, &s0, &d, domains] {
    if (domains == 1) {
      s0.schedule_raw_at_node(2e-3, 1, &log_delivery, &d);
    } else {
      eng.post(0, 1, 2e-3, 1, &log_delivery, &d, nullptr);
    }
  });
  s1.schedule_setup_at(2e-3, 1, 1,
                       [&] { log.emplace_back('R', s1.current_key()); });
  s1.schedule_setup_at(1.5e-3, 2, 1, [&] {
    s1.schedule_at(2e-3, [&] { log.emplace_back('E', s1.current_key()); });
    s1.schedule_at(2e-3, [&] { log.emplace_back('F', s1.current_key()); });
  });
  eng.run_until(5e-3);
  return log;
}

// The post draws its key in the source domain with one counter step, as a
// local delivery would, so the delivery lands at the same place among the
// destination's same-instant events: after the root, before node 1's own.
TEST(ParallelEngine, PostedDeliveryKeepsTheKeyOfALocalDelivery) {
  const KeyLog local = node1_events(1);
  const KeyLog posted = node1_events(2);
  const std::uint64_t node0 = std::uint64_t{1} << 36;  // tag 1, counter 0
  const std::uint64_t node1 = std::uint64_t{2} << 36;
  EXPECT_EQ(local, (KeyLog{{'R', 2}, {'D', node0}, {'E', node1},
                           {'F', node1 + 1}}));
  EXPECT_EQ(posted, local);
}

void noop_raw(void* /*ctx*/, void* /*arg*/) {}

// Node 0 posts a delivery 0.1 ms ahead, inside the 1 ms lookahead it
// promised; node 1 has run past that instant when the mailbox drains.
TEST(ParallelEngineDeathTest, CrossDeliveryBehindTheHorizonAborts) {
  EXPECT_DEATH(
      {
        sim::ParallelEngine eng(2, 1);
        eng.set_lookahead(1e-3);
        sim::Simulator& s0 = eng.domain(0);
        s0.schedule_setup_at(1e-3, 0, 0, [&eng] {
          eng.post(0, 1, 1.1e-3, 1, &noop_raw, nullptr, nullptr);
        });
        eng.domain(1).schedule_setup_at(0.5e-3, 1, 1, [] {});
        eng.domain(1).schedule_setup_at(1.2e-3, 2, 1, [] {});
        eng.run_until(5e-3);
      },
      "cross delivery behind the horizon");
}

// --- Partitioner ------------------------------------------------------------

TEST(TopologyPartition, RacksStayIntactAndCutsCarryLookahead) {
  sim::Simulator sim;
  topo::ThreeTierConfig cfg;
  cfg.num_tors = 4;
  cfg.hosts_per_tor = 4;
  topo::ThreeTierBuilder builder(cfg);
  auto built = builder.build(sim, [](double) {
    return std::make_unique<net::DropTailQueue>(100);
  });
  ASSERT_NE(built, nullptr);
  topo::Topology& topo = *built;

  const topo::Partition part = topo::partition_topology(topo, 4);
  EXPECT_EQ(part.domains, 4);
  EXPECT_TRUE(part.usable());
  // Hosts split into contiguous quarters, so each rack (4 hosts) lands whole
  // in one domain, and its ToR follows its first host.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(part.domain_of_node(topo.host(static_cast<std::size_t>(i))->id()),
              i / 4)
        << "host " << i;
  }
  // Cut links exist (racks talk through agg/core) and the lookahead is the
  // uniform per-link propagation delay.
  EXPECT_FALSE(part.cut_links.empty());
  EXPECT_DOUBLE_EQ(part.lookahead, cfg.per_link_delay);
  for (const auto& c : part.cut_links) {
    EXPECT_NE(c.src_domain, c.dst_domain);
    EXPECT_DOUBLE_EQ(c.link->prop_delay(), cfg.per_link_delay);
  }
}

// Without partition groups there is one domain per worker, so three-tier
// placement is the same static split as ever.
TEST(TopologyPartition, UngroupedTopologiesGetOneDomainPerWorker) {
  sim::Simulator sim;
  topo::ThreeTierConfig cfg;
  cfg.num_tors = 4;
  cfg.hosts_per_tor = 4;
  topo::ThreeTierBuilder builder(cfg);
  auto built = builder.build(sim, [](double) {
    return std::make_unique<net::DropTailQueue>(100);
  });
  for (const int workers : {1, 2, 3, 4}) {
    EXPECT_EQ(topo::domains_for_workers(*built, workers), workers);
  }
}

TEST(TopologyPartition, ClampsDomainsToHostCount) {
  sim::Simulator sim;
  topo::SingleRackConfig cfg;
  cfg.num_hosts = 3;
  topo::SingleRackBuilder builder(cfg);
  auto built = builder.build(
      sim, [](double) { return std::make_unique<net::DropTailQueue>(100); });
  const topo::Partition part = topo::partition_topology(*built, 16);
  EXPECT_EQ(part.domains, 3);
  for (int d : part.domain_of) {
    EXPECT_GE(d, 0);
    EXPECT_LT(d, 3);
  }
}

TEST(TopologyPartition, SingleDomainIsUnusable) {
  sim::Simulator sim;
  topo::SingleRackConfig cfg;
  cfg.num_hosts = 4;
  topo::SingleRackBuilder builder(cfg);
  auto built = builder.build(
      sim, [](double) { return std::make_unique<net::DropTailQueue>(100); });
  const topo::Partition part = topo::partition_topology(*built, 1);
  EXPECT_EQ(part.domains, 1);
  EXPECT_FALSE(part.usable());
  EXPECT_TRUE(part.cut_links.empty());
}

}  // namespace
}  // namespace pase
