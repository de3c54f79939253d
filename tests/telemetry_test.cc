// Telemetry plane tests: queue enumeration and naming, grid sampling driven
// by hand (as the scenario driver does), window rollup math, the
// space-saving heavy-hitter sketch's guarantees, JSONL shape, and
// byte-identity of the serialized summary across worker counts (the plane's
// core determinism contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/droptail_queue.h"
#include "obs/telemetry.h"
#include "test_util.h"
#include "topo/builder.h"
#include "transport/dctcp.h"
#include "transport/window_sender.h"
#include "workload/scenario.h"

namespace pase::obs {
namespace {

// Single-rack fixture built through the builder seam, as the scenario
// driver builds its fabric.
struct PlaneNet {
  sim::Simulator sim;
  std::unique_ptr<topo::Topology> built;

  topo::Topology& topo() { return *built; }
  net::Host& host(int i) { return *built->host(static_cast<std::size_t>(i)); }
};

std::unique_ptr<PlaneNet> make_plane_net(int num_hosts) {
  auto n = std::make_unique<PlaneNet>();
  topo::SingleRackConfig cfg;
  cfg.num_hosts = num_hosts;
  n->built = topo::SingleRackBuilder(cfg).build(n->sim, [](double) {
    return std::make_unique<net::DropTailQueue>(100);
  });
  return n;
}

transport::Flow make_flow(PlaneNet& n, int src, int dst, std::uint64_t bytes) {
  transport::Flow f;
  f.id = 1;
  f.src = n.host(src).id();
  f.dst = n.host(dst).id();
  f.size_bytes = bytes;
  f.start_time = 0.0;
  return f;
}

std::unique_ptr<transport::Receiver> wire_flow(PlaneNet& n,
                                               transport::Sender& sender,
                                               const transport::Flow& flow) {
  auto* src = static_cast<net::Host*>(n.topo().node(flow.src));
  auto* dst = static_cast<net::Host*>(n.topo().node(flow.dst));
  auto receiver = std::make_unique<transport::Receiver>(n.sim, *dst, flow);
  src->register_flow(flow.id, &sender);
  dst->register_flow(flow.id, receiver.get());
  return receiver;
}

TelemetryConfig plane_cfg(sim::Time period, int per_window = 10) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.sample_period = period;
  cfg.samples_per_window = per_window;
  return cfg;
}

TEST(TelemetryPlane, EnumeratesEveryQueue) {
  auto n = make_plane_net(4);
  TelemetryPlane tel(*n->built, plane_cfg(1e-3));
  // 4 host uplinks + 4 ToR downlinks.
  EXPECT_EQ(tel.num_queues(), 8u);
  EXPECT_EQ(tel.queue_names()[0], "h0.up");
  // Single rack: host uplinks plus edge (ToR) ports, no pods.
  ASSERT_EQ(tel.group_names().size(), 2u);
  EXPECT_EQ(tel.group_names()[0], "tier:host");
  EXPECT_EQ(tel.group_names()[1], "tier:edge");
}

TEST(TelemetryPlane, ObservesBacklogAtBottleneck) {
  auto n = make_plane_net(3);
  // Two senders converge on host 2: the ToR downlink to host 2 backs up.
  auto f1 = make_flow(*n, 0, 2, 400 * net::kMss);
  f1.id = 1;
  auto f2 = make_flow(*n, 1, 2, 400 * net::kMss);
  f2.id = 2;
  transport::WindowSenderOptions o;
  o.init_cwnd = 40;
  transport::DctcpSender s1(n->sim, n->host(0), f1, o);
  transport::DctcpSender s2(n->sim, n->host(1), f2, o);
  auto r1 = wire_flow(*n, s1, f1);
  auto r2 = wire_flow(*n, s2, f2);
  TelemetryPlane tel(*n->built, plane_cfg(50e-6));
  s1.start();
  s2.start();
  // Drive the grid by hand, as the scenario driver does.
  for (std::uint64_t k = 1; k <= 40; ++k) {
    n->sim.run(tel.sample_time(k));
    tel.sample(n->sim.now());
  }
  EXPECT_EQ(tel.samples_taken(), 40u);
  EXPECT_GT(tel.peak_occupancy(), 10u);
  ASSERT_NE(tel.busiest(), nullptr);
  EXPECT_EQ(*tel.busiest(), "tor->h2");
  n->sim.run(1.0);
}

TEST(UtilizationProbe, MeasuresBusyFraction) {
  auto n = make_plane_net(2);
  auto flow = make_flow(*n, 0, 1, 800 * net::kMss);
  transport::WindowSenderOptions o;
  o.init_cwnd = 50;  // fixed window (base sender has no growth law)
  transport::WindowSender s(n->sim, n->host(0), flow, o);
  auto recv = wire_flow(*n, s, flow);
  UtilizationProbe probe(n->host(0).uplink(), n->sim.now());
  s.start();
  // 800 packets at 1 Gbps ~ 9.6 ms; measure utilization over the first 5 ms.
  n->sim.run(5e-3);
  EXPECT_GT(probe.utilization(n->sim.now()), 0.9);
  n->sim.run(1.0);
  EXPECT_TRUE(recv->complete());
}

TEST(UtilizationProbe, IdleLinkIsZero) {
  auto n = make_plane_net(2);
  UtilizationProbe probe(n->host(0).uplink(), n->sim.now());
  n->sim.schedule(1e-3, [] {});
  n->sim.run();
  EXPECT_DOUBLE_EQ(probe.utilization(n->sim.now()), 0.0);
}

TEST(UtilizationProbe, NeverReportsMoreThanFullyBusy) {
  auto n = make_plane_net(2);
  auto flow = make_flow(*n, 0, 1, 100 * net::kMss);
  transport::WindowSenderOptions o;
  o.init_cwnd = 50;
  transport::WindowSender s(n->sim, n->host(0), flow, o);
  auto recv = wire_flow(*n, s, flow);
  s.start();
  n->sim.run(1e-3);
  // Probe over a window much shorter than one packet serialization: the
  // link's busy_time can exceed the elapsed window, but utilization is a
  // fraction and must clamp to [0, 1].
  UtilizationProbe probe(n->host(0).uplink(), n->sim.now());
  n->sim.run(n->sim.now() + 1e-9);
  const double u = probe.utilization(n->sim.now());
  EXPECT_GE(u, 0.0);
  EXPECT_LE(u, 1.0);
  n->sim.run(1.0);
}

TEST(TelemetryPlane, LabelsQueuesWithTraceIds) {
  auto n = make_plane_net(4);
  const std::vector<std::string> names = label_fabric_queues(n->topo());
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names[0], "h0.up");
  // Trace ids follow the same walk, so drop records can resolve the name.
  EXPECT_EQ(n->host(0).uplink_queue().trace_id(), 0u);
  EXPECT_EQ(n->host(3).uplink_queue().trace_id(), 3u);
}

// --- Window rollup math ------------------------------------------------------

TEST(TelemetryPlane, WindowRollupConservesBytesAndBoundsUtilization) {
  auto n = make_plane_net(2);
  auto flow = make_flow(*n, 0, 1, 800 * net::kMss);
  transport::WindowSenderOptions o;
  o.init_cwnd = 50;
  transport::WindowSender s(n->sim, n->host(0), flow, o);
  auto recv = wire_flow(*n, s, flow);
  TelemetryPlane tel(*n->built, plane_cfg(1e-3, /*per_window=*/4));
  s.start();
  // Drive the grid by hand, as the scenario harness does.
  for (std::uint64_t k = 1; k <= 12; ++k) {
    n->sim.run(tel.sample_time(k));
    tel.sample(n->sim.now());
  }
  const auto sum = tel.finish(n->sim.now());

  // 12 samples at 4 per window: 3 full windows, no trailing partial.
  ASSERT_EQ(sum->samples, 12u);
  ASSERT_EQ(sum->group_names.size(), 2u);
  EXPECT_EQ(sum->windows.size(), 3u * 2u);
  for (const auto& w : sum->windows) {
    EXPECT_DOUBLE_EQ(w.t1 - w.t0, 4e-3);
    EXPECT_GE(w.util_max, w.util_mean);
    EXPECT_GE(w.util_max, w.util_p99);
    EXPECT_LE(w.util_max, 1.0);
    EXPECT_GE(w.util_mean, 0.0);
    EXPECT_GE(static_cast<double>(w.depth_max), w.depth_mean);
  }
  // Window byte deltas add up to the whole-run totals, and the host-tier
  // total matches the host uplinks' own byte counters at the last sample.
  std::vector<std::uint64_t> by_group(sum->group_names.size(), 0);
  for (const auto& w : sum->windows) by_group[w.group] += w.bytes;
  std::uint64_t uplink_bytes = 0;
  uplink_bytes += n->host(0).uplink().bytes_sent();
  uplink_bytes += n->host(1).uplink().bytes_sent();
  ASSERT_EQ(sum->totals.size(), 2u);
  for (std::size_t g = 0; g < sum->totals.size(); ++g) {
    EXPECT_EQ(sum->totals[g].bytes, by_group[g]);
  }
  EXPECT_EQ(by_group[0], uplink_bytes);  // group 0 is tier:host
  // The busy flow shows up as a link heavy hitter.
  ASSERT_FALSE(sum->hot_links.empty());
  EXPECT_EQ(sum->hot_links[0].name, "h0.up");
}

TEST(TelemetryPlane, IdleFabricRollsUpToZero) {
  auto n = make_plane_net(2);
  TelemetryPlane tel(*n->built, plane_cfg(1e-3, /*per_window=*/2));
  for (std::uint64_t k = 1; k <= 4; ++k) {
    n->sim.run(tel.sample_time(k));
    tel.sample(n->sim.now());
  }
  const auto sum = tel.finish(n->sim.now());
  for (const auto& w : sum->windows) {
    EXPECT_DOUBLE_EQ(w.util_mean, 0.0);
    EXPECT_DOUBLE_EQ(w.util_max, 0.0);
    EXPECT_DOUBLE_EQ(w.util_p99, 0.0);  // all-idle window pins p99 to zero
    EXPECT_EQ(w.depth_max, 0u);
    EXPECT_EQ(w.bytes, 0u);
  }
  EXPECT_TRUE(sum->hot_links.empty());
}

// --- Space-saving sketch -----------------------------------------------------

TEST(SpaceSavingSketch, ExactUnderCapacity) {
  SpaceSavingSketch sk(8);
  sk.add(1, 100);
  sk.add(2, 50);
  sk.add(1, 25);
  EXPECT_EQ(sk.tracked(), 2u);
  EXPECT_EQ(sk.total_weight(), 175u);
  EXPECT_EQ(sk.min_estimate(), 0u);  // free slots: nothing was ever evicted
  const auto top = sk.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 1u);
  EXPECT_EQ(top[0].estimate, 125u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[1].key, 2u);
  EXPECT_EQ(top[1].estimate, 50u);
}

TEST(SpaceSavingSketch, GuaranteesTopKUnderOverflow) {
  // 3 heavy keys among 200 light ones, capacity 16: the heavies must stay
  // tracked with estimate >= true >= estimate - error, and the eviction
  // floor must respect min_estimate <= total / capacity.
  SpaceSavingSketch sk(16);
  const std::uint64_t heavy[3] = {1000, 1001, 1002};
  const std::uint64_t heavy_w[3] = {5000, 4000, 3000};
  for (int round = 0; round < 10; ++round) {
    for (int h = 0; h < 3; ++h) sk.add(heavy[h], heavy_w[h] / 10);
    for (std::uint64_t k = 0; k < 20; ++k) {
      sk.add(round * 20 + k, 7);
    }
  }
  EXPECT_LE(sk.min_estimate(), sk.total_weight() / sk.capacity());
  const auto top = sk.top(3);
  ASSERT_EQ(top.size(), 3u);
  for (int h = 0; h < 3; ++h) {
    EXPECT_EQ(top[h].key, heavy[h]);
    EXPECT_GE(top[h].estimate, heavy_w[h]);              // upper bound
    EXPECT_GE(heavy_w[h], top[h].estimate - top[h].error);  // lower bound
  }
}

TEST(SpaceSavingSketch, DeterministicAcrossIdenticalFeeds) {
  SpaceSavingSketch a(4), b(4);
  for (std::uint64_t k = 0; k < 100; ++k) {
    a.add(k % 13, k + 1);
    b.add(k % 13, k + 1);
  }
  const auto ta = a.top(4), tb = b.top(4);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].key, tb[i].key);
    EXPECT_EQ(ta[i].estimate, tb[i].estimate);
    EXPECT_EQ(ta[i].error, tb[i].error);
  }
}

// --- JSONL sink and cross-worker determinism ---------------------------------

workload::ScenarioConfig telemetry_scenario(workload::Protocol p) {
  workload::ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kFatTree;
  cfg.fattree.k = 4;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.size_dist = workload::SizeDistribution::kWebSearch;
  cfg.traffic.load = 0.5;
  cfg.traffic.num_flows = 120;
  cfg.traffic.seed = 7;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_period = 1e-3;
  cfg.telemetry.samples_per_window = 5;
  return cfg;
}

TEST(TelemetryJsonl, SchemaVersionedOneRecordPerLine) {
  auto cfg = telemetry_scenario(workload::Protocol::kDctcp);
  const auto r = workload::run_scenario(cfg);
  ASSERT_NE(r.telemetry, nullptr);
  const std::string doc = r.telemetry->to_jsonl();
  ASSERT_FALSE(doc.empty());
  EXPECT_NE(doc.find("\"schema\":\"pase-telemetry\""), std::string::npos);
  EXPECT_NE(doc.find("\"version\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"type\":\"window\""), std::string::npos);
  EXPECT_NE(doc.find("\"type\":\"total\""), std::string::npos);
  EXPECT_NE(doc.find("\"type\":\"hot_link\""), std::string::npos);
  EXPECT_EQ(doc.back(), '\n');
  // Fat-tree groups: 4 tiers + 4 pods.
  EXPECT_NE(doc.find("\"name\":\"tier:core\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"pod:3\""), std::string::npos);
  // Rendering is a pure function of the summary.
  EXPECT_EQ(r.telemetry->to_jsonl(), doc);
}

TEST(TelemetryDeterminism, JsonlByteIdenticalAcrossWorkerCounts) {
  const workload::Protocol protocols[] = {workload::Protocol::kPase,
                                          workload::Protocol::kPfabric,
                                          workload::Protocol::kDctcp};
  for (const auto p : protocols) {
    auto cfg = telemetry_scenario(p);
    cfg.workers = 1;
    const auto r1 = workload::run_scenario(cfg);
    ASSERT_NE(r1.telemetry, nullptr);
    ASSERT_GT(r1.telemetry->samples, 0u);
    const std::string ref = r1.telemetry->to_jsonl();

    for (const int w : {2, 4, 8}) {
      cfg.workers = w;
      const auto rw = workload::run_scenario(cfg);
      ASSERT_NE(rw.telemetry, nullptr);
      EXPECT_EQ(rw.telemetry->to_jsonl(), ref)
          << workload::protocol_name(p) << " workers=" << w
          << " (workers_used=" << rw.workers_used << ")";
    }
  }
}

// A period that is zero, negative or NaN never moves the sample grid past
// the chunk end, so the run loop would spin; the config is refused instead.
TEST(TelemetryConfig, RejectsPeriodThatNeverAdvances) {
  for (const double period : {0.0, -1e-3, std::nan("")}) {
    auto cfg = telemetry_scenario(workload::Protocol::kDctcp);
    cfg.telemetry.sample_period = period;
    EXPECT_THROW(workload::validate_config(cfg), std::invalid_argument)
        << period;
    EXPECT_THROW(workload::run_scenario(cfg), std::invalid_argument)
        << period;
  }
}

TEST(TelemetryNonPerturbation, EnablingTelemetryKeepsResultsIdentical) {
  auto cfg = telemetry_scenario(workload::Protocol::kDctcp);
  cfg.telemetry.enabled = false;
  const auto plain = workload::run_scenario(cfg);
  cfg.telemetry.enabled = true;
  const auto tele = workload::run_scenario(cfg);
  EXPECT_EQ(tele.end_time, plain.end_time);
  EXPECT_EQ(tele.data_packets_sent, plain.data_packets_sent);
  EXPECT_EQ(tele.fabric_drops, plain.fabric_drops);
  ASSERT_EQ(tele.records.size(), plain.records.size());
  for (std::size_t i = 0; i < plain.records.size(); ++i) {
    EXPECT_EQ(tele.records[i].finish, plain.records[i].finish) << i;
  }
}

}  // namespace
}  // namespace pase::obs
