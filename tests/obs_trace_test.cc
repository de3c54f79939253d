// Tracing subsystem tests.
//
// Three layers of guarantees:
//   1. TraceBuffer mechanics: ring wrap with oldest-overwrite accounting,
//      category filtering, category-name round trips.
//   2. Sinks: JSONL is schema-versioned with one event per line; the Chrome
//      sink produces a trace_event document.
//   3. Non-perturbation and determinism: enabling tracing must not change
//      any of the 18 golden fingerprints, and the merged trace of a
//      parallel run must be byte-identical to the sequential one for
//      workers in {1, 2, 4} (engine category excluded — its content is
//      worker-count dependent by definition).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"
#include "trace_fingerprint.h"
#include "workload/scenario.h"

namespace pase::obs {
namespace {

TEST(TraceBuffer, CapacityRoundsUpToPowerOfTwo) {
  TraceBuffer b(100, kAllCategories);
  EXPECT_EQ(b.capacity(), 128u);
  TraceBuffer c(256, kAllCategories);
  EXPECT_EQ(c.capacity(), 256u);
}

TEST(TraceBuffer, WrapOverwritesOldestAndCountsDropped) {
  TraceBuffer b(4, kAllCategories);
  b.begin_event(0.0, kNoOrder);
  for (std::uint64_t i = 0; i < 10; ++i) {
    b.emit(kFlowCat, EventType::kFlowStart, /*flow=*/i);
  }
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.dropped(), 6u);
  // Retained records are the newest four, oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(b.at(i).flow, 6u + i);
  }
}

TEST(TraceBuffer, CategoryFilterRejectsAtEmit) {
  TraceBuffer b(16, kFlowCat | kArbCat);
  b.begin_event(1.0, kNoOrder);
  b.emit(kFlowCat, EventType::kFlowStart, 1);
  b.emit(kPacketCat, EventType::kPktDrop, 2);     // filtered
  b.emit(kEndpointCat, EventType::kCwndSample, 3);  // filtered
  b.emit(kArbCat, EventType::kArbDecision, 4);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.at(0).flow, 1u);
  EXPECT_EQ(b.at(1).flow, 4u);
  EXPECT_EQ(b.dropped(), 0u);
}

TEST(TraceCategories, ParseAndFormatRoundTrip) {
  EXPECT_EQ(parse_categories(""), kAllCategories);
  EXPECT_EQ(parse_categories("all"), kAllCategories);
  EXPECT_EQ(parse_categories("flow"), kFlowCat);
  EXPECT_EQ(parse_categories("flow,packet"), kFlowCat | kPacketCat);
  EXPECT_EQ(parse_categories("queue,engine"), kQueueCat | kEngineCat);
  EXPECT_EQ(parse_categories("nonsense"), 0u);
  const std::uint32_t mask = kFlowCat | kArbCat | kEngineCat;
  EXPECT_EQ(parse_categories(categories_string(mask)), mask);
  EXPECT_EQ(categories_string(kAllCategories),
            "flow,packet,arb,endpoint,queue,engine");
}

TEST(TraceCategories, EveryTypeMapsIntoTheMask) {
  for (int t = 0; t <= static_cast<int>(EventType::kParallelRound); ++t) {
    const auto type = static_cast<EventType>(t);
    EXPECT_NE(category_of(type) & kAllCategories, 0u)
        << "type " << t << " has no category";
    EXPECT_NE(std::string(type_name(type)), "");
  }
}

TEST(MetricsRegistry, StableReferencesAndSortedSnapshot) {
  MetricsRegistry reg;
  std::uint64_t& c = reg.counter("b.count");
  c = 7;
  reg.gauge("a.gauge") = 2.5;
  auto& s = reg.series("c.series");
  s.push_back(1.0);
  s.push_back(3.0);
  reg.counter("b.count") += 1;  // idempotent lookup, same slot
  EXPECT_EQ(reg.counter_value("b.count"), 8u);

  const MetricsSnapshot snap = reg.snapshot();
  // gauge + counter + series {count,max,mean,min,p99}
  ASSERT_EQ(snap.size(), 7u);
  EXPECT_EQ(snap[0].name, "a.gauge");
  EXPECT_EQ(snap[1].name, "b.count");
  EXPECT_EQ(snap[2].name, "c.series.count");
  EXPECT_EQ(snap[3].name, "c.series.max");
  EXPECT_EQ(snap[4].name, "c.series.mean");
  EXPECT_EQ(snap[5].name, "c.series.min");
  EXPECT_EQ(snap[6].name, "c.series.p99");
  EXPECT_DOUBLE_EQ(snap[3].value, 3.0);
  EXPECT_DOUBLE_EQ(snap[4].value, 2.0);
  EXPECT_DOUBLE_EQ(snap[5].value, 1.0);
  EXPECT_DOUBLE_EQ(snap[6].value, 3.0);
}

// A small traced scenario shared by the sink-shape tests.
workload::ScenarioResult traced_scenario(workload::Protocol p, int workers) {
  workload::ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 8;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.load = 0.6;
  cfg.traffic.num_flows = 40;
  cfg.traffic.seed = 9;
  cfg.workers = workers;
  cfg.trace.enabled = true;
  return workload::run_scenario(cfg);
}

TEST(TraceSinks, JsonlIsSchemaVersionedOneEventPerLine) {
  const auto r = traced_scenario(workload::Protocol::kPase, 1);
  ASSERT_NE(r.trace, nullptr);
  EXPECT_GT(r.trace->events.size(), 0u);
  EXPECT_EQ(r.trace->dropped, 0u);

  const std::string doc = r.trace->to_jsonl();
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < doc.size()) {
    const std::size_t nl = doc.find('\n', pos);
    ASSERT_NE(nl, std::string::npos) << "unterminated final line";
    lines.push_back(doc.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_GT(lines.size(), 1u);
  // Header: schema name, version, event count.
  EXPECT_NE(lines[0].find("\"schema\":\"pase-trace\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"version\":1"), std::string::npos);
  EXPECT_NE(
      lines[0].find("\"events\":" + std::to_string(r.trace->events.size())),
      std::string::npos);
  EXPECT_EQ(lines.size(), r.trace->events.size() + 1);
  // Every event line is an object with a time and a type.
  bool saw_start = false, saw_complete = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].front(), '{');
    EXPECT_EQ(lines[i].back(), '}');
    EXPECT_NE(lines[i].find("\"t\":"), std::string::npos);
    EXPECT_NE(lines[i].find("\"type\":"), std::string::npos);
    saw_start = saw_start ||
                lines[i].find("\"type\":\"flow.start\"") != std::string::npos;
    saw_complete =
        saw_complete ||
        lines[i].find("\"type\":\"flow.complete\"") != std::string::npos;
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_complete);
  // PASE runs arbitrate, so decisions must be present.
  EXPECT_NE(doc.find("\"type\":\"arb.decision\""), std::string::npos);
  // Times never decrease down the file (deterministic merge order).
  const auto& ev = r.trace->events;
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_LE(ev[i - 1].t, ev[i].t);
  }
}

TEST(TraceSinks, ChromeSinkEmitsTraceEventDocument) {
  const auto r = traced_scenario(workload::Protocol::kDctcp, 1);
  ASSERT_NE(r.trace, nullptr);
  const std::string doc = r.trace->to_chrome_json();
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  // Flow lifetimes serialize as async begin/end pairs.
  EXPECT_NE(doc.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"e\""), std::string::npos);
  // Cwnd samples become counter events.
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TraceSinks, CategoryMaskLimitsScenarioTrace) {
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kDctcp;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 8;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.load = 0.6;
  cfg.traffic.num_flows = 40;
  cfg.traffic.seed = 9;
  cfg.trace.enabled = true;
  cfg.trace.categories = kFlowCat;
  const auto r = workload::run_scenario(cfg);
  ASSERT_NE(r.trace, nullptr);
  ASSERT_GT(r.trace->events.size(), 0u);
  for (const auto& e : r.trace->events) {
    EXPECT_EQ(category_of(e.type), kFlowCat);
  }
}

// Tracing must be an observer, not a participant: every golden fingerprint
// is identical with and without a buffer installed.
TEST(TraceNonPerturbation, TracedRunsKeepAllGoldenFingerprints) {
  for (const auto& c : fingerprint_battery()) {
    const std::uint64_t plain = trace_fingerprint(workload::run_scenario(c.config));
    workload::ScenarioConfig traced = c.config;
    traced.trace.enabled = true;
    const workload::ScenarioResult r = workload::run_scenario(traced);
    EXPECT_EQ(trace_fingerprint(r), plain) << c.label;
    ASSERT_NE(r.trace, nullptr) << c.label;
    EXPECT_GT(r.trace->events.size(), 0u) << c.label;
  }
}

// The deterministic merge: serialized traces are byte-identical for any
// worker count. The engine category is masked out — rounds/windows and
// per-domain event counts legitimately depend on the partition.
TEST(TraceDeterminism, MergedTraceByteIdenticalAcrossWorkerCounts) {
  const workload::Protocol protocols[] = {workload::Protocol::kPase,
                                          workload::Protocol::kPfabric,
                                          workload::Protocol::kDctcp};
  for (const auto p : protocols) {
    workload::ScenarioConfig cfg;
    cfg.protocol = p;
    cfg.topology = workload::ScenarioConfig::TopologyKind::kThreeTier;
    cfg.tree.num_tors = 4;
    cfg.tree.hosts_per_tor = 4;
    cfg.traffic.pattern = workload::Pattern::kLeftRight;
    cfg.traffic.size_dist = workload::SizeDistribution::kWebSearch;
    cfg.traffic.load = 0.6;
    cfg.traffic.num_flows = 100;
    cfg.traffic.seed = 5;
    cfg.trace.enabled = true;
    cfg.trace.categories = kAllCategories & ~kEngineCat;

    cfg.workers = 1;
    const auto r1 = workload::run_scenario(cfg);
    ASSERT_NE(r1.trace, nullptr);
    ASSERT_EQ(r1.trace->dropped, 0u);
    const std::string ref = r1.trace->to_jsonl();
    ASSERT_GT(r1.trace->events.size(), 0u);

    for (const int w : {2, 4}) {
      cfg.workers = w;
      const auto rw = workload::run_scenario(cfg);
      ASSERT_NE(rw.trace, nullptr);
      ASSERT_EQ(rw.trace->dropped, 0u);
      EXPECT_EQ(rw.trace->to_jsonl(), ref)
          << workload::protocol_name(p) << " workers=" << w
          << " (workers_used=" << rw.workers_used << ")";
      // Passes ran mid-run, so merge keys came from several of them.
      double compactions = 0.0;
      for (const auto& m : rw.metrics) {
        if (m.name == "parallel.lineage_compactions") compactions = m.value;
      }
      EXPECT_GT(compactions, 0.0)
          << workload::protocol_name(p) << " workers=" << w;
    }
  }
}

// The same on a k=8 fat-tree, which runs as 8 pod domains whatever the
// worker count: at 2 and 3 workers domains migrate between threads, and
// every record must still be captured (the domain's ring follows it to the
// claiming thread) and merged back into sequential order.
TEST(TraceDeterminism, FatTreePodDomainsByteIdenticalAtOneTwoThreeWorkers) {
  for (const auto p : {workload::Protocol::kDctcp, workload::Protocol::kPase}) {
    workload::ScenarioConfig cfg;
    cfg.protocol = p;
    cfg.topology = workload::ScenarioConfig::TopologyKind::kFatTree;
    cfg.fattree.k = 8;
    cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
    cfg.traffic.size_dist = workload::SizeDistribution::kWebSearch;
    cfg.traffic.load = 0.4;
    cfg.traffic.num_flows = 40;
    cfg.traffic.seed = 21;
    cfg.trace.enabled = true;
    cfg.trace.categories = kAllCategories & ~kEngineCat;
    cfg.trace.buffer_capacity = std::size_t{1} << 17;

    const auto r1 = workload::run_scenario(cfg);
    ASSERT_NE(r1.trace, nullptr);
    ASSERT_EQ(r1.trace->dropped, 0u);
    ASSERT_GT(r1.trace->events.size(), 0u);
    const std::string ref = r1.trace->to_jsonl();
    for (const int w : {2, 3}) {
      cfg.workers = w;
      const auto rw = workload::run_scenario(cfg);
      ASSERT_NE(rw.trace, nullptr);
      ASSERT_EQ(rw.trace->dropped, 0u);
      EXPECT_EQ(rw.workers_used, w);
      EXPECT_EQ(rw.trace->to_jsonl(), ref)
          << workload::protocol_name(p) << " workers=" << w;
    }
  }
}

double metric_value(const workload::ScenarioResult& r,
                    const std::string& name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "metric " << name << " missing";
  return -1.0;
}

TEST(Metrics, ScenarioResultCarriesAggregates) {
  const auto r = traced_scenario(workload::Protocol::kPase, 1);
  ASSERT_FALSE(r.metrics.empty());
  EXPECT_EQ(metric_value(r, "flows.total"),
            static_cast<double>(r.records.size()));
  EXPECT_GT(metric_value(r, "engine.executed_events"), 0.0);
  EXPECT_EQ(metric_value(r, "engine.heap_closure_events"), 0.0);
  EXPECT_EQ(metric_value(r, "engine.workers"), 1.0);
  EXPECT_GT(metric_value(r, "fabric.enqueues"), 0.0);
  // PASE arbitrates.
  EXPECT_GT(metric_value(r, "control.messages_sent"), 0.0);
  EXPECT_EQ(metric_value(r, "trace.dropped"), 0.0);
  EXPECT_GT(metric_value(r, "mem.demux_bytes"), 0.0);
  EXPECT_GT(metric_value(r, "mem.queue_buffer_bytes"), 0.0);
}

TEST(Metrics, ParallelRunReportsRoundStatistics) {
  const char* names[] = {"parallel.rounds", "parallel.windows",
                         "parallel.cross_posts", "engine.workers",
                         "parallel.lineage_compactions",
                         "mem.lineage_peak_bytes", "parallel.domains",
                         "parallel.max_domain_event_share", "mem.demux_bytes",
                         "mem.queue_buffer_bytes"};
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kDctcp;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kThreeTier;
  cfg.tree.num_tors = 4;
  cfg.tree.hosts_per_tor = 4;
  cfg.traffic.pattern = workload::Pattern::kLeftRight;
  cfg.traffic.load = 0.5;
  cfg.traffic.num_flows = 60;
  cfg.traffic.seed = 3;
  cfg.workers = 2;
  const auto r = workload::run_scenario(cfg);
  ASSERT_EQ(r.workers_used, 2);
  for (const char* name : names) {
    bool found = false;
    for (const auto& m : r.metrics) found = found || m.name == name;
    EXPECT_TRUE(found) << name;
  }
  double domains = 0.0, share = 0.0;
  for (const auto& m : r.metrics) {
    if (m.name == "parallel.domains") domains = m.value;
    if (m.name == "parallel.max_domain_event_share") share = m.value;
  }
  // No partition groups on a three-tier tree: one domain per worker. The
  // largest domain holds at least its even share of the events.
  EXPECT_EQ(domains, 2.0);
  EXPECT_GE(share, 0.5);
  EXPECT_LE(share, 1.0);
}

// A sequential run — one worker, or a fallback — is the one-domain case of
// the partitioned driver and reports no parallel.* statistics.
TEST(Metrics, OneDomainRunsEmitNoParallelMetrics) {
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kDctcp;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 8;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.load = 0.5;
  cfg.traffic.num_flows = 40;
  cfg.traffic.seed = 7;
  const auto one = workload::run_scenario(cfg);
  cfg.workers = 4;
  cfg.rack.per_link_delay = 0.0;  // zero lookahead: falls back
  const auto fallback = workload::run_scenario(cfg);
  ASSERT_EQ(fallback.workers_used, 1);
  ASSERT_FALSE(fallback.parallel_fallback_reason.empty());
  for (const auto* r : {&one, &fallback}) {
    EXPECT_GT(metric_value(*r, "engine.executed_events"), 0.0);
    for (const auto& m : r->metrics) {
      EXPECT_NE(m.name.rfind("parallel.", 0), 0u) << m.name;
      EXPECT_NE(m.name, "mem.lineage_peak_bytes");
    }
  }
}

// The capacity bench's rack: 32 hosts, 3-MSS flows at load 0.6, streaming
// statistics and recycled endpoints.
workload::ScenarioConfig churn_rack(int flows, int workers) {
  workload::ScenarioConfig cfg;
  cfg.protocol = workload::Protocol::kDctcp;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kSingleRack;
  cfg.rack.num_hosts = 32;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.load = 0.6;
  cfg.traffic.num_flows = flows;
  cfg.traffic.size_min_bytes = 4380;
  cfg.traffic.size_max_bytes = 4380;
  cfg.traffic.seed = 17;
  cfg.stats_mode = workload::ScenarioConfig::StatsMode::kStreaming;
  cfg.recycle_endpoints = true;
  cfg.workers = workers;
  return cfg;
}

TEST(Metrics, PartitionedEventSlotsTrackHostsNotFlows) {
  // Each domain keeps one pending launch, so its event slots are sized by
  // its hosts' in-flight events: ten times the flows at the same load use
  // the same slot arena.
  const auto few = workload::run_scenario(churn_rack(2000, 2));
  const auto many = workload::run_scenario(churn_rack(20000, 2));
  ASSERT_EQ(few.workers_used, 2);
  ASSERT_EQ(many.unfinished(), 0u);
  const double a = metric_value(few, "mem.event_slot_bytes");
  const double b = metric_value(many, "mem.event_slot_bytes");
  EXPECT_GT(a, 0.0);
  EXPECT_LE(b, 1.25 * a) << a << " -> " << b;
}

TEST(Metrics, LaunchChainsKeepPendingEventsPerHostBounded) {
  // A deterministic proxy for calendar pressure: staging a chunk's launches
  // straight into the calendar would hold thousands of them pending.
  for (const int workers : {1, 2}) {
    workload::ScenarioConfig cfg = churn_rack(20000, workers);
    cfg.profile = true;
    const auto r = workload::run_scenario(cfg);
    ASSERT_EQ(r.workers_used, workers);
    EXPECT_LE(metric_value(r, "profile.engine.peak_pending"), 32.0 * 32)
        << "workers=" << workers;
  }
}

// A k=8 fat-tree (128 hosts, 80 switches of 8 ports) at a fixed load.
workload::ScenarioConfig fat_tree_k8(workload::Protocol p, int flows) {
  workload::ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.topology = workload::ScenarioConfig::TopologyKind::kFatTree;
  cfg.fattree.k = 8;
  cfg.stats_mode = workload::ScenarioConfig::StatsMode::kStreaming;
  cfg.traffic.pattern = workload::Pattern::kIntraRackRandom;
  cfg.traffic.load = 0.3;
  cfg.traffic.num_flows = flows;
  cfg.traffic.num_background_flows = 0;
  cfg.traffic.seed = 5;
  return cfg;
}

TEST(Metrics, DemuxBytesTrackLiveFlowsNotFlowCount) {
  // Eight times the flows at the same load: the same concurrency, so the
  // host demux tables (sized by registered flows) hold about the same bytes.
  // Tables indexed by flow id would grow eightfold.
  const auto few = workload::run_scenario(
      fat_tree_k8(workload::Protocol::kDctcp, 1000));
  const auto many = workload::run_scenario(
      fat_tree_k8(workload::Protocol::kDctcp, 8000));
  ASSERT_EQ(few.unfinished(), 0u);
  ASSERT_EQ(many.unfinished(), 0u);
  const double a = metric_value(few, "mem.demux_bytes");
  const double b = metric_value(many, "mem.demux_bytes");
  EXPECT_GT(a, 0.0);
  EXPECT_LE(b, 1.25 * a) << a << " -> " << b;
}

TEST(Metrics, PaseQueueBuffersHoldHighWaterMarkNotCapacity) {
  // PASE ports are 8-class strict-priority banks sharing one 500-packet
  // buffer. Preallocating every class ring at the shared capacity would
  // hold queues x classes x capacity x 8 B; rings that grow with their
  // occupancy hold a small fraction of that.
  const auto r =
      workload::run_scenario(fat_tree_k8(workload::Protocol::kPase, 1000));
  ASSERT_EQ(r.unfinished(), 0u);
  const double queues = 128 + 80 * 8;  // host uplinks + switch ports
  const double full = queues * 8 * 500 * 8;
  const double held = metric_value(r, "mem.queue_buffer_bytes");
  EXPECT_GT(held, 0.0);
  EXPECT_LT(held, full / 4) << held << " of " << full;
}

}  // namespace
}  // namespace pase::obs
