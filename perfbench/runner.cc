// One measured simulator run, started by perfbench/run.py.
//
// run.py starts a fresh process per run, so getrusage's ru_maxrss is this
// run's own peak RSS. The runner builds the workload's config, fills the
// topology-derived traffic fields, generates the flow list from the seed with
// workload::generate_flows and hands only that list to
// workload::run_scenario_with_flows. It prints one JSON object on stdout:
// host timings, the simulated-output fingerprint, the ScenarioResult counters
// and the metrics snapshot.
//
// With --trace the run also turns on the engine self-profiler (profile.*
// metrics), times a direct call to the workload's topology builder, and
// records spans (name, start, end, parent) around its calls into the
// simulator; they are kept in memory and printed with the result.
//
// Usage:
//   perfbench_runner --workload NAME --seed N [--flows N]
//                    [--max-duration SECONDS] [--trace]
//
// --flows and --max-duration shorten a workload for the benchmark's tests.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "proto/registry.h"
#include "topo/builder.h"
#include "workload/scenario.h"

namespace {

using namespace pase;
using workload::Pattern;
using workload::Protocol;
using workload::ScenarioConfig;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int flows = 0;              // 0 = the workload's default
  double max_duration = 0.0;  // 0 = the workload's default
  bool trace = false;
};

// The benchmark's workloads. fattree_dctcp and fattree_dctcp_w4 share every
// input; only the worker count differs, so their fingerprints must match.
ScenarioConfig workload_config(const std::string& name) {
  ScenarioConfig cfg;
  cfg.stats_mode = ScenarioConfig::StatsMode::kStreaming;
  cfg.recycle_endpoints = true;
  cfg.traffic.num_background_flows = 0;
  if (name == "fattree_dctcp" || name == "fattree_dctcp_w4") {
    // k=16 fat-tree (1,024 hosts, 320 switches), any-to-any traffic with
    // the paper's U[2 KB, 198 KB] sizes: ECMP groups, the path cache and the
    // calendar do the work.
    cfg.protocol = Protocol::kDctcp;
    cfg.topology = ScenarioConfig::TopologyKind::kFatTree;
    cfg.fattree.k = 16;
    cfg.traffic.pattern = Pattern::kIntraRackRandom;
    cfg.traffic.load = 0.3;
    cfg.traffic.num_flows = 4000;
    cfg.max_duration = 60.0;
    cfg.workers = name == "fattree_dctcp_w4" ? 4 : 1;
  } else if (name == "threetier_pase") {
    // The paper's Fig. 9a/10a setup: three-tier 4x40 hosts, left->right
    // traffic across the core, U[2 KB, 198 KB] sizes. Unique paths; PASE
    // arbitration and the priority queues dominate.
    cfg.protocol = Protocol::kPase;
    cfg.topology = ScenarioConfig::TopologyKind::kThreeTier;
    cfg.traffic.pattern = Pattern::kLeftRight;
    cfg.traffic.load = 0.7;
    cfg.traffic.num_flows = 6000;
    cfg.max_duration = 60.0;
  } else if (name == "flow_churn") {
    // 32-host rack, many fixed 3-MSS flows: per-flow lifecycle cost
    // (generation, staging, endpoint construct/recycle, stats fold)
    // dominates packet forwarding.
    cfg.protocol = Protocol::kDctcp;
    cfg.topology = ScenarioConfig::TopologyKind::kSingleRack;
    cfg.rack.num_hosts = 32;
    cfg.traffic.pattern = Pattern::kIntraRackRandom;
    cfg.traffic.load = 0.6;
    cfg.traffic.num_flows = 300000;
    cfg.traffic.size_min_bytes = 4380;  // 3 MSS
    cfg.traffic.size_max_bytes = 4380;
    cfg.max_duration = 120.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return cfg;
}

std::unique_ptr<topo::TopologyBuilder> topology_builder(
    const ScenarioConfig& cfg) {
  switch (cfg.topology) {
    case ScenarioConfig::TopologyKind::kSingleRack:
      return std::make_unique<topo::SingleRackBuilder>(cfg.rack);
    case ScenarioConfig::TopologyKind::kFatTree:
      return std::make_unique<topo::FatTreeBuilder>(cfg.fattree);
    case ScenarioConfig::TopologyKind::kThreeTier:
      break;
  }
  return std::make_unique<topo::ThreeTierBuilder>(cfg.tree);
}

// Spans around the runner's calls into the simulator, held in memory until
// the result is printed. Times are seconds since the runner's epoch.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the span list; -1 for a root span
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  int add(std::string name, double start, double end, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// FNV-1a over the formatted simulated outputs: any change to the event
// stream that reaches them changes the fingerprint.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

class JsonObject {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    raw(key, buf);
  }
  void u64(const char* key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void str(const char* key, const std::string& v) {
    raw(key, "\"" + json_escape(v) + "\"");
  }
  void raw(const std::string& key, const std::string& value) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + json_escape(key) + "\": " + value;
  }
  std::string close() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--trace") {
      opt->trace = true;
    } else if (a == "--workload" && has_value) {
      opt->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--flows" && has_value) {
      opt->flows = std::atoi(argv[++i]);
    } else if (a == "--max-duration" && has_value) {
      opt->max_duration = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown or incomplete argument '%s'\n", argv[i]);
      return false;
    }
  }
  return !opt->workload.empty();
}

int run(const Options& opt) {
  ScenarioConfig cfg = workload_config(opt.workload);
  cfg.traffic.seed = opt.seed;
  if (opt.flows > 0) cfg.traffic.num_flows = opt.flows;
  if (opt.max_duration > 0.0) cfg.max_duration = opt.max_duration;
  cfg.profile = opt.trace;

  const topo::WorkloadHints hints = topology_builder(cfg)->hints();
  cfg.traffic.num_hosts = hints.num_hosts;
  if (hints.left_hosts > 0) cfg.traffic.left_hosts = hints.left_hosts;
  cfg.traffic.host_rate_bps = hints.host_rate_bps;
  cfg.traffic.bottleneck_rate_bps = hints.bottleneck_rate_bps;
  workload::validate_config(cfg);

  SpanLog spans(opt.trace);
  double topo_build_s = 0.0;
  if (opt.trace) {
    // A direct, stand-alone build of the workload's fabric, torn down before
    // the measured run starts.
    const proto::TransportProfile& profile = proto::profile_for(cfg.protocol);
    const double t0 = spans.now();
    {
      sim::Simulator sim;
      auto built = topology_builder(cfg)->build(sim,
                                                profile.make_queue_factory(cfg));
      const double t1 = spans.now();
      topo_build_s = t1 - t0;
      spans.add("topo.build", t0, t1);
    }
  }

  const double gen0 = spans.now();
  std::vector<transport::Flow> flows = workload::generate_flows(cfg.traffic);
  const double gen1 = spans.now();
  spans.add("workload.flowgen", gen0, gen1);

  const double run0 = spans.now();
  const workload::ScenarioResult r =
      workload::run_scenario_with_flows(cfg, std::move(flows));
  const double run1 = spans.now();
  const int run_span = spans.add("workload.run", run0, run1);
  // The harness reports its own set-up time; the loop is the remainder.
  spans.add("workload.setup", run0, run0 + r.setup_wall_sec, run_span);
  spans.add("workload.loop", run0 + r.setup_wall_sec, run1, run_span);

  const double sum0 = spans.now();
  const std::uint64_t total = r.total_flows();
  const std::uint64_t completed =
      r.streaming ? r.streaming->completed_flows() : total - r.unfinished();
  const double afct = r.afct();
  const double p99 = r.fct_p99();
  const double loss = r.loss_rate();
  const double sum1 = spans.now();
  spans.add("stats.summary", sum0, sum1);

  std::uint64_t drops = 0, marks = 0;
  for (const auto& m : r.metrics) {
    if (m.name == "fabric.drops") drops = static_cast<std::uint64_t>(m.value);
    if (m.name == "fabric.marks") marks = static_cast<std::uint64_t>(m.value);
  }
  // AFCT is a floating-point sum whose fold order differs between the
  // sequential and parallel engines, so it enters at 12 significant digits;
  // every other field is exact.
  char fp_text[512];
  std::snprintf(fp_text, sizeof(fp_text),
                "pkts=%" PRIu64 " drops=%" PRIu64 " marks=%" PRIu64
                " ctrl=%" PRIu64 " afct=%.12g p99=%.17g end=%.17g",
                r.data_packets_sent, drops, marks, r.control.messages_sent,
                afct, p99, r.end_time);
  char fp_hex[17];
  std::snprintf(fp_hex, sizeof(fp_hex), "%016" PRIx64, fnv1a(fp_text));

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);

  JsonObject out;
  out.str("workload", opt.workload);
  out.u64("seed", opt.seed);
  out.u64("workers_requested", static_cast<std::uint64_t>(cfg.workers));
  out.u64("workers_used", static_cast<std::uint64_t>(r.workers_used));
  out.str("parallel_fallback_reason", r.parallel_fallback_reason);
  out.str("fingerprint", fp_hex);
  out.str("fingerprint_text", fp_text);
  out.u64("flows", total);
  out.u64("completed", completed);
  out.u64("data_packets", r.data_packets_sent);
  out.u64("probes", r.probes_sent);
  out.u64("drops", drops);
  out.u64("marks", marks);
  out.u64("ctrl_msgs", r.control.messages_sent);
  out.u64("arbitrations", r.control.arbitrations);
  out.num("afct_s", afct);
  out.num("fct_p99_s", p99);
  out.num("loss_rate", loss);
  out.num("end_time_s", r.end_time);
  out.u64("heap_closure_events", r.heap_closure_events);
  out.u64("slab_grow_events", r.slab_grow_events);
  out.u64("peak_live_flows", r.peak_live_flows);
  out.num("flowgen_s", gen1 - gen0);
  out.num("harness_setup_s", r.setup_wall_sec);
  out.num("run_s", run1 - run0);
  out.num("barrier_wait_s", r.parallel_barrier_wait_sec);
  out.num("topo_build_s", topo_build_s);
  out.u64("peak_rss_bytes", static_cast<std::uint64_t>(ru.ru_maxrss) * 1024);

  JsonObject metrics;
  for (const auto& m : r.metrics) metrics.num(m.name.c_str(), m.value);
  out.raw("metrics", metrics.close());

  std::string span_list = "[";
  for (const Span& s : spans.spans()) {
    JsonObject js;
    js.str("name", s.name);
    js.num("start", s.start);
    js.num("end", s.end);
    js.raw("parent", std::to_string(s.parent));
    if (span_list.size() > 1) span_list += ", ";
    span_list += js.close();
  }
  out.raw("spans", span_list + "]");

  std::printf("%s\n", out.close().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME --seed N "
                 "[--flows N] [--max-duration S] [--trace]\n");
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
